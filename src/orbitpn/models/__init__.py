"""Bundled example models, shipped as package data (.opn files)."""

from importlib import resources

from ..netfile import load_net
from ..model import Net

NAMES = ("swap_infinite", "orbit_classes", "satellite_swap", "debris_disposal")


def model_path(name: str) -> str:
    """Filesystem path of a bundled model (models ship as plain files)."""
    if name not in NAMES:
        raise KeyError(f"no bundled model {name!r}; available: {', '.join(NAMES)}")
    return str(resources.files(__name__).joinpath(f"{name}.opn"))


def load(name: str) -> Net:
    return load_net(model_path(name))
