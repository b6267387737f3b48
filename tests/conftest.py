import pytest
from hypothesis import settings

from orbitpn import models

# `pytest --hypothesis-profile witness-1000`: a run that draws 1,000 examples
# a property, as CI does for its differential properties
settings.register_profile("witness-1000", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def swap_net():
    return models.load("swap_infinite")


@pytest.fixture(scope="session")
def classes_net():
    return models.load("orbit_classes")


@pytest.fixture(scope="session")
def satsat_net():
    return models.load("satellite_swap")


@pytest.fixture(scope="session")
def debris_net():
    return models.load("debris_disposal")


@pytest.fixture(scope="session")
def all_nets(swap_net, classes_net, satsat_net, debris_net):
    return (swap_net, classes_net, satsat_net, debris_net)


# environments under which the two guarded maneuvers run their documented scenarios
SATSAT_ENVS = (
    {"collision_prob": 0.5, "clock": 5.0, "T1": 5.0, "eps": 1.0},
    {"collision_prob": 0.5, "clock": 6.0, "T1": 5.0, "eps": 1.0},
)
DEBRIS_ENV = {"collision_prob": 0.5}


@pytest.fixture(scope="session")
def satsat_envs():
    return SATSAT_ENVS


@pytest.fixture(scope="session")
def debris_env():
    return dict(DEBRIS_ENV)


#: transitions of the fan net: more than the interpreter's default recursion limit
FAN_WIDTH = 1200


@pytest.fixture(scope="session")
def fan_path(tmp_path_factory):
    """A net file of FAN_WIDTH transitions t0, t1, ..., each moving the one
    token x from P0 to P1."""
    lines = ["[colors]", "x", "[places]", "P0 +", "P1 +", "[transitions]"]
    lines += [f"t{i}" for i in range(FAN_WIDTH)]
    lines.append("[arcs]")
    for i in range(FAN_WIDTH):
        lines += [f"P0 -> t{i} : x", f"t{i} -> P1 : x"]
    lines += ["[marking]", "P0 = x"]
    path = tmp_path_factory.mktemp("fan") / "fan.opn"
    path.write_text("\n".join(lines) + "\n")
    return path
