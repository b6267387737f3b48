import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_case_studies_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_case_studies.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("state-equation consistent: True") == 4
    # the whole output, pinned: structure, matrices, traces, witnesses and graph summaries
    assert result.stdout == (ROOT / "tests" / "case_studies.golden.txt").read_text()


def test_cli_import_leaves_core_unloaded():
    # `Net.compiled` imports core on first use, so `opn` runs that never
    # build a compiled net do not load it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, orbitpn.cli; print('orbitpn.core' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_imports_only_the_standard_library():
    # orbitpn has no runtime dependencies: importing every one of its modules
    # loads nothing outside the standard library
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import orbitpn\n"
        "for info in pkgutil.walk_packages(orbitpn.__path__, 'orbitpn.'):\n"
        "    importlib.import_module(info.name)\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - sys.stdlib_module_names - {'orbitpn'}))\n"
        "print('orbitpn.core' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nTrue\n"


# the package's public names: every one resolves after a bare `import orbitpn`
PUBLIC_NAMES = [
    "AndExpr", "Arc", "Arith", "Comparison", "Environment", "FiringEvent", "GuardExpr",
    "IncidenceMatrix", "InfeasibleMarkingError", "Marking", "Multiset", "Net", "NetFileError",
    "NotEnabledError", "NotExpr", "NumLit", "OrExpr", "ParseError", "Place", "ReachabilityGraph",
    "SignedMultiset", "TRUE", "Trace", "Transition", "TrueLiteral", "UnboundVariableError",
    "VarRef", "algebra", "apply_state_equation", "check_reachability_condition", "enabled",
    "enabled_set", "enabling_failure", "engine", "eval_guard", "expr", "fire", "fire_sequence",
    "firing_counts", "format_incidence", "incidence_matrix", "load_net", "model", "multiset",
    "netfile", "parse_guard", "parse_marking_spec", "parse_net", "parse_weight_expr",
    "reachability_graph", "render_guard", "render_weight_expr", "simulate", "step",
    "validate_net", "verify_sequence_consistency",
]


def _run_child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_surface():
    # dir() and the star import give the 56 names of the package that
    # imported every layer up front, and each one resolves on first use
    out = _run_child(
        "import orbitpn\n"
        "print([n for n in dir(orbitpn) if not n.startswith('_')])\n"
        "ns = {}\n"
        "exec('from orbitpn import *', ns)\n"
        "print(sorted(n for n in ns if not n.startswith('_')))\n"
    )
    assert len(PUBLIC_NAMES) == 56
    assert out == f"{PUBLIC_NAMES}\n{PUBLIC_NAMES}\n"
    out = _run_child(
        "import sys, orbitpn\n"
        "subs = ['multiset', 'expr', 'model', 'engine', 'algebra', 'netfile']\n"
        "print(all(getattr(orbitpn, n) is sys.modules['orbitpn.' + n] for n in subs))\n"
        f"print(all(hasattr(orbitpn, n) for n in {PUBLIC_NAMES!r}))\n"
        "print(orbitpn.Net is orbitpn.model.Net, hasattr(orbitpn, 'no_such_name'))\n"
    )
    assert out == "True\nTrue\nTrue False\n"


def _loaded_after(argv: list[str], modules: list[str]) -> list[str]:
    """Of `modules`, those loaded in a fresh interpreter after `cli.main(argv)`."""
    code = (
        "import contextlib, io, json, sys\n"
        "from orbitpn import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main({argv!r})\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    return json.loads(_run_child(code))


def test_cli_loads_only_the_layers_a_subcommand_runs():
    model = str(ROOT / "src" / "orbitpn" / "models" / "satellite_swap.opn")
    unused = ["dataclasses", "orbitpn.engine", "orbitpn.algebra", "orbitpn.trace_io",
              "orbitpn.core"]
    assert _loaded_after(["validate", model], unused) == []
    env = "collision_prob=0.5,clock=5,T1=5,eps=1"
    assert _loaded_after(["fire", model, "--seq", "t1", "--env", env], unused) == [
        "orbitpn.engine", "orbitpn.core"]
