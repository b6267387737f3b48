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
