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
