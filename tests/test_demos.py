"""Every demo script runs to completion against the current package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
