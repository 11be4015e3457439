"""Every demo script runs to completion against the current package, and the
README names only what the package exports."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import guesschain

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_readme_entry_points_resolve():
    """Every name in the first column of the README's "Key entry points"
    table is an attribute of the package."""
    text = (ROOT / "README.md").read_text(encoding="utf-8").split("Key entry points:", 1)[1]
    rows = text.split("\n\n")[1].splitlines()[2:]  # the table below its header and rule
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert names
    assert [name for name in names if not hasattr(guesschain, name)] == []
