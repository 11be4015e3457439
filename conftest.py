"""Run the tests against ``src/`` without installing the package.

``src`` goes first on ``sys.path`` for in-process imports, and first on
``PYTHONPATH`` for the tests that start ``python -m guesschain.cli`` in a
subprocess.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
