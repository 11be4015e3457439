"""Run the tests against ``src/`` without installing the package.

``src`` goes first on ``sys.path`` for in-process imports, and first on
``PYTHONPATH`` for the tests that start ``python -m guesschain.cli`` or a demo
in a subprocess. Those subprocesses also inherit the interpreter's
development mode and ``-W`` options, so that a run under ``-X dev -W error``
makes every warning an error in them too.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
if sys.flags.dev_mode:
    os.environ["PYTHONDEVMODE"] = "1"
if sys.warnoptions:
    os.environ["PYTHONWARNINGS"] = ",".join(sys.warnoptions)
