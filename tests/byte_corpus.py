"""Byte corpus of the guesschain CLI: a fixed list of runs and one digest per run.

Usage, from the root of a source checkout:

    python3 tests/byte_corpus.py > corpus.txt

Every run is an in-process ``guesschain.cli.main`` call on the checkout's own
``src``. For each run the script prints ``<sha256> <argv>``. The digest covers
``json.dumps([exit, stdout, stderr, csv])`` in UTF-8: ``exit`` is the exit
code (or ``"raised <type>: <message>"`` when ``main`` raises), and ``csv`` is
the text of the sweep's output file, or "" when the run writes none. The
output path reads ``{out}`` in argv and in stderr. The last line is
``total <sha256>``, taken over all earlier lines, each with its newline.
Two checkouts print the same total exactly when every run gives the same
bytes, and ``diff`` of their outputs names the runs that differ. The output
the program must give is committed as ``tests/byte_corpus.expected``:

    python3 tests/byte_corpus.py | diff tests/byte_corpus.expected -

A change that alters output bytes by design updates that file.

The runs, in this order:

- 26 grid sweeps with all four strategies: for N in {1, 2, 3, 8, 32, 200}, an
  81x81 ``--variable both`` grid, a 101-point prior sweep at overlap 0.77 and
  101-point overlap sweeps at priors 0.5 and 0.3; then a ``--points 1`` usage
  error and a 7x101 grid at N = 3;
- sweep errors and edges: an overlap of 1.5 and one of nan on a prior sweep,
  a prior of -0.1 on an overlap sweep and ``--receivers 0``; 2x2 grids with
  both axes exactly [0, 1] at N = 1 and 200; a grid with ``--start`` equal to
  ``--stop``; and a strategy list with a repeat;
- the benchmark's surface-sweep rounds for seeds 1-20
  (``perfbench/workloads.py``);
- ``optimize``, without and with ``--emit-stages``, for all four strategies
  over N in {1, 2, 3, 5, 8, 16}, overlaps {0, 0.3, 0.7, 1} and priors
  {0, 0.25, 0.5, 0.6, 0.9, 1};
- ``simulate`` at 70,001 trials and seed 7 over the same grid;
- ``find-sb`` for N = 2..8.

Pytest does not collect this file: it is a tool for comparing the output of
two versions, not a test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from guesschain import cli  # noqa: E402
from workloads import OUT_PLACEHOLDER, STRATEGIES, make_round  # noqa: E402

RECEIVERS = (1, 2, 3, 5, 8, 16)
OVERLAPS = ("0", "0.3", "0.7", "1")
PRIORS = ("0", "0.25", "0.5", "0.6", "0.9", "1")


def corpus() -> list[list[str]]:
    """Every argv of the corpus, in run order."""
    sweep = ["sweep", "--strategies", STRATEGIES, "--out", OUT_PLACEHOLDER]
    runs = []
    for n in (1, 2, 3, 8, 32, 200):
        receivers = ["--receivers", str(n)]
        runs += [
            sweep + receivers + ["--variable", "both", "--points", "81", "--prior-points", "81"],
            sweep + receivers + ["--variable", "prior", "--points", "101", "--overlap", "0.77"],
            sweep + receivers + ["--variable", "overlap", "--points", "101", "--prior", "0.5"],
            sweep + receivers + ["--variable", "overlap", "--points", "101", "--prior", "0.3"],
        ]
    runs.append(sweep + ["--receivers", "2", "--variable", "prior", "--points", "1"])
    runs.append(
        sweep + ["--receivers", "3", "--variable", "both", "--points", "7", "--prior-points", "101"]
    )
    runs += [
        sweep + ["--receivers", "2", "--variable", "prior", "--overlap", "1.5"],
        sweep + ["--receivers", "2", "--variable", "overlap", "--prior", "-0.1"],
        sweep + ["--receivers", "0", "--variable", "both", "--points", "3", "--prior-points", "3"],
        sweep + ["--receivers", "2", "--variable", "prior", "--overlap", "nan"],
        sweep + ["--receivers", "1", "--variable", "both", "--points", "2", "--prior-points", "2"],
        sweep + ["--receivers", "200", "--variable", "both", "--points", "2", "--prior-points", "2"],
        sweep + ["--receivers", "3", "--variable", "both", "--start", "0.3", "--stop", "0.3",
                 "--points", "4", "--prior-points", "5"],
        ["sweep", "--strategies", "BOUNDARY,JBG_OPTIMAL,BOUNDARY", "--out", OUT_PLACEHOLDER,
         "--receivers", "8", "--variable", "both", "--points", "9", "--prior-points", "7"],
    ]
    for seed in range(1, 21):
        runs += [list(op.argv) for op in make_round("surface-sweep", seed)]
    grid = [
        ["--strategy", strategy, "--overlap", s, "--prior", prior, "--receivers", str(n)]
        for strategy in STRATEGIES.split(",")
        for n in RECEIVERS
        for s in OVERLAPS
        for prior in PRIORS
    ]
    runs += [["optimize", *args] for args in grid]
    runs += [["optimize", *args, "--emit-stages"] for args in grid]
    runs += [["simulate", *args, "--trials", "70001", "--seed", "7"] for args in grid]
    runs += [["find-sb", "--receivers", str(n)] for n in range(2, 9)]
    return runs


def run(argv: list[str], out_path: Path) -> str:
    """Digest of one run's exit code, stdout, stderr and CSV."""
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(out_path) if a == OUT_PLACEHOLDER else a for a in argv])
        except Exception as exc:  # recorded as the run's outcome
            code = f"raised {type(exc).__name__}: {exc}"
    csv = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    err = stderr.getvalue().replace(str(out_path), OUT_PLACEHOLDER)
    payload = json.dumps([code, stdout.getvalue(), err, csv])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "sweep.csv"
        for argv in corpus():
            line = f"{run(argv, out_path)} {' '.join(argv)}\n"
            total.update(line.encode("utf-8"))
            sys.stdout.write(line)
    sys.stdout.write(f"total {total.hexdigest()}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
