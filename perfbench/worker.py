"""One workload in one fresh process: set up, run timed rounds, check outputs.

Started by ``run.py``; prints one JSON object with the run's raw figures as
the last line of its standard output. Phases:

1. set-up: import guesschain, generate the seeded round, run one untimed
   warm-up op per operation class. ``setup_s`` runs from the parent's clock
   reading just before this process was started to the first timed op.
2. timed phase: one client, one op at a time, each a ``guesschain.cli.main``
   call in-process. Whole rounds repeat until ``--seconds`` have passed.
   Outputs of the first round are kept; later rounds must reproduce them
   byte for byte.
3. checks (untimed): every first-round output against ``checks.py``, and the
   first op repeated once more.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from workloads import OUT_PLACEHOLDER, make_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Runner:
    """Executes the ops of one workload through ``guesschain.cli.main``."""

    def __init__(self, cli, csv_path: Path, tracer=None) -> None:
        self.cli = cli
        self.csv_path = str(csv_path)
        self.tracer = tracer

    def execute(self, op):
        """Run one op; returns (exit code, output, stderr, seconds, traced).

        The output is the op's stdout followed, for a sweep, by its CSV file.
        Only the ``cli.main`` call is timed. ``traced`` is (op ns, self ns by
        layer) when a tracer is installed, else None.
        """
        argv = [self.csv_path if a == OUT_PLACEHOLDER else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                start = time.perf_counter()
                code = self.cli.main(argv)
                seconds = time.perf_counter() - start
                traced = None
            else:
                code, nanos, selfs = self.tracer.run_op(self.cli.main, argv)
                seconds = nanos / 1e9
                traced = (nanos, selfs)
        text = out.getvalue()
        if op.kind == "sweep" and code == 0:
            with open(self.csv_path, encoding="utf-8", newline="") as handle:
                text += handle.read()
        return code, text, err.getvalue(), seconds, traced


def _digest(code: int, text: str) -> str:
    return hashlib.blake2b(f"{code}\n{text}".encode(), digest_size=16).hexdigest()


def _layer_metrics(tracer, per_op: list, bytes_out: int, import_ms: float, inputs_ms: float):
    """Per-layer figures of a traced run; times and counts are per op.

    ``per_op`` holds (op ns, self ns by layer) for every traced op.
    """
    ops = len(per_op)
    totals: dict[str, int] = defaultdict(int)
    for _, selfs in per_op:
        for layer, nanos in selfs.items():
            totals[layer] += nanos
    op_ms = [nanos / 1e6 for nanos, _ in per_op]

    def ms_per_op(layer: str) -> float:
        return totals[layer] / 1e6 / ops

    def p50_us(name: str) -> float:
        values = tracer.durations.get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    sim_nanos = sum(tracer.durations.get("simulate.run", []))
    return {
        "setup.import_ms": (import_ms, "ms"),
        "setup.inputs_ms": (inputs_ms, "ms"),
        "core.calls": (tracer.calls["core.strategy"] / ops, "count/op"),
        "core.ms": (ms_per_op("core"), "ms/op"),
        "optimize.solve_calls": (tracer.calls["optimize.solve"] / ops, "count/op"),
        "optimize.solve_ms": (ms_per_op("optimize.solve"), "ms/op"),
        "optimize.solve_us_p50": (p50_us("optimize.solve"), "us"),
        "optimize.find_sb_ms": (ms_per_op("optimize.find_sb"), "ms/op"),
        "povm.stage_calls": (tracer.calls["povm.stage"] / ops, "count/op"),
        "povm.chain_ms": (ms_per_op("povm.chain"), "ms/op"),
        "povm.validate_ms": (ms_per_op("povm.validate"), "ms/op"),
        "povm.stage_us_p50": (p50_us("povm.stage"), "us"),
        "povm.chains_failed": (tracer.chains_failed / ops, "count/op"),
        "simulate.trials": (tracer.sim_trials / ops, "count/op"),
        "simulate.ms": (ms_per_op("simulate"), "ms/op"),
        "simulate.ns_per_trial_stage": (
            sim_nanos / tracer.sim_trial_stages if tracer.sim_trial_stages else 0.0,
            "ns",
        ),
        "simulate.peak_alloc_mb": (tracer.sim_peak_alloc / 2**20, "MB"),
        "cli.self_ms": (ms_per_op("cli"), "ms/op"),
        "cli.bytes_out": (bytes_out / ops, "B/op"),
        "trace.op_ms": (statistics.fmean(op_ms), "ms/op"),
        "trace.op_p50_ms": (statistics.median(op_ms), "ms"),
    }


def _accounting_errors(per_op: list) -> list[str]:
    """Per op, the layer self times must add up to the traced op time."""
    for i, (nanos, selfs) in enumerate(per_op):
        if sum(selfs.values()) != nanos:
            return [f"op {i}: self times sum to {sum(selfs.values())} ns, op took {nanos} ns"]
    return []


def run(args) -> dict:
    t_import = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    from guesschain import cli  # noqa: E402  (imports numpy)

    import checks
    import spans

    t_inputs = time.monotonic()
    ops = make_round(args.workload, args.seed)
    t_warm = time.monotonic()

    args.runs_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.runs_dir) as tmp:
        tracer = spans.Tracer() if args.trace else None
        runner = Runner(cli, Path(tmp) / "sweep.csv")
        seen = set()
        for op in ops:
            if op.cls not in seen:
                seen.add(op.cls)
                runner.execute(op)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            return {"setup_s": setup_s}

        if tracer is not None:
            tracer.install()
            runner.tracer = tracer
        first: list[tuple] = []  # (code, text, stderr) of round 1
        digests: list[str] = []
        latencies: list[float] = []
        by_class: dict[str, list[float]] = defaultdict(list)
        round_seconds: list[float] = []
        per_op: list = []
        bytes_out = 0
        changed: list[str] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for i, op in enumerate(ops):
                code, text, stderr, seconds, traced = runner.execute(op)
                latencies.append(seconds)
                by_class[op.cls].append(seconds)
                digest = _digest(code, text)
                if not round_seconds:
                    first.append((code, text, stderr))
                    digests.append(digest)
                elif digest != digests[i]:
                    changed.append(f"op {i} ({op.cls}): output differs from round 1")
                if traced is not None:
                    per_op.append(traced)
                    bytes_out += len(text)
            round_seconds.append(time.perf_counter() - round_start)
            if tracer is not None:
                tracer.keep_spans = False  # raw spans of round 1 only
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            runner.tracer = None

        # ---------------------------------------------------------- checks
        errors = list(changed)
        failed_in_round = 0
        failures = []
        sb_values = {}
        for op, (code, text, stderr) in zip(ops, first):
            problems = [] if code else checks.CHECKS[op.kind](text, op.params)
            if code or problems:
                failed_in_round += 1
                failures.append({"argv": list(op.argv), "exit": code,
                                 "stderr": stderr.strip()[:300], "check": problems[:5]})
            if problems:
                errors += [f"{' '.join(op.argv)}: {p}" for p in problems[:5]]
            if op.kind == "find-sb" and not problems and not code:
                sb_values[op.params["receivers"]] = json.loads(text)["s_b"]
        if sb_values:
            errors += checks.check_sb_series(sb_values)
        code, text, _, _, _ = runner.execute(ops[0])
        if _digest(code, text) != digests[0]:
            errors.append("the first op repeated at the end gave different output")
        if tracer is not None:
            errors += _accounting_errors(per_op)

    rounds = len(round_seconds)
    result = {
        "numpy": sys.modules["numpy"].__version__,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not errors,
        "errors": errors[:20],
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": rounds * len(ops),
        "failed": rounds * failed_in_round + len(changed),
        "failures": failures,
        "setup_s": setup_s,
        "import_ms": 1e3 * (t_inputs - t_import),
        "inputs_ms": 1e3 * (t_warm - t_inputs),
        "timed_s": time.perf_counter() - start,
        # Every round is the same work; the slowest one is the most
        # reproducible figure on a host whose speed swings (see README).
        "ops_per_s": min(len(ops) / s for s in round_seconds),
        "ops_per_s_mean": rounds * len(ops) / sum(round_seconds),
        "round_s": round_seconds,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "classes": {
            cls: {"ops": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for cls, v in sorted(by_class.items())
        },
    }
    if tracer is not None:
        layers = _layer_metrics(
            tracer, per_op, bytes_out, result["import_ms"], result["inputs_ms"]
        )
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        trace_path = args.runs_dir / f"spans-{args.workload}-seed{args.seed}-{time.time_ns()}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            for name, begin, end, depth in tracer.spans:
                handle.write(json.dumps({"name": name, "start": begin, "end": end,
                                         "depth": depth}) + "\n")
        result["spans_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic()")
    parser.add_argument("--runs-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
