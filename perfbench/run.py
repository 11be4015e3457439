"""Benchmark of the guesschain CLI: four workloads, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload surface-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py              # every workload, untraced then traced

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end figures with ``--trace 0`` and the per-layer figures with
``--trace 1``. Each workload runs in its own fresh worker process
(``worker.py``) with BLAS/OpenMP pinned to one thread. For ``setup_s`` the
set-up is repeated in ``SETUPS_AROUND`` extra processes before the worker
and as many after it, and the median of all of them is reported. Every run
also writes a record with the machine, versions and settings under
``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "runs"
WORKLOADS = ("surface-sweep", "threshold-scan", "chain-build", "mc-verify")
SETUPS_AROUND = 2
# op_p50_ms and op_p90_ms are printed and recorded with every run but are
# not end-to-end metrics of BENCHMARK.json: see "Noise and bounds" in the
# README.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# A run must end within 180 s; leave room for the set-up repeats.
WORKER_TIMEOUT_S = 150


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--runs-dir", str(RUNS_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(), "platform": platform.platform()}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run of ``workload``.

    Returns the result object printed for ``--workload`` and the worker's
    full figures.
    """
    def extra_setups() -> list[float]:
        if trace:
            return []
        return [
            _spawn(workload, seed, seconds, trace, setup_only=True)["setup_s"]
            for _ in range(SETUPS_AROUND)
        ]

    # Set-ups before and after the timed run sample the host at different
    # times, so that their median does not hang on one stretch of its speed.
    setups = extra_setups()
    detail = _spawn(workload, seed, seconds, trace, setup_only=False)
    setups += [detail["setup_s"]] + extra_setups()
    if trace:
        metrics = detail["layers"]
    else:
        values = dict(detail, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "machine": _machine(),
        "versions": {"python": platform.python_version(), "numpy": detail["numpy"]},
        "threads": THREAD_ENV,
        "setups_s": setups,
        "metrics": metrics,
        "detail": detail,
    }
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    path = RUNS_DIR / f"run-{workload}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for error in detail["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        f"{workload} seed={seed} trace={trace}: {detail['attempted']} ops attempted, "
        f"{detail['failed']} failed, {detail['rounds']} rounds of {detail['ops_per_round']}; "
        f"op_p50_ms {detail['op_p50_ms']:.3f}, op_p90_ms {detail['op_p90_ms']:.3f} "
        f"over {detail['attempted']} ops; "
        f"record {path.relative_to(ROOT)}"
    )
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    return result, detail


def _print_table(workload: str, result: dict) -> None:
    print(f"  {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"    {name:<30} {metric['value']:>14.4f} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="guesschain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "guesschain" / "__init__.py").is_file():
        print(f"error: guesschain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload:
        result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for workload in WORKLOADS:
        plain, plain_detail = run_workload(workload, args.seed, args.seconds, 0)
        traced, traced_detail = run_workload(workload, args.seed, args.seconds, 1)
        _print_table(workload, plain)
        _print_table(workload, traced)
        print(
            "    tracing overhead, traced / untraced: "
            f"op_p50_ms {traced_detail['op_p50_ms'] / plain_detail['op_p50_ms']:.3f}, "
            f"mean op time {plain_detail['ops_per_s_mean'] / traced_detail['ops_per_s_mean']:.3f}"
        )
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
