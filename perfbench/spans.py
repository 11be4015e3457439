"""In-memory spans around the public functions of each guesschain layer.

``Tracer.install`` replaces each function at the name its caller looks it up
under, so the program's own code runs unchanged:

    cli.optimize_reduced, optimize.optimize_reduced   -> optimize.solve
    cli.find_sb                                       -> optimize.find_sb
    cli.equal_prior_jbg / individual_greedy /
        boundary_solution                             -> core.strategy
    cli.build_chain                                   -> povm.chain
    povm.build_stage                                  -> povm.stage
    povm.MeasurementStage.validate                    -> povm.validate
    cli.run_chain_simulation                          -> simulate.run

The benchmark opens one root span, ``cli.op``, around each ``cli.main`` call.
A span's self time is its duration minus the durations of its direct
children, so the self times of one operation add up to its root span. Times
are integer nanoseconds from ``time.perf_counter_ns``, so that sum is exact.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict

# Span name -> layer whose self time it counts towards.
LAYER_OF = {
    "cli.op": "cli",
    "core.strategy": "core",
    "optimize.solve": "optimize.solve",
    "optimize.find_sb": "optimize.find_sb",
    "povm.chain": "povm.chain",
    "povm.stage": "povm.chain",
    "povm.validate": "povm.validate",
    "simulate.run": "simulate",
}
# Spans whose individual durations are kept for percentiles.
TIMED_CALLS = ("optimize.solve", "povm.stage", "simulate.run")


class Tracer:
    """Collects spans of one process; not thread-safe (the benchmark has one
    client and no threads)."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start_ns, children_ns]
        self._restore: list[tuple[object, str, object]] = []
        self.op_self: dict[str, int] = defaultdict(int)  # current op
        self.calls: Counter = Counter()
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.chains_failed = 0
        self.sim_trials = 0
        self.sim_trial_stages = 0
        self.sim_peak_alloc = 0
        self.keep_spans = True
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, depth

    # ------------------------------------------------------------ span stack
    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _exit(self, name: str) -> int:
        end = time.perf_counter_ns()
        opened, start, children = self._stack.pop()
        if opened != name:
            raise RuntimeError(f"span {name} closed while {opened} was open")
        duration = end - start
        self.op_self[LAYER_OF[name]] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        if name in TIMED_CALLS:
            self.durations[name].append(duration)
        if self.keep_spans:
            self.spans.append((name, start, end, len(self._stack)))
        return duration

    def run_op(self, fn, *args):
        """Run one operation under a root ``cli.op`` span.

        Returns (result, duration in ns, self times in ns by layer).
        """
        if self._stack:
            raise RuntimeError("operation started inside another span")
        self.op_self = defaultdict(int)
        self._enter("cli.op")
        try:
            result = fn(*args)
        finally:
            duration = self._exit("cli.op")
        return result, duration, dict(self.op_self)

    # -------------------------------------------------------------- wrappers
    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_chain(self, fn):
        def wrapper(*args, **kwargs):
            self._enter("povm.chain")
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.chains_failed += 1
                raise
            finally:
                self._exit("povm.chain")

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_simulation(self, fn):
        def wrapper(inst, stages, cfg):
            self._enter("simulate.run")
            tracemalloc.start()
            try:
                return fn(inst, stages, cfg)
            finally:
                self.sim_peak_alloc = max(self.sim_peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                self.sim_trials += cfg.trials
                self.sim_trial_stages += cfg.trials * len(stages)
                self._exit("simulate.run")

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from guesschain import cli, optimize, povm

        self._patch(cli, "optimize_reduced", self._wrap("optimize.solve", cli.optimize_reduced))
        self._patch(
            optimize, "optimize_reduced", self._wrap("optimize.solve", optimize.optimize_reduced)
        )
        self._patch(cli, "find_sb", self._wrap("optimize.find_sb", cli.find_sb))
        for attr in ("equal_prior_jbg", "individual_greedy", "boundary_solution"):
            self._patch(cli, attr, self._wrap("core.strategy", getattr(cli, attr)))
        self._patch(cli, "build_chain", self._wrap_chain(cli.build_chain))
        self._patch(povm, "build_stage", self._wrap("povm.stage", povm.build_stage))
        self._patch(
            povm.MeasurementStage,
            "validate",
            self._wrap("povm.validate", povm.MeasurementStage.validate),
        )
        self._patch(cli, "run_chain_simulation", self._wrap_simulation(cli.run_chain_simulation))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
