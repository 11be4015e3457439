"""Seeded Monte Carlo simulation of the full sender -> N-receiver protocol.

Each trial samples the prepared state from the priors, then one outcome per
measurement stage, the receiver's guess; a trial is a joint success when
every guess matches the prepared state. The stages built by
``povm.build_chain`` send prepared state i to output state i whichever
outcome occurs, so only two states ever reach a stage. Outcome probabilities
q_j = ||B_j |psi>||^2 therefore come from one walk of the two prepared states
through the detectors, before any trial, into a table q1[k, i] (stage k,
prepared state i) that each trial's draws are compared with; a per-trial
state walk computes the same values up to rounding in their last bits. The
walk checks this: a non-final stage whose two outcomes leave an input in
states of fidelity below 1 - 1e-9 raises ValueError, and probabilities that
are not finite, are negative or do not sum to 1 raise NumericalUnderflow.

Randomness contract: draws come from the counter-based Philox 4x64 generator
keyed by the seed, consumed in trial-major order -- trial i uses draws
i*(N+1) .. i*(N+1)+N (one for the prepared state, one per stage). The trials
are split into W contiguous spans of whole trials, W being the smallest of
the CPUs available to the process, the number of ``CHUNK_TRIALS`` chunks in
the run and ``MAX_WORKERS`` (2, the only split measured to gain; see there).
Each span is tallied on its own thread (the first on the calling thread, so
W = 1 starts none) by its own Philox generator keyed by the seed.
``Philox.advance(m)`` moves the counter by m blocks of four draws, so a span
starting at draw d advances d // 4 and then discards d % 4 draws, which
reproduces the one serial stream exactly. A span walks its trials in pieces
of at most ceil(CHUNK_TRIALS / W) whole trials, each drawn into the span's
one buffer, so the threads together hold about one chunk of draws whatever
the trial count. Each piece is tallied with boolean algebra on a
contiguous copy of each column: a trial is correct at stage k when it was
sent state 1 and drew below q1[k, 0], or was sent state 2 and drew at or
above q1[k, 1]. Only integer counters cross piece and span boundaries, and
they are summed in span order after the threads join, so the report is the
same bit for bit whatever the chunk size and W. A span that fails, or an
interrupt on the calling thread, stops every other span before its next
piece, and the first failure in span order is raised in the caller once the
threads have ended. The generator name is recorded in the report.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import DiscriminationInstance
from .povm import MeasurementStage, make_state_pair

__all__ = [
    "CHUNK_TRIALS",
    "MAX_WORKERS",
    "NumericalUnderflow",
    "PRNG_NAME",
    "SimConfig",
    "SimReport",
    "run_chain_simulation",
]

PRNG_NAME = "philox4x64"

# Trials walked per chunk by all threads together: bounds the draw buffers
# and the boolean columns, whose size would otherwise grow with the trial
# count.
CHUNK_TRIALS = 1 << 14
# Most threads a run splits over. W threads walk pieces of CHUNK_TRIALS / W
# trials, and each piece costs ~80 numpy calls of interpreter work, under
# the GIL, whatever its size. Timed on a 2-core Xeon with 1e6 trials at
# N = 2 and 8: on one thread, pieces of 4,096 trials took 21-26% more CPU
# time than pieces of 16,384; forcing W = 4 made a run 1.3-1.4 times slower
# than W = 2 and W = 32 made it 17-18 times slower. W = 2 is the only split
# measured to gain, and no host with more cores has been timed.
MAX_WORKERS = 2

# Squared norms more negative than this indicate a broken stage, not roundoff.
UNDERFLOW_SLACK = -1e-12
# Propagated completeness: per-step outcome probabilities must sum to 1.
COMPLETENESS_ATOL = 1e-10


class NumericalUnderflow(RuntimeError):
    """Outcome probabilities lost coherence with the stage operators."""


@dataclass(frozen=True)
class SimConfig:
    """Trial count and seed."""

    seed: int
    trials: int = 1_000_000

    def __post_init__(self) -> None:
        # bool is an int subclass, but True is no trial count or seed
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ValueError(f"trials must be an int >= 1, got {self.trials!r}")
        # Philox takes keys below 2**128
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be an int in [0, 2**128), got {self.seed!r}")


@dataclass(frozen=True)
class SimReport:
    """Empirical chain statistics against the strategy's prediction.

    ``per_receiver_success`` holds, for each receiver, the empirical
    conditional success rates (given state 1 sent, given state 2 sent); NaN
    when a state was never sampled. ``z_score`` is the joint-success deviation
    in binomial standard errors of the empirical rate. When no trial
    succeeded it uses the predicted rate's standard error instead. When the
    standard error still vanishes it is 0 if the prediction matches exactly,
    and +/-inf otherwise.
    """

    trials: int
    joint_successes: int
    empirical_joint: float
    std_error: float
    predicted_joint: float
    z_score: float
    per_state_counts: tuple[int, int]
    per_receiver_success: tuple[tuple[float, float], ...]
    prng: str
    seed: int


def _z_score(empirical: float, predicted: float, std_error: float) -> float:
    if std_error > 0.0:
        return (empirical - predicted) / std_error
    if empirical == predicted:
        return 0.0
    return math.copysign(math.inf, empirical - predicted)


def _available_cpus() -> int:
    """CPUs this process may run on; tests patch it to force a worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _generator_at(seed: int, draw: int) -> np.random.Generator:
    """The seed's Philox stream, positioned so that its next draw is ``draw``."""
    bit_generator = np.random.Philox(key=seed)
    # advance() moves the counter by blocks of four draws.
    bit_generator.advance(draw // 4)
    rng = np.random.Generator(bit_generator)
    rng.random(draw % 4)
    return rng


def _tally_span(
    rng: np.random.Generator,
    prior_1: float,
    q1: np.ndarray,
    count: int,
    buffer: np.ndarray,
    column: np.ndarray,
    flags: np.ndarray,
    stop: threading.Event,
) -> tuple[int, int, list[list[int]]]:
    """Tally the next ``count`` trials of ``rng``, len(buffer) trials at a time.

    ``buffer`` (trials x N + 1 draws), ``column`` and the five rows of
    ``flags`` (bool) are the span's workspace. Returns the joint successes,
    the trials sent state 2 and, per stage, the correct guesses given state 1
    and given state 2 sent. Once ``stop`` is set, the span ends before its
    next piece and its counts are partial.
    """
    n = len(q1)
    chunk = len(buffer)
    sent_1, sent_2, c1, c2, all_correct = flags
    joint_successes = 0
    sent_2_count = 0
    correct_counts = [[0, 0] for _ in range(n)]
    for start in range(0, count, chunk):
        if stop.is_set():
            break
        m = min(chunk, count - start)
        draws = rng.random(out=buffer[:m])
        s2 = np.greater_equal(draws[:, 0], prior_1, out=sent_2[:m])
        s1 = np.logical_not(s2, out=sent_1[:m])
        sent_2_count += int(np.count_nonzero(s2))
        col, ok1, ok2, ok = column[:m], c1[:m], c2[:m], all_correct[:m]
        ok.fill(True)
        for k in range(n):
            # Outcome 1 (guess "state 1") when the draw falls below q1. A
            # guess is correct when it names the state sent, so ok1 | ok2
            # equals np.where(s2, col >= q1[k, 1], col < q1[k, 0]).
            np.copyto(col, draws[:, k + 1])
            np.less(col, q1[k, 0], out=ok1)
            ok1 &= s1
            np.greater_equal(col, q1[k, 1], out=ok2)
            ok2 &= s2
            correct_counts[k][0] += int(np.count_nonzero(ok1))
            correct_counts[k][1] += int(np.count_nonzero(ok2))
            ok1 |= ok2
            ok &= ok1
        joint_successes += int(np.count_nonzero(ok))
    return joint_successes, sent_2_count, correct_counts


def run_chain_simulation(
    inst: DiscriminationInstance,
    stages: list[MeasurementStage],
    cfg: SimConfig,
) -> SimReport:
    """Simulate the whole chain for cfg.trials seeded trials, split over the CPUs."""
    if len(stages) != inst.n_receivers:
        raise ValueError(f"{len(stages)} stages for {inst.n_receivers} receivers")
    n = inst.n_receivers
    trials = cfg.trials

    # Walk the two prepared states through the detectors once: out[j] holds
    # B_j applied to the state prepared as i in row i, q[j] its squared norm.
    pair = make_state_pair(inst.overlap)
    current = np.array([pair[0].amplitudes, pair[1].amplitudes])
    q1 = np.empty((n, 2))
    for k, stage in enumerate(stages):
        out = [current @ np.array(b).T for b in stage.detectors]
        q = [np.einsum("ij,ij->i", o, o) for o in out]
        # Written so that NaN fails each test, not passes it.
        if not (np.isfinite(q[0]).all() and np.isfinite(q[1]).all()):
            raise NumericalUnderflow(f"stage {k + 1}: outcome probability is not finite")
        if not min(q[0].min(), q[1].min()) >= UNDERFLOW_SLACK:
            raise NumericalUnderflow(f"stage {k + 1}: negative outcome probability beyond slack")
        drift = float(np.max(np.abs(q[0] + q[1] - 1.0)))
        if not drift <= COMPLETENESS_ATOL:
            raise NumericalUnderflow(f"stage {k + 1}: outcome probabilities sum to 1 +/- {drift:.3e}")
        q1[k] = np.clip(q[0], 0.0, 1.0)
        for i in range(2):
            if k + 1 < n and min(q[0][i], q[1][i]) > 1e-14:
                fidelity = float(np.dot(out[0][i], out[1][i]) ** 2 / (q[0][i] * q[1][i]))
                if fidelity < 1.0 - 1e-9:
                    raise ValueError(
                        f"stage {k + 1}: the output for input state {i + 1} depends "
                        f"on the outcome (fidelity {fidelity:.12f} between the two)"
                    )
        # Each state moves on along its more probable outcome, normalized.
        follow = q[0] >= q[1]
        norm = np.sqrt(np.clip(np.where(follow, q[0], q[1]), 0.0, 1.0))
        current = np.where(follow[:, None], out[0], out[1]) / norm[:, None]

    chunks = -(-trials // CHUNK_TRIALS)
    workers = min(_available_cpus(), chunks, MAX_WORKERS)
    bounds = [trials * i // workers for i in range(workers + 1)]
    # Each span's generator and workspace are made here, on the calling
    # thread: the first generator imports numpy.random, and memory that a
    # span's thread allocated would stay in a malloc arena of that thread.
    rngs = [_generator_at(cfg.seed, first * (n + 1)) for first in bounds[:-1]]
    size = min(-(-CHUNK_TRIALS // workers), -(-trials // workers))
    buffers = np.empty((workers, size, n + 1))
    # Each stage's draws are copied to a span's column first: two compares on
    # a contiguous copy take less time than two on the strided column.
    columns = np.empty((workers, size))
    flags = np.empty((workers, 5, size), dtype=bool)
    tallies: list = [None] * workers
    errors: list = [None] * workers
    stop = threading.Event()

    def span(i: int) -> None:
        tallies[i] = _tally_span(
            rngs[i], inst.prior_1, q1, bounds[i + 1] - bounds[i],
            buffers[i], columns[i], flags[i], stop,
        )

    def work(i: int) -> None:
        try:
            span(i)
        except BaseException as exc:  # raised again in the caller after the join
            errors[i] = exc
            stop.set()

    threads = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=work, args=(i,), name=f"guesschain-span-{i}")
            thread.start()
            threads.append(thread)
        span(0)
        for thread in threads:
            thread.join()
    except BaseException:
        # An error or an interrupt on the calling thread, in its span or in a
        # join, stops every other span before its next piece.
        stop.set()
        for thread in threads:
            thread.join()
        raise
    for error in errors:
        if error is not None:
            raise error
    joint_successes = sum(tally[0] for tally in tallies)
    sent_2 = sum(tally[1] for tally in tallies)
    sent_counts = [trials - sent_2, sent_2]
    correct_counts = [
        [sum(tally[2][k][i] for tally in tallies) for i in range(2)] for k in range(n)
    ]

    empirical = joint_successes / trials
    std_error = math.sqrt(empirical * (1.0 - empirical) / trials)
    prod1 = math.prod(stage.success.p1 for stage in stages)
    prod2 = math.prod(stage.success.p2 for stage in stages)
    predicted = inst.prior_1 * prod1 + inst.prior_2 * prod2
    score_error = std_error
    if joint_successes == 0 and 0.0 < predicted < 1.0:
        # No trial succeeded, so the empirical rate has no spread.
        score_error = math.sqrt(predicted * (1.0 - predicted) / trials)
    # Integer ratios: bit-equal to the mean of the bool arrays they count.
    per_receiver = tuple(
        tuple(c / sent_counts[i] if sent_counts[i] else math.nan for i, c in enumerate(row))
        for row in correct_counts
    )
    return SimReport(
        trials=trials,
        joint_successes=joint_successes,
        empirical_joint=empirical,
        std_error=std_error,
        predicted_joint=predicted,
        z_score=_z_score(empirical, predicted, score_error),
        per_state_counts=tuple(sent_counts),
        per_receiver_success=per_receiver,
        prng=PRNG_NAME,
        seed=cfg.seed,
    )
