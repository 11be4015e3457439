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
i*(N+1) .. i*(N+1)+N (one for the prepared state, one per stage). Trials are
walked in consecutive chunks of at most ``CHUNK_TRIALS`` whole trials, each
drawn from the same generator into one buffer allocated once per call;
consecutive Philox draws reproduce one large draw exactly, and only integer
counters cross chunk boundaries, so the report does not depend on the chunk
size, and peak memory is about one chunk's draws whatever the trial count.
Each chunk is tallied with boolean algebra on a contiguous copy of each
column: a trial is correct at stage k when it was sent state 1 and drew below
q1[k, 0], or was sent state 2 and drew at or above q1[k, 1]. Any parallel
split over trials must likewise assign whole trials by index, so results are
reproducible bit-for-bit and independent of worker count. Philox skips ahead
in O(1), but ``Philox.advance(m)`` moves its counter by m blocks of four
draws, so a split starting at draw d advances d // 4 and then discards d % 4
draws. The generator name is recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscriminationInstance
from .povm import MeasurementStage, make_state_pair

__all__ = [
    "CHUNK_TRIALS",
    "NumericalUnderflow",
    "PRNG_NAME",
    "SimConfig",
    "SimReport",
    "run_chain_simulation",
]

PRNG_NAME = "philox4x64"

# Trials walked per chunk: bounds the draw buffer and the boolean columns,
# whose size would otherwise grow with the trial count.
CHUNK_TRIALS = 1 << 14

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
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be an int >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")


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


def run_chain_simulation(
    inst: DiscriminationInstance,
    stages: list[MeasurementStage],
    cfg: SimConfig,
) -> SimReport:
    """Simulate the whole chain for cfg.trials seeded trials, CHUNK_TRIALS at a time."""
    if len(stages) != inst.n_receivers:
        raise ValueError(f"{len(stages)} stages for {inst.n_receivers} receivers")
    n = inst.n_receivers
    trials = cfg.trials

    # Walk the two prepared states through the detectors once: out[j] holds
    # B_j applied to the state prepared as i in row i, q[j] its squared norm.
    pair = make_state_pair(inst.overlap)
    current = np.stack([pair[0].vector, pair[1].vector])
    q1 = np.empty((n, 2))
    for k, stage in enumerate(stages):
        out = [current @ b.T for b in stage.detectors]
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

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    # Every chunk draws into this one buffer, so peak memory is one chunk.
    buffer = np.empty((min(CHUNK_TRIALS, trials), n + 1))
    # Each stage's column is copied here first: two compares on a
    # contiguous copy take less time than two on the strided column.
    column = np.empty(len(buffer))
    joint_successes = 0
    sent_counts = [0, 0]
    correct_counts = [[0, 0] for _ in stages]
    for start in range(0, trials, CHUNK_TRIALS):
        draws = rng.random(out=buffer[: min(CHUNK_TRIALS, trials - start)])
        sent_2 = draws[:, 0] >= inst.prior_1
        sent_1 = ~sent_2
        sent_counts[1] += int(np.count_nonzero(sent_2))
        all_correct = np.ones(len(draws), dtype=bool)
        col = column[: len(draws)]
        for k in range(n):
            # Outcome 1 (guess "state 1") when the draw falls below q1. A
            # guess is correct when it names the state sent, so c1 | c2
            # equals np.where(sent_2, col >= q1[k, 1], col < q1[k, 0]).
            np.copyto(col, draws[:, k + 1])
            c1 = col < q1[k, 0]
            c1 &= sent_1
            c2 = col >= q1[k, 1]
            c2 &= sent_2
            correct_counts[k][0] += int(np.count_nonzero(c1))
            correct_counts[k][1] += int(np.count_nonzero(c2))
            c1 |= c2
            all_correct &= c1
        joint_successes += int(np.count_nonzero(all_correct))
    sent_counts[0] = trials - sent_counts[1]

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
