"""Seeded Monte Carlo simulation of the full sender -> N-receiver protocol.

Each trial samples the prepared state from the priors, then walks the qubit
through every measurement stage: outcome probabilities come from the actual
detection operators (q_j = ||B_j |psi>||^2), the sampled outcome is the
receiver's guess, and the post-measurement state B_j|psi> / ||B_j|psi>|| is
handed to the next stage. A trial is a joint success when every guess matches
the prepared state. States evolve as pure 2-amplitude vectors, which is exact
for the pure-output stages built by ``povm.build_chain``.

Randomness contract: draws come from the counter-based Philox 4x64 generator
keyed by the seed, consumed in trial-major order -- trial i uses draws
i*(N+1) .. i*(N+1)+N (one for the prepared state, one per stage). Trials are
walked in consecutive chunks of at most ``CHUNK_TRIALS`` whole trials, each
drawing its rows from the same generator; consecutive Philox draws reproduce
one large draw exactly, and only integer counters cross chunk boundaries, so
the report does not depend on the chunk size and peak memory does not depend
on the trial count. Any parallel split over trials must likewise assign whole
trials by index (Philox supports O(1) skipping), so results are reproducible
bit-for-bit and independent of worker count. The generator name is recorded in
the report.
"""

from __future__ import annotations

import logging
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
    "verify_posterior_purity",
]

logger = logging.getLogger(__name__)

PRNG_NAME = "philox4x64"

# Trials walked per chunk: bounds the draw matrix and the state arrays, whose
# size would otherwise grow with the trial count.
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
    in binomial standard errors (0 when the standard error vanishes and the
    prediction matches exactly, +/-inf otherwise).
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

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    pair = make_state_pair(inst.overlap)
    basis = np.stack([pair[0].vector, pair[1].vector])

    joint_successes = 0
    sent_counts = [0, 0]
    correct_counts = [[0, 0] for _ in stages]
    for start in range(0, trials, CHUNK_TRIALS):
        size = min(CHUNK_TRIALS, trials - start)
        draws = rng.random((size, n + 1))
        sent_2 = draws[:, 0] >= inst.prior_1
        sent = sent_2.astype(np.int8)  # 0 -> state 1, 1 -> state 2
        sent_counts[1] += int(np.count_nonzero(sent_2))
        current = basis[sent]

        all_correct = np.ones(size, dtype=bool)
        for k, stage in enumerate(stages):
            b1, b2 = stage.detectors
            out1 = current @ b1.T
            out2 = current @ b2.T
            q1 = np.einsum("ij,ij->i", out1, out1)
            q2 = np.einsum("ij,ij->i", out2, out2)
            if float(q1.min()) < UNDERFLOW_SLACK or float(q2.min()) < UNDERFLOW_SLACK:
                raise NumericalUnderflow(
                    f"stage {k + 1}: negative outcome probability beyond slack"
                )
            drift = float(np.max(np.abs(q1 + q2 - 1.0)))
            if drift > COMPLETENESS_ATOL:
                raise NumericalUnderflow(
                    f"stage {k + 1}: outcome probabilities sum to 1 +/- {drift:.3e}"
                )
            q1 = np.clip(q1, 0.0, 1.0)
            q2 = np.clip(q2, 0.0, 1.0)
            guess = (draws[:, k + 1] >= q1).astype(np.int8)
            correct = guess == sent
            all_correct &= correct
            correct_2 = int(np.count_nonzero(correct & sent_2))
            correct_counts[k][0] += int(np.count_nonzero(correct)) - correct_2
            correct_counts[k][1] += correct_2
            # The sampled branch always has nonzero probability: outcome 1 needs
            # a draw >= q1, impossible when q1 = 1 since draws lie in [0, 1).
            norm = np.sqrt(np.where(guess == 0, q1, q2))
            chosen = np.where((guess == 0)[:, None], out1, out2)
            current = chosen / norm[:, None]
        joint_successes += int(np.count_nonzero(all_correct))
    sent_counts[0] = trials - sent_counts[1]

    empirical = joint_successes / trials
    std_error = math.sqrt(empirical * (1.0 - empirical) / trials)
    prod1 = math.prod(stage.success.p1 for stage in stages)
    prod2 = math.prod(stage.success.p2 for stage in stages)
    predicted = inst.prior_1 * prod1 + inst.prior_2 * prod2
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
        z_score=_z_score(empirical, predicted, std_error),
        per_state_counts=tuple(sent_counts),
        per_receiver_success=per_receiver,
        prng=PRNG_NAME,
        seed=cfg.seed,
    )


def verify_posterior_purity(stages: list[MeasurementStage]) -> bool:
    """Check that every non-final stage emits its declared pure output.

    Walks both prepared states through the chain and, at every non-final
    stage, checks both measurement outcomes: whenever an outcome can occur,
    the normalized post-measurement state must match the stage's declared
    output for the incoming state index with fidelity >= 1 - 1e-9. The walk
    enumerates every reachable branch, a superset of what any sampled run
    would visit.

    Returns False (with logged diagnostics) on the first offending stage.
    """
    if not stages:
        return True
    ok = True
    pair = make_state_pair(stages[0].in_overlap)
    for sent_index, state in enumerate(pair):
        current = state.vector
        for k, stage in enumerate(stages[:-1]):
            expected = stage.outputs[sent_index].vector
            successor = None
            for branch, detector in enumerate(stage.detectors):
                out = detector @ current
                weight = float(np.dot(out, out))
                if weight < 1e-14:
                    continue  # outcome never occurs for this input
                out = out / math.sqrt(weight)
                fidelity = float(np.dot(expected, out) ** 2)
                if fidelity < 1.0 - 1e-9:
                    logger.warning(
                        "stage %d, input state %d, outcome %d: post-measurement "
                        "fidelity %.12f against declared output",
                        k + 1,
                        sent_index + 1,
                        branch + 1,
                        fidelity,
                    )
                    ok = False
                successor = out
            if successor is None:
                logger.warning(
                    "stage %d, input state %d: no outcome has nonzero probability",
                    k + 1,
                    sent_index + 1,
                )
                return False
            current = successor
    return ok
