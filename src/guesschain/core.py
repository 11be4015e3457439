"""Closed-form quantities for sequential two-state qubit guessing chains.

Setting
-------
A sender prepares one of two pure qubit states (real overlap ``s`` in [0, 1],
prior probabilities ``eta1``, ``eta2``) and passes the qubit through a chain of
``N`` receivers. Every receiver measures, announces a guess for the prepared
state, and forwards a pure post-measurement state to the next receiver. The
chain succeeds jointly when *all* guesses are correct.

A receiver that guesses correctly with conditional probabilities ``(p1, p2)``
(given state 1 / state 2 was prepared) and receives a state pair of overlap
``t_in`` can leave at most an output pair of overlap ``t_out`` constrained by

    t_in / t_out = sqrt(p1 (1 - p2)) + sqrt(p2 (1 - p1))        (*)

The right-hand side is the *distinguishability cost* of the pair ``(p1, p2)``:
it is 0 when the receiver is perfect and 1 when the receiver learns nothing.
Chaining (*) across N receivers shows that in the optimal joint strategy every
receiver faces the same effective overlap ``s**(1/N)`` and uses the same
``(p1, p2)``, so the joint success probability reduces to

    P = eta1 * p1**N + eta2 * p2**N   subject to   (*) with budget s**(1/N).

A ``StrategyResult`` is that reduction: one pair and its joint, with the
chain length taken from the instance. This module holds the problem/result
containers and all closed-form pieces of that reduced problem: the
constraint, its solution branch p2(p1), the interior stationarity residual,
the equal-prior symmetric solution, the per-receiver greedy (Helstrom)
strategy, and the pinned boundary strategies. Everything is a pure function
of its arguments (thread-safe by statelessness) in float64.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "DOMAIN_SLACK",
    "DiscriminationInstance",
    "MAX_RECEIVERS",
    "Strategy",
    "StrategyResult",
    "SuccessPair",
    "boundary_solution",
    "distinguishability",
    "equal_prior_jbg",
    "helstrom_bound",
    "helstrom_success_pair",
    "individual_greedy",
    "overlap_ladder",
    "p2_from_p1",
    "stationarity_residual",
    "theta_residual",
]

# Tolerated excursion outside [0, 1] before an argument is treated as a caller
# bug rather than roundoff.
DOMAIN_SLACK = 1e-12

# Longest chain an instance admits (see DiscriminationInstance).
MAX_RECEIVERS = 1_000


def _check_unit_interval(name: str, value: float) -> float:
    """Validate a probability-like argument, forgiving <= 1e-12 roundoff."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < -DOMAIN_SLACK or value > 1.0 + DOMAIN_SLACK:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return min(max(value, 0.0), 1.0)


class Strategy(enum.Enum):
    """Label for how a chain strategy was produced."""

    JBG_OPTIMAL = "JBG_OPTIMAL"
    JBG_SYMMETRIC_ANALYTIC = "JBG_SYMMETRIC_ANALYTIC"
    INDIVIDUAL_GREEDY = "INDIVIDUAL_GREEDY"
    BOUNDARY = "BOUNDARY"


class SuccessPair(NamedTuple):
    """A receiver's conditional success probabilities (given state 1 / 2)."""

    p1: float
    p2: float


@dataclass(frozen=True)
class DiscriminationInstance:
    """One discrimination problem: overlap, prior of state 1, and chain length.

    The prior of state 2 is derived: ``prior_2`` is ``1 - prior_1``. A chain
    has 1 to ``MAX_RECEIVERS`` = 1,000 receivers. The bound must stay at most
    2,000: a simulation's draw buffer takes about CHUNK_TRIALS * (N + 1) * 8 B
    (131 MB at N = 1,000), and the sweep's 1e-12 near-set window covers a
    +-2-ulp libm spread of cos and sin only up to N ~ 2,000.
    """

    overlap: float
    prior_1: float
    n_receivers: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.overlap) and 0.0 <= self.overlap <= 1.0):
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap!r}")
        if not (math.isfinite(self.prior_1) and 0.0 <= self.prior_1 <= 1.0):
            raise ValueError(f"prior_1 must lie in [0, 1], got {self.prior_1!r}")
        if not isinstance(self.n_receivers, int) or isinstance(self.n_receivers, bool):
            raise ValueError(f"n_receivers must be an int, got {self.n_receivers!r}")
        if self.n_receivers < 1:
            raise ValueError(f"n_receivers must be >= 1, got {self.n_receivers}")
        if self.n_receivers > MAX_RECEIVERS:
            raise ValueError(
                f"n_receivers must be <= MAX_RECEIVERS = {MAX_RECEIVERS}, got {self.n_receivers}"
            )

    @property
    def prior_2(self) -> float:
        """Prior probability of state 2, ``1 - prior_1``."""
        return 1.0 - self.prior_1

    @property
    def effective_overlap(self) -> float:
        """Per-receiver overlap budget s**(1/N) of the reduced problem."""
        return self.overlap ** (1.0 / self.n_receivers)


@dataclass(frozen=True)
class StrategyResult:
    """A complete chain strategy.

    pair
        The SuccessPair every receiver uses (the chain reduction). Receiver
        k of the instance's N faces the arriving-pair overlap
        ``overlap_ladder(s, N)[k]`` of its overlap s.
    joint_success
        eta1 * p1**N + eta2 * p2**N, to rounding, for the instance it was
        built for.
    """

    pair: SuccessPair
    joint_success: float
    strategy: Strategy


def distinguishability(p1: float, p2: float) -> float:
    """Distinguishability cost sqrt(p1(1-p2)) + sqrt(p2(1-p1)) of a pair.

    Equals the ratio t_in/t_out a receiver with conditional success
    probabilities (p1, p2) imposes between its incoming and outgoing pair
    overlaps. Symmetric in its arguments and bounded by [0, 1].
    """
    p1 = _check_unit_interval("p1", p1)
    p2 = _check_unit_interval("p2", p2)
    value = math.sqrt(p1 * (1.0 - p2)) + math.sqrt(p2 * (1.0 - p1))
    return min(value, 1.0)


def p2_from_p1(p1: float, s_eff: float) -> float:
    """Largest p2 compatible with p1 under a per-receiver budget ``s_eff``.

    Writing p1 = cos^2(theta1) and s_eff = sin(phi), the constraint has two
    algebraic branches, p2 = cos^2(phi -/+ theta1); this returns the larger
    one,

        p2 = (s_eff * sqrt(1 - p1) + sqrt(p1) * sqrt(1 - s_eff**2))**2,

    which is the branch an optimizer should use. For p1 >= 1 - s_eff**2 the
    returned pair saturates distinguishability(p1, p2) = s_eff; below that the
    plus branch realizes the budget through the opposite relative sign of the
    two square roots.
    """
    p1 = _check_unit_interval("p1", p1)
    s_eff = _check_unit_interval("s_eff", s_eff)
    root = s_eff * math.sqrt(1.0 - p1) + math.sqrt(p1 * (1.0 - s_eff * s_eff))
    return min(root * root, 1.0)


def theta_residual(theta: float, phi: float, eta1: float, eta2: float, n: int) -> float:
    """-g'(theta)/(2N) for g = eta1 cos^2N(theta) + eta2 cos^2N(phi - theta), sin(phi) = s_eff;
    a sign change from - to + brackets a local maximum of g."""
    c1, s1 = math.cos(theta), math.sin(theta)
    c2, s2 = math.cos(phi - theta), math.sin(phi - theta)
    return eta1 * c1 ** (2 * n - 1) * s1 - eta2 * c2 ** (2 * n - 1) * s2


def stationarity_residual(p1: float, inst: DiscriminationInstance) -> float:
    """Interior stationarity residual of the reduced joint objective.

    ``theta_residual`` at theta1 = arccos(sqrt(p1)), the residual the reduced
    solver bisects: zero exactly at interior stationary points of
    eta1 * p1**N + eta2 * p2(p1)**N, and equal to -g'(theta1) / (2N) in the
    parametrization that stays differentiable at p1 in {0, 1}. Only defined on
    the open interval 0 < p1 < 1.
    """
    if not (0.0 < p1 < 1.0):
        raise ValueError(f"p1 must lie strictly inside (0, 1), got {p1!r}")
    theta = math.atan2(math.sqrt(1.0 - p1), math.sqrt(p1))
    phi = math.asin(inst.effective_overlap)
    return theta_residual(theta, phi, inst.prior_1, inst.prior_2, inst.n_receivers)


def overlap_ladder(s: float, n: int) -> tuple[float, ...]:
    """Arriving-pair overlaps (s, s**((N-1)/N), ..., s**(1/N)) along a chain
    in which every receiver spends the same budget s**(1/N)."""
    return tuple(s ** ((n - k) / n) for k in range(n))


def _symmetric_p(s: float, n: int) -> float:
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - s ** (2.0 / n))))


def _symmetric_terms(s: float, n: int) -> tuple[float, float]:
    """The symmetric p and the product of the N stage probabilities, taken
    in chain order."""
    p = _symmetric_p(s, n)
    return p, math.prod(itertools.repeat(p, n))


def equal_prior_jbg(inst: DiscriminationInstance) -> StrategyResult:
    """Symmetric equal-prior solution p1 = p2 = (1 + sqrt(1 - s**(2/N))) / 2.

    Satisfies the interior stationarity conditions for equal priors at every
    overlap, and is the global optimum below a chain-length-dependent overlap
    threshold (see ``optimize.find_sb``); above it, the interior optimum
    becomes asymmetric and this formula is only a local maximum. The result
    is computed unconditionally, at any priors, and labeled
    JBG_SYMMETRIC_ANALYTIC; its joint weights the product of the N stage
    probabilities, taken in chain order, by the instance's priors.
    """
    p, product = _symmetric_terms(inst.overlap, inst.n_receivers)
    joint = inst.prior_1 * product + inst.prior_2 * product
    return StrategyResult(SuccessPair(p, p), joint, Strategy.JBG_SYMMETRIC_ANALYTIC)


def helstrom_bound(overlap: float, eta1: float, eta2: float) -> float:
    """Optimal single-shot average success (1 + sqrt(1 - 4 eta1 eta2 s^2))/2."""
    overlap = _check_unit_interval("overlap", overlap)
    disc = max(0.0, 1.0 - 4.0 * eta1 * eta2 * overlap * overlap)
    return 0.5 * (1.0 + math.sqrt(disc))


def helstrom_success_pair(overlap: float, eta1: float, eta2: float) -> SuccessPair:
    """Conditional success probabilities of the optimal single-shot measurement.

        p_i = (1 + (1 - 2 eta_j s^2) / sqrt(1 - 4 eta1 eta2 s^2)) / 2

    The pair saturates distinguishability(p1, p2) = overlap and averages to
    ``helstrom_bound``. At overlap = 1 the measurement is pure guessing,
    returned exactly: the likelier state always, or p1 = p2 = 1/2 on a tie.
    """
    overlap = _check_unit_interval("overlap", overlap)
    if overlap == 1.0:
        if eta1 == eta2:
            return SuccessPair(0.5, 0.5)
        return SuccessPair(1.0, 0.0) if eta1 > eta2 else SuccessPair(0.0, 1.0)
    s2 = overlap * overlap
    root = math.sqrt(1.0 - 4.0 * eta1 * eta2 * s2)
    p1 = 0.5 * (1.0 + (1.0 - 2.0 * eta2 * s2) / root)
    p2 = 0.5 * (1.0 + (1.0 - 2.0 * eta1 * s2) / root)
    return SuccessPair(min(max(p1, 0.0), 1.0), min(max(p2, 0.0), 1.0))


def individual_greedy(inst: DiscriminationInstance) -> StrategyResult:
    """Chain in which every receiver maximizes its own average success.

    Each receiver applies the optimal single-shot measurement for the true
    priors at the per-receiver budget s**(1/N). This maximizes every
    receiver's individual average success but is generally suboptimal for the
    probability that all receivers succeed simultaneously.
    """
    p1, p2 = helstrom_success_pair(inst.effective_overlap, inst.prior_1, inst.prior_2)
    n = inst.n_receivers
    joint = inst.prior_1 * p1**n + inst.prior_2 * p2**n
    return StrategyResult(SuccessPair(p1, p2), joint, Strategy.INDIVIDUAL_GREEDY)


def _boundary_terms(s: float, n: int) -> tuple[float, float]:
    """The pinned probability q = 1 - s**(2/N) and q**N."""
    q = 1.0 - s ** (2.0 / n)
    return q, q**n


def boundary_solution(inst: DiscriminationInstance) -> StrategyResult:
    """Better of the two pinned strategies p2 = 1 or p1 = 1 at every stage.

    Pinning p2 = 1 forces p1 = q = 1 - s**(2/N) through the constraint (and
    mirrored for p1 = 1), giving joint successes eta1 * q**N + eta2 and
    eta1 + eta2 * q**N. Ties (equal priors) resolve to the p2 = 1 branch.
    """
    q, q_n = _boundary_terms(inst.overlap, inst.n_receivers)
    joint_pin2 = inst.prior_1 * q_n + inst.prior_2
    joint_pin1 = inst.prior_1 + inst.prior_2 * q_n
    if joint_pin1 > joint_pin2:
        return StrategyResult(SuccessPair(1.0, q), joint_pin1, Strategy.BOUNDARY)
    return StrategyResult(SuccessPair(q, 1.0), joint_pin2, Strategy.BOUNDARY)
