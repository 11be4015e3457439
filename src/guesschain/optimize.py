"""Global optimization of chain strategies, plus independent brute-force oracles.

The interior problem is one-dimensional after the chain reduction: maximize

    g(theta1) = eta1 * cos(theta1)**(2N) + eta2 * cos(phi - theta1)**(2N)

over theta1 in [0, pi/2], where phi = arcsin(s**(1/N)), p1 = cos^2(theta1) and
p2 = cos^2(phi - theta1). Working in theta1 rather than p1 keeps the
derivative finite at p1 in {0, 1}, so interior maxima are ordinary roots of
the stationarity residual (core.theta_residual == -g'/(2N)). Both terms fall
on (phi, pi/2], and once eta1 >= eta2 (the order ``optimize_reduced`` uses)

    g(theta1) - g(phi - theta1) = (eta1 - eta2) * (cos^2N(theta1) - cos^2N(phi - theta1))

is >= 0 for theta1 <= phi/2, so the maximum lies in the likelier state's half
[0, phi/2].

There g has exactly one maximum. Take eta1 >= eta2 > 0 and 0 < phi < pi/2.
The residual

    r(theta) = eta1 cos^(2N-1)(theta) sin(theta) - eta2 cos^(2N-1)(phi - theta) sin(phi - theta)

has the sign of H(theta) + ln(eta1/eta2), where H(theta) = h(theta) -
h(phi - theta) and h(x) = (2N - 1) ln cos x + ln sin x. H'(theta) has the sign
of 2N cos(phi) - (2N - 2) cos(phi - 2 theta). On [0, phi/2] that expression
is 2 cos(phi) > 0 at theta = 0, strictly decreases for N >= 2 and is constant
at N = 1. So H either rises all the way or rises and then falls, and either
way it runs from -inf at theta = 0 to H(phi/2) = 0. Hence H + ln(eta1/eta2)
changes sign exactly once on (0, phi/2], from - to +, and that crossing is
the unique maximum of g there. No scan is needed: ``optimize_reduced``
bisects r on [0, phi/2] a fixed number of times. The cases eta2 = 0 (r >= 0,
the bisection runs to theta = 0) and phi = 0 (an empty interval) need no
branch of their own. At equal priors the crossing is phi/2 itself exactly
when H' >= 0 there, that is when N cos(phi) >= N - 1, which gives the
threshold s_b = ((2N - 1) / N**2)**(N/2) of the symmetric solution. In that
case the scalar solver takes phi/2 without bisecting.

``grid_search_oracle`` (pure scan over [0, pi/2], no refinement) and
``optimize_full_chain`` (search over the *unreduced* per-receiver variables
with the final receiver solved in closed form) exist to validate the
production path and the chain reduction itself, so they deliberately share as
little machinery with it as possible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (
    DiscriminationInstance,
    Strategy,
    StrategyResult,
    SuccessPair,
    _boundary_terms,
    _symmetric_p,
    _symmetric_terms,
    helstrom_success_pair,
    p2_from_p1,
)

__all__ = [
    "FullChainSolution",
    "SweepGrid",
    "find_sb",
    "grid_search_oracle",
    "optimize_full_chain",
    "optimize_reduced",
]


# Bisection steps of the reduced solver: 54 halvings shrink [0, phi/2] below
# one ulp of phi/2. Joint-success window of ``find_sb``'s symmetric-gap test.
BISECTION_STEPS = 54
CANDIDATE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FullChainSolution:
    """Best unreduced chain found by brute force.

    stages
        SuccessPair per receiver (2N free probabilities before reduction).
    intermediate_overlaps
        The N-1 free pair overlaps handed from each receiver to the next.
    """

    stages: tuple[SuccessPair, ...]
    intermediate_overlaps: tuple[float, ...]
    joint_success: float


def _objective(theta: np.ndarray, phi: float, eta1: float, eta2: float, n: int) -> np.ndarray:
    p1 = np.cos(theta) ** 2
    p2 = np.cos(phi - theta) ** 2
    return eta1 * p1**n + eta2 * p2**n


def _symmetric_is_optimal(phi: float, n: int, eta1: float, eta2: float) -> bool:
    # At equal priors phi/2 is the maximum exactly when N cos(phi) >= N - 1
    # (module docstring).
    return eta1 == eta2 and n * math.cos(phi) >= n - 1


def _solve_reduced(s_eff: float, n: int, eta1: float, eta2: float) -> tuple[float, float, float]:
    """Maximize g at budget ``s_eff`` for eta1 >= eta2; returns (p1, p2, joint)."""

    def evaluate(theta: float) -> tuple[float, float, float]:
        p1 = math.cos(theta) ** 2
        p2 = p2_from_p1(p1, s_eff)
        return p1, p2, eta1 * p1**n + eta2 * p2**n

    phi = math.asin(s_eff)
    p1, p2, joint = evaluate(0.5 * phi)
    # In the symmetric case phi/2 is the maximum, though rounding could make a
    # bisected theta* evaluate higher, so there is no bisection. Elsewhere take
    # the higher of the two; a tie goes to phi/2, the most symmetric pair.
    if not _symmetric_is_optimal(phi, n, eta1, eta2):
        # residual(lo) < 0 <= residual(hi) throughout; the one sign change on
        # [0, phi/2] is the maximum (module docstring). The test is
        # core.theta_residual(mid, ...) < 0.0 written as a < b, in the same
        # operation order: a - b < 0.0 and a < b agree for every float.
        cos, sin, e = math.cos, math.sin, 2 * n - 1
        lo, hi = 0.0, 0.5 * phi
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            rest = phi - mid
            if eta1 * cos(mid) ** e * sin(mid) < eta2 * cos(rest) ** e * sin(rest):
                lo = mid
            else:
                hi = mid
        root = evaluate(0.5 * (lo + hi))
        if root[2] > joint:
            p1, p2, joint = root
    # On [0, phi/2] p1 >= p2; the swap only undoes rounding at theta ~ phi/2.
    if p1 < p2:
        p1, p2 = p2, p1
        joint = eta1 * p1**n + eta2 * p2**n
    return p1, p2, joint


def _pow(values: Iterable[float], exponent: int, count: int) -> np.ndarray:
    # Python's float ** int calls the C library's pow, as math.pow does;
    # np.power rounds differently on some inputs.
    return np.fromiter(map(math.pow, values, repeat(exponent)), float, count)


def _bisect(phi: np.ndarray, eta1: np.ndarray, eta2: np.ndarray, n: int) -> np.ndarray:
    """``_solve_reduced``'s bisected theta at every point of flat arrays
    (eta1 >= eta2), bit for bit, whatever numpy's cos, sin and power round to.

    The residual keeps ``core.theta_residual``'s operation order, and its
    sign test a - b < 0 is written a < b as in the scalar loop. np.cos,
    np.sin and np.power are within a few ulp of the C library, so their
    rounding can flip a < b only where a and b agree to 1e-12 or lie near
    underflow; there both are recomputed with math, as the scalar loop does.
    """
    e = 2 * n - 1
    lo, hi = np.zeros(phi.size), 0.5 * phi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        rest = phi - mid
        a = eta1 * np.cos(mid) ** e * np.sin(mid)
        b = eta2 * np.cos(rest) ** e * np.sin(rest)
        near = np.flatnonzero(np.abs(a - b) <= 1e-12 * (a + b) + 1e-300)
        if near.size:
            for terms, eta, x in ((a, eta1, mid), (b, eta2, rest)):
                x = x[near].tolist()
                sin = np.fromiter(map(math.sin, x), float, near.size)
                terms[near] = eta[near] * _pow(map(math.cos, x), e, near.size) * sin
        below = a < b
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class SweepGrid:
    """A sweep's grid, every overlap crossed with every prior at chain length
    ``n``, solved on arrays.

    Each method returns one strategy's cells as arrays indexed [i, j] for the
    instance ``DiscriminationInstance(overlaps[i], priors[j], n_receivers=n)``,
    equal bit for bit to the pair and joint of the scalar builder there:
    ``optimal`` to ``optimize_reduced``, ``symmetric`` to ``equal_prior_jbg``,
    ``greedy`` to ``individual_greedy`` and ``boundary`` to
    ``boundary_solution``. Values that depend on the overlap alone (s_eff,
    phi, the symmetric p, the boundary q, the phi/2 candidate) are computed
    once per row with the scalar code. The rest follows the scalar operation
    order on arrays: every cos, sin and power that reaches a cell comes from
    the C library, as math gives it, and numpy computes only + - * /, sqrt and
    comparisons, which IEEE 754 rounds correctly (the bisection's own rule is
    in ``_bisect``). The axes are validated once, with the messages and in
    the order that building each point's instance would give.
    """

    def __init__(self, overlaps: Sequence[float], priors: Sequence[float], n: int) -> None:
        if not overlaps or not priors:
            raise ValueError("a sweep grid needs at least one overlap and one prior")
        # The instances of row 0 and column 0 check every axis value with the
        # instance's own messages. In row-major order the first point that
        # fails is the corner, else the first bad prior of row 0, else the
        # first bad overlap of column 0: the order these are built in.
        row = [DiscriminationInstance(overlaps[0], prior, n_receivers=n) for prior in priors]
        column = row[:1] + [DiscriminationInstance(s, priors[0], n_receivers=n) for s in overlaps[1:]]
        self.n = n
        self.shape = (len(column), len(row))
        self._overlaps = [inst.overlap for inst in column]
        self._s_eff = [inst.effective_overlap for inst in column]
        self._prior_1 = np.array([[inst.prior_1 for inst in row]])
        self._prior_2 = np.array([[inst.prior_2 for inst in row]])

    def _powers(self, p: np.ndarray) -> np.ndarray:
        """p**n of every cell, as the scalar code's float ** int gives it."""
        return _pow(p.ravel().tolist(), self.n, p.size).reshape(p.shape)

    def optimal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p1, p2, joint) of ``optimize_reduced``: its pair and joint."""
        n, (rows, cols) = self.n, self.shape
        # optimize_reduced solves with the likelier prior as eta1 and mirrors back.
        mirror = self._prior_1 < self._prior_2
        eta1 = np.where(mirror, self._prior_2, self._prior_1)
        eta2 = np.where(mirror, self._prior_1, self._prior_2)
        phi = [math.asin(s) for s in self._s_eff]
        s_eff = np.array(self._s_eff)[:, None]
        theta = _bisect(np.repeat(phi, cols), np.tile(eta1[0], rows), np.tile(eta2[0], rows), n)
        # _solve_reduced's finish: p1 = cos(theta)**2 and p2 = p2_from_p1(p1, s_eff)
        # at the bisected point, against phi/2 (one per row), then the swap.
        p1 = _pow(map(math.cos, theta.tolist()), 2, theta.size).reshape(rows, cols)
        root = s_eff * np.sqrt(1.0 - p1) + np.sqrt(p1 * (1.0 - s_eff * s_eff))
        p2 = np.minimum(root * root, 1.0)
        pow1, pow2 = self._powers(p1), self._powers(p2)
        half = []
        for x, s in zip(phi, self._s_eff):
            p1_half = math.cos(0.5 * x) ** 2
            p2_half = p2_from_p1(p1_half, s)
            half.append((p1_half, p2_half, p1_half**n, p2_half**n))
        h1, h2, hpow1, hpow2 = np.array(half).T[:, :, None]
        equal_rule = np.array([[_symmetric_is_optimal(x, n, 0.5, 0.5)] for x in phi])
        at_half = (equal_rule & (eta1 == eta2)) | (
            eta1 * hpow1 + eta2 * hpow2 >= eta1 * pow1 + eta2 * pow2
        )
        p1, p2 = np.where(at_half, h1, p1), np.where(at_half, h2, p2)
        pow1, pow2 = np.where(at_half, hpow1, pow1), np.where(at_half, hpow2, pow2)
        swap = p1 < p2
        p1, p2 = np.where(swap, p2, p1), np.where(swap, p1, p2)
        pow1, pow2 = np.where(swap, pow2, pow1), np.where(swap, pow1, pow2)
        joint = eta1 * pow1 + eta2 * pow2
        return np.where(mirror, p2, p1), np.where(mirror, p1, p2), joint

    def symmetric(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, joint) of ``equal_prior_jbg``, whose p1 and p2 are both p; p
        has one value per row, shape (rows, 1)."""
        p, product = np.array([_symmetric_terms(s, self.n) for s in self._overlaps]).T[:, :, None]
        return p, self._prior_1 * product + self._prior_2 * product

    def greedy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p1, p2, joint) of ``individual_greedy``: the Helstrom pair at s_eff."""
        eta1, eta2 = self._prior_1, self._prior_2
        s_eff = np.array(self._s_eff)[:, None]
        # helstrom_success_pair; a row at s_eff = 1 is a pure guess, so its
        # square is replaced by 0 in the formula (a root of 1 in place of a
        # possible 0/0) and its pair is set below.
        guess = s_eff == 1.0
        s2 = np.where(guess, 0.0, s_eff * s_eff)
        root = np.sqrt(1.0 - 4.0 * eta1 * eta2 * s2)
        p1 = np.minimum(np.maximum(0.5 * (1.0 + (1.0 - 2.0 * eta2 * s2) / root), 0.0), 1.0)
        p2 = np.minimum(np.maximum(0.5 * (1.0 + (1.0 - 2.0 * eta1 * s2) / root), 0.0), 1.0)
        tie, first = eta1 == eta2, eta1 > eta2
        p1 = np.where(guess, np.where(tie, 0.5, np.where(first, 1.0, 0.0)), p1)
        p2 = np.where(guess, np.where(tie, 0.5, np.where(first, 0.0, 1.0)), p2)
        return p1, p2, eta1 * self._powers(p1) + eta2 * self._powers(p2)

    def boundary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, pin1, joint) of ``boundary_solution``: its pair is (1.0, q) where
        pin1 is True and (q, 1.0) elsewhere; q has one value per row, shape
        (rows, 1)."""
        q, q_n = np.array([_boundary_terms(s, self.n) for s in self._overlaps]).T[:, :, None]
        joint_pin2 = self._prior_1 * q_n + self._prior_2
        joint_pin1 = self._prior_1 + self._prior_2 * q_n
        pin1 = joint_pin1 > joint_pin2
        return q, pin1, np.where(pin1, joint_pin1, joint_pin2)


def optimize_reduced(inst: DiscriminationInstance) -> StrategyResult:
    """Globally optimal joint strategy via the reduced 1-D problem.

    All receivers share the result's one SuccessPair (the chain reduction),
    and the arriving overlaps form the geometric ladder s**((N-k)/N).
    Swapping the priors of an instance swaps (p1, p2) of the optimum
    bit-exactly: the solver canonicalizes to prior_1 >= prior_2 and mirrors
    the result back.
    """
    n, s_eff = inst.n_receivers, inst.effective_overlap
    if inst.prior_1 >= inst.prior_2:
        p1, p2, joint = _solve_reduced(s_eff, n, inst.prior_1, inst.prior_2)
    else:
        p2, p1, joint = _solve_reduced(s_eff, n, inst.prior_2, inst.prior_1)
    return StrategyResult(SuccessPair(p1, p2), joint, Strategy.JBG_OPTIMAL)


def grid_search_oracle(inst: DiscriminationInstance, resolution: int) -> StrategyResult:
    """Plain exhaustive theta1 scan; no refinement, no shared search logic.

    Converges to the reduced optimum at rate O(resolution**-2) in joint
    success. Intended as an independent check on ``optimize_reduced``.
    """
    if not isinstance(resolution, int) or resolution < 10:
        raise ValueError(f"resolution must be an int >= 10, got {resolution!r}")
    n = inst.n_receivers
    s_eff = min(inst.overlap ** (1.0 / n), 1.0)
    phi = math.asin(s_eff)
    grid = np.linspace(0.0, 0.5 * math.pi, resolution)
    values = _objective(grid, phi, inst.prior_1, inst.prior_2, n)
    theta = float(grid[int(np.argmax(values))])
    p1 = math.cos(theta) ** 2
    p2 = p2_from_p1(p1, s_eff)
    joint = inst.prior_1 * p1**n + inst.prior_2 * p2**n
    return StrategyResult(SuccessPair(p1, p2), joint, Strategy.JBG_OPTIMAL)


def _branch_pairs(p1: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both p2 branches compatible with budget sigma, clipped to [0, 1]."""
    a = sigma * np.sqrt(1.0 - p1)
    b = np.sqrt(p1 * np.clip(1.0 - sigma**2, 0.0, 1.0))
    return np.clip((a + b) ** 2, 0.0, 1.0), np.clip((a - b) ** 2, 0.0, 1.0)


def _final_receiver_value(w1: np.ndarray, w2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """max over the last receiver's measurement of w1*p1 + w2*p2 at overlap t.

    The last receiver faces effective weights (w1, w2) = priors times the
    accumulated success products; its optimum is the single-shot bound with
    renormalized priors, i.e. (W + sqrt(W^2 - 4 w1 w2 t^2)) / 2.
    """
    total = w1 + w2
    return 0.5 * (total + np.sqrt(np.clip(total**2 - 4.0 * w1 * w2 * t**2, 0.0, None)))


def optimize_full_chain(inst: DiscriminationInstance, resolution: int) -> FullChainSolution:
    """Brute-force search over the unreduced chain variables (N = 2 or 3).

    For N = 2 the free variables are the first receiver's measurement angle
    and the intermediate overlap t2, with the last receiver solved in closed
    form; for N = 3 a nested grid over (t2, t3, theta1, theta2). Both
    constraint branches are searched at every stage. The search never invokes
    the chain-reduction argument, so agreement with ``optimize_reduced`` is an
    independent verification of that reduction.
    """
    if not isinstance(resolution, int) or resolution < 20:
        raise ValueError(f"resolution must be an int >= 20, got {resolution!r}")
    if inst.n_receivers == 2:
        return _full_chain_two(inst, resolution)
    if inst.n_receivers == 3:
        return _full_chain_three(inst, resolution)
    raise ValueError(f"full-chain search supports 2 or 3 receivers, got {inst.n_receivers}")


def _budget(s: float, t: np.ndarray) -> np.ndarray:
    """Per-stage budget s/t, with the 0/0 orthogonal case resolved to 0."""
    if s == 0.0:
        return np.zeros_like(t)
    return np.clip(s / t, 0.0, 1.0)


def _refine_columns(joint: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column theta of the maximum, sharpened by a 3-point parabola fit.

    The discretization noise of the theta axis would otherwise wander the
    argmax along flat ridges of the (theta, t) surface; the quadratic vertex
    removes that noise without using any structure of the objective.
    """
    i = np.argmax(joint, axis=0)
    cols = np.arange(joint.shape[1])
    interior = (i > 0) & (i < joint.shape[0] - 1)
    i_safe = np.clip(i, 1, joint.shape[0] - 2)
    y0 = joint[i_safe - 1, cols]
    y1 = joint[i_safe, cols]
    y2 = joint[i_safe + 1, cols]
    curv = y2 - 2.0 * y1 + y0
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where(curv < 0.0, (y0 - y2) / (2.0 * curv), 0.0)
    offset = np.clip(np.where(interior, offset, 0.0), -1.0, 1.0)
    step = theta[1] - theta[0] if len(theta) > 1 else 0.0
    return theta[i] + offset * step, i


def _full_chain_two(inst: DiscriminationInstance, resolution: int) -> FullChainSolution:
    eta1, eta2, s = inst.prior_1, inst.prior_2, inst.overlap
    theta = np.linspace(0.0, 0.5 * math.pi, resolution)
    t2 = np.linspace(s, 1.0, resolution)
    sigma = _budget(s, t2)[None, :]
    p1b_grid = np.cos(theta[:, None]) ** 2 + 0.0 * t2[None, :]
    best = (-1.0, 0.0, 0.0, 0.0)  # joint, p1b, p2b, t2
    for branch in (0, 1):
        p2b_grid = _branch_pairs(p1b_grid, sigma)[branch]
        joint = _final_receiver_value(eta1 * p1b_grid, eta2 * p2b_grid, t2[None, :])
        theta_star, _ = _refine_columns(joint, theta)
        # Exact re-evaluation at the refined theta keeps every reported value
        # an actual point of the objective, not an interpolation.
        p1b = np.cos(theta_star) ** 2
        p2b = _branch_pairs(p1b, sigma[0])[branch]
        refined = _final_receiver_value(eta1 * p1b, eta2 * p2b, t2)
        j = int(np.argmax(refined))
        cand = float(refined[j])
        if cand > best[0]:
            best = (cand, float(p1b[j]), float(p2b[j]), float(t2[j]))
    joint, p1_first, p2_first, t_mid = best
    w1, w2 = eta1 * p1_first, eta2 * p2_first
    last = helstrom_success_pair(t_mid, w1 / (w1 + w2), w2 / (w1 + w2))
    return FullChainSolution(
        stages=(SuccessPair(p1_first, p2_first), last),
        intermediate_overlaps=(t_mid,),
        joint_success=joint,
    )


def _full_chain_three(inst: DiscriminationInstance, resolution: int) -> FullChainSolution:
    eta1, eta2, s = inst.prior_1, inst.prior_2, inst.overlap
    theta = np.linspace(0.0, 0.5 * math.pi, resolution)
    t_grid = np.linspace(s, 1.0, resolution)
    # Broadcast layout per t2 iteration: axes (t3, theta1, theta2).
    t3 = t_grid[:, None, None]
    th1 = theta[None, :, None]
    th2 = theta[None, None, :]
    p11 = np.cos(th1) ** 2
    p12 = np.cos(th2) ** 2
    best = (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # joint, p11, p21, p12, p22, t2, t3
    for t2 in t_grid:
        sigma1 = _budget(s, np.asarray(t2))
        sigma2 = _budget(t2, t3) if t2 > 0.0 else np.zeros_like(t3)
        feasible = t3 >= t2
        for p21 in _branch_pairs(p11, sigma1):
            for p22 in _branch_pairs(p12, sigma2):
                w1 = eta1 * p11 * p12
                w2 = eta2 * p21 * p22
                joint = np.where(
                    feasible, _final_receiver_value(w1, w2, t3), -np.inf
                )
                i = int(np.argmax(joint))
                cand = float(joint.flat[i])
                if cand > best[0]:
                    idx = np.unravel_index(i, joint.shape)
                    best = (
                        cand,
                        float(np.broadcast_to(p11, joint.shape)[idx]),
                        float(np.broadcast_to(p21, joint.shape)[idx]),
                        float(np.broadcast_to(p12, joint.shape)[idx]),
                        float(np.broadcast_to(p22, joint.shape)[idx]),
                        float(t2),
                        float(np.broadcast_to(t3, joint.shape)[idx]),
                    )
    joint, p11_b, p21_b, p12_b, p22_b, t2_b, t3_b = best
    w1, w2 = eta1 * p11_b * p12_b, eta2 * p21_b * p22_b
    last = helstrom_success_pair(t3_b, w1 / (w1 + w2), w2 / (w1 + w2))
    return FullChainSolution(
        stages=(SuccessPair(p11_b, p21_b), SuccessPair(p12_b, p22_b), last),
        intermediate_overlaps=(t2_b, t3_b),
        joint_success=joint,
    )


def find_sb(n: int) -> float:
    """Smallest equal-prior overlap above which the symmetric closed form
    stops being globally optimal.

    Bisects (to 1e-6 in s) the indicator "global optimum exceeds the
    symmetric value by more than CANDIDATE_TOLERANCE". The gap criterion
    is robust to whether the branch exchange is a pitchfork or a crossing.
    The result is resolved only to 1e-6 absolute: from N ~ 14 on, s_b lies
    below that resolution and the returned value (9.5e-7) is not s_b.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an int >= 2, got {n!r}")

    def symmetric_beaten(s: float) -> bool:
        inst = DiscriminationInstance(overlap=s, prior_1=0.5, n_receivers=n)
        # The equal-prior joint as p**N, kept bit for bit: equal_prior_jbg's
        # chain-order product can differ from it in the last bits.
        gap = optimize_reduced(inst).joint_success - _symmetric_p(s, n) ** n
        return gap > CANDIDATE_TOLERANCE

    lo, hi = 0.0, 0.999
    if not symmetric_beaten(hi):
        raise RuntimeError(f"no asymmetric regime detected up to s={hi} for n={n}")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if symmetric_beaten(mid):
            hi = mid
        else:
            lo = mid
    return hi
