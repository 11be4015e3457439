"""Explicit 2x2 detection operators realizing a chain strategy.

Each receiver's measurement is two real detection (Kraus) operators B1, B2
with POVM elements Pi_i = B_i^T B_i. Stages live in the canonical real frame:
the incoming pair is |psi1,2> = cos(a)|0> +- sin(a)|1> with cos(2a) = t_in
(``make_state_pair``), the outgoing pair (|v1>, |v2>) is the canonical pair
of overlap t_out, and the measurement is fixed by its action

    B1 |psi1> = sqrt(p1)     |v1>      B1 |psi2> = sqrt(1 - p2) |v2>
    B2 |psi1> = sqrt(1 - p1) |v1>      B2 |psi2> = sqrt(p2)     |v2>

so the outcome carries the guess while the output depends only on which
state came in, and downstream receivers again face two pure states. The
columns of the stacked 4x2 matrix [B1; B2] are the images of psi1 + psi2
(along |0>) and of psi1 - psi2 (along |1>), rescaled. Completeness
B1^T B1 + B2^T B2 = I says that [B1; B2] is an isometry, which holds exactly
when the overlap budget is respected:

    distinguishability(p1, p2) * <v1|v2> = <psi1|psi2>

Writing p_i = cos^2(theta_i), the budget reads sin(theta1 + theta2) =
t_in / t_out. ``_amplitudes`` fixes the amplitudes (cos, sin of theta_i) for
``build_stage`` and ``validate`` alike: the member with the smaller p keeps
(sqrt(p), sqrt(1 - p)), and the other takes the rest of the budget when its p
equals the rest's cos^2 to rounding, since sqrt(1 - p) is lost as p nears 1.
``build_stage`` then scales both columns to unit length and takes one
Gram-Schmidt step, so completeness holds to rounding; if nothing of the second
column is left, it is the unit column perpendicular to the first per detector.

Overlaps, amplitudes and detectors are real Python floats throughout (each
detector a ((a, b), (c, d)) tuple); states are compared up to sign.
``MeasurementStage.validate`` checks a stage with scalar 2x2 algebra on its
eight detector entries, so its verdicts do not depend on any BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DiscriminationInstance,
    StrategyResult,
    SuccessPair,
    _check_unit_interval,
    overlap_ladder,
)

__all__ = [
    "DegenerateInput",
    "InfeasibleStage",
    "MeasurementStage",
    "QubitState",
    "build_chain",
    "build_stage",
    "make_state_pair",
]

FEASIBILITY_ATOL = 1e-9
STAGE_ATOL = 1e-10


class InfeasibleStage(ValueError):
    """Requested success pair violates the stage's overlap budget."""


class DegenerateInput(ValueError):
    """Identical input states cannot be mapped to distinct outputs."""


@dataclass(frozen=True)
class QubitState:
    """Pure qubit state a|0> + b|1>, normalized within 1e-12."""

    amplitudes: tuple[float, float]

    def __post_init__(self) -> None:
        a, b = _real_floats(self.amplitudes, "amplitudes")
        norm_sq = a * a + b * b
        if not abs(norm_sq - 1.0) <= 1e-12:  # NaN fails the test
            raise ValueError(f"state not normalized: |a|^2 + |b|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", (a, b))

    def fidelity(self, other: "QubitState") -> float:
        """<self|other>^2; sign-insensitive equality measure."""
        (a, b), (c, d) = self.amplitudes, other.amplitudes
        return (a * c + b * d) ** 2


def _real_floats(values, what: str) -> tuple[float, ...]:
    """``values`` as Python floats, rejecting a nonzero imaginary part and any
    entry with a shape: an array, even of one element, which float() converts
    in older array libraries only. float(x.real) keeps the sign bits of -0.0 and NaN."""
    try:
        if not any(getattr(x, "shape", ()) for x in values):
            if any(x.imag for x in values):  # NaN counts as nonzero
                raise ValueError(f"{what} must be real, got a nonzero imaginary part")
            return tuple(float(x.real) for x in values)
    except (AttributeError, TypeError):  # an entry that is no number
        pass
    raise ValueError(f"{what} must be real numbers, got {values!r}")


def make_state_pair(overlap: float) -> tuple[QubitState, QubitState]:
    """Canonical real-amplitude pair symmetric about |0> with given overlap.

    |psi1> = cos(a)|0> + sin(a)|1>, |psi2> = cos(a)|0> - sin(a)|1>, where
    cos(2a) = overlap.
    """
    c, s = _half_angle(overlap)
    return QubitState((c, s)), QubitState((c, -s))


def _half_angle(overlap: float) -> tuple[float, float]:
    """(cos(a), sin(a)) with cos(2a) = overlap: the canonical pair's amplitudes."""
    if not (math.isfinite(overlap) and -1e-12 <= overlap <= 1.0 + 1e-12):
        raise ValueError(f"overlap must lie in [0, 1], got {overlap!r}")
    alpha = 0.5 * math.acos(min(max(overlap, -1.0), 1.0))
    return math.cos(alpha), math.sin(alpha)


@dataclass(frozen=True)
class MeasurementStage:
    """One receiver's detectors B1, B2, kept as ((a, b), (c, d)). The stage
    consumes the canonical pair of overlap ``in_overlap`` and emits the
    canonical pair of overlap ``out_overlap`` (``outputs``)."""

    detectors: tuple[tuple[tuple[float, float], ...], ...]
    success: SuccessPair
    in_overlap: float
    out_overlap: float

    def __post_init__(self) -> None:
        try:
            ((a1, b1), (c1, d1)), ((a2, b2), (c2, d2)) = self.detectors
        except (TypeError, ValueError):  # not iterable, or the wrong length
            raise ValueError("a stage needs exactly two 2x2 detectors") from None
        entries = (a1, b1, c1, d1, a2, b2, c2, d2)
        a1, b1, c1, d1, a2, b2, c2, d2 = _real_floats(entries, "detectors")
        object.__setattr__(self, "detectors", (((a1, b1), (c1, d1)), ((a2, b2), (c2, d2))))

    @property
    def outputs(self) -> tuple[QubitState, QubitState]:
        """The canonical pair of overlap ``out_overlap`` that the stage emits."""
        return make_state_pair(self.out_overlap)

    def validate(self) -> None:
        """Check completeness, positivity, and the action on the canonical pairs.

        Raises ValueError on the first violated invariant. Construction via
        ``build_stage`` always passes; this re-check exists so that stages
        arriving from serialization or tests can be trusted. The checks are
        scalar float algebra on the eight detector entries, so a verdict does
        not depend on any BLAS.
        """
        ((a1, b1), (c1, d1)), ((a2, b2), (c2, d2)) = self.detectors
        # B^T B = [[p, q], [q, r]] for B = [[a, b], [c, d]]
        grams = (
            (a1 * a1 + c1 * c1, a1 * b1 + c1 * d1, b1 * b1 + d1 * d1),
            (a2 * a2 + c2 * c2, a2 * b2 + c2 * d2, b2 * b2 + d2 * d2),
        )
        p, q, r = (x + y for x, y in zip(*grams))
        defects = (abs(p - 1.0), abs(q), abs(r - 1.0))
        if not all(d <= STAGE_ATOL for d in defects):  # NaN fails too
            defect = math.nan if any(map(math.isnan, defects)) else max(defects)
            raise ValueError(f"completeness violated: max |B1+B1 + B2+B2 - I| = {defect:.3e}")
        for i, (p, q, r) in enumerate(grams, start=1):
            min_eig = 0.5 * (p + r) - math.hypot(0.5 * (p - r), q)
            if min_eig < -1e-12:
                raise ValueError(f"POVM element {i} not positive: min eig {min_eig:.3e}")
        c, s = _half_angle(self.in_overlap)
        r1, w1, r2, w2 = _amplitudes(self.in_overlap, self.success, self.out_overlap)
        vc, vs = _half_angle(self.out_overlap)
        v1, v2 = (vc, vs), (vc, -vs)
        # B psi for psi1 = (c, s) and psi2 = (c, -s), each with its amplitude
        # and the output state it must point along
        expected = (
            (a1 * c + b1 * s, c1 * c + d1 * s, r1, v1),
            (a2 * c + b2 * s, c2 * c + d2 * s, w1, v1),
            (a1 * c - b1 * s, c1 * c - d1 * s, w2, v2),
            (a2 * c - b2 * s, c2 * c - d2 * s, r2, v2),
        )
        for x, y, amplitude, (vx, vy) in expected:
            norm = math.sqrt(x * x + y * y)
            if not abs(norm - amplitude) <= STAGE_ATOL:
                raise ValueError(
                    f"action amplitude mismatch: |B psi| = {norm!r}, expected {amplitude!r}"
                )
            if norm > 1e-8:
                fid = (vx * (x / norm) + vy * (y / norm)) ** 2
                if fid < 1.0 - STAGE_ATOL:
                    raise ValueError(f"output state mismatch: fidelity {fid!r}")


def _amplitudes(in_overlap: float, success: SuccessPair, out_overlap: float) -> tuple[float, ...]:
    """(r1, w1, r2, w2) with B1 psi1 = r1 v1, B2 psi1 = w1 v1, B1 psi2 = w2 v2 and
    B2 psi2 = r2 v2. With sin(phi) = t_in / t_out, the budget's rest is
    phi - theta_a above guessing (p1 + p2 >= 1) and pi - phi - theta_a below it;
    theta_a itself is capped at phi where p_a is cos^2(phi) to rounding.
    """
    if in_overlap == 1.0 and out_overlap < 1.0:
        raise DegenerateInput("identical input states cannot be split into distinct outputs")
    p1, p2 = success
    swap = p1 > p2
    p_a, p_b = (p2, p1) if swap else (p1, p2)
    r_a, w_a = math.sqrt(p_a), math.sqrt(max(0.0, 1.0 - p_a))
    r_b, w_b = math.sqrt(p_b), math.sqrt(max(0.0, 1.0 - p_b))
    phi = math.asin(min(in_overlap / out_overlap, 1.0)) if out_overlap else 0.5 * math.pi
    above = p_a + p_b >= 1.0
    theta_a = math.atan2(w_a, r_a)
    if above and theta_a > phi and abs(math.cos(phi) ** 2 - p_a) <= 2.0 * math.ulp(1.0):
        theta_a, r_a, w_a = phi, math.cos(phi), math.sin(phi)
    rest = max(phi - theta_a, 0.0) if above else math.pi - phi - theta_a
    if abs(math.cos(rest) ** 2 - p_b) <= 2.0 * math.ulp(1.0):
        r_b, w_b = math.cos(rest), math.sin(rest)
    r1, w1, r2, w2 = (r_b, w_b, r_a, w_a) if swap else (r_a, w_a, r_b, w_b)
    required = (r1 * w2 + w1 * r2) * out_overlap
    # Relative to t_in <= 1: never looser than an absolute bound, and no free
    # pass for a tiny t_in. The two ulps of 0.0 admit the rounding of
    # subnormal ladder overlaps, which are multiples of 5e-324. NaN fails too.
    if not abs(required - in_overlap) <= FEASIBILITY_ATOL * in_overlap + 2 * math.ulp(0.0):
        raise InfeasibleStage(
            f"overlap budget violated: distinguishability * t_out = {required!r} "
            f"but t_in = {in_overlap!r}"
        )
    return r1, w1, r2, w2


def build_stage(in_overlap: float, success: SuccessPair, out_overlap: float) -> MeasurementStage:
    """Detection operators realizing ``success`` on the canonical pair of
    overlap ``in_overlap``.

    The outgoing pair is the canonical pair of overlap ``out_overlap`` (the
    output orientation is free; fixing it keeps stages composable and tests
    deterministic). Raises InfeasibleStage when
    distinguishability(p1, p2) * out_overlap deviates from the input overlap
    by more than 1e-9 times it (plus two subnormal ulps), and DegenerateInput
    when identical input states are asked to produce distinct outputs.
    """
    in_overlap = _check_unit_interval("in_overlap", in_overlap)
    out_overlap = _check_unit_interval("out_overlap", out_overlap)
    r1, w1, r2, w2 = _amplitudes(in_overlap, success, out_overlap)
    c, s = _half_angle(out_overlap)
    # Images of psi1 + psi2 and psi1 - psi2 under [B1; B2], from
    # [B1; B2] psi1 = [r1 v1; w1 v1] and [B1; B2] psi2 = [w2 v2; r2 v2],
    # where v1,2 = (c, +-s).
    even = ((r1 + w2) * c, (r1 - w2) * s, (w1 + r2) * c, (w1 - r2) * s)
    odd = ((r1 - w2) * c, (r1 + w2) * s, (w1 - r2) * c, (w1 + r2) * s)
    norm = math.hypot(*even)
    even = [x / norm for x in even]
    dot = sum(x * y for x, y in zip(even, odd))
    odd = [y - dot * x for x, y in zip(even, odd)]
    norm = math.hypot(*odd)
    if norm == 0.0:
        # psi1 - psi2 has no image to follow: take the unit column
        # perpendicular to the first within each detector's block.
        odd, norm = [-even[1], even[0], -even[3], even[2]], 1.0
    odd = [x / norm for x in odd]
    stage = MeasurementStage(
        detectors=(
            ((even[0], odd[0]), (even[1], odd[1])),
            ((even[2], odd[2]), (even[3], odd[3])),
        ),
        success=success,
        in_overlap=in_overlap,
        out_overlap=out_overlap,
    )
    stage.validate()
    return stage


def build_chain(inst: DiscriminationInstance, result: StrategyResult) -> list[MeasurementStage]:
    """Measurement stages realizing ``result`` along the whole chain.

    Each of the instance's N receivers uses ``result.pair``. Stage k consumes
    the canonical pair of overlap overlap_ladder(s, N)[k] and emits the
    canonical pair of the next overlap; the final receiver merges its outputs
    (out_overlap = 1), since nothing downstream constrains it. A result built
    for another overlap or N misses stage 1's budget (InfeasibleStage), as
    every stage has the same ratio t_in / t_out; at s = 0 only the last
    stage, from overlap 0 to 1, has a budget to miss.
    """
    ladder = overlap_ladder(inst.overlap, inst.n_receivers) + (1.0,)
    stages = []
    for k in range(inst.n_receivers):
        try:
            stages.append(build_stage(ladder[k], result.pair, ladder[k + 1]))
        except ValueError as exc:
            raise type(exc)(f"stage {k + 1} of {inst.n_receivers}: {exc}") from exc
    return stages
