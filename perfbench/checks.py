"""Output checks computed independently of the program under test.

Nothing here imports ``guesschain``: every expected value comes from the
paper's formulas evaluated with numpy, or from properties of the serialized
output itself. Each ``check_*`` function takes one operation's output and
its inputs and returns a list of violations; an empty list means the output
passed.

The reduced problem, for prior eta1 (eta2 = 1 - eta1), overlap s and N
receivers, is to maximize over theta in [0, pi/2]

    g(theta) = eta1 cos(theta)^(2N) + eta2 cos(phi - theta)^(2N),
    phi = asin(s^(1/N)),  p1 = cos^2(theta),  p2 = cos^2(phi - theta).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Comparisons of two float64 evaluations of the same closed form.
CLOSED_FORM_ATOL = 1e-12
# The solver may return any candidate within its 1e-10 tie window of the
# best one, so optimality comparisons allow that much (plus roundoff).
OPTIMALITY_ATOL = 1e-9
# Probabilities recomputed from serialized 2x2 operators.
OPERATOR_ATOL = 1e-9
SCAN_POINTS = 4001
FINE_POINTS = 401
Z_LIMIT = 4.0


# ----------------------------------------------------------------- formulas
def objective(theta: np.ndarray, s: float, eta1: float, n: int) -> np.ndarray:
    phi = math.asin(s ** (1.0 / n))
    return eta1 * np.cos(theta) ** (2 * n) + (1.0 - eta1) * np.cos(phi - theta) ** (2 * n)


def scan_tolerance(n: int) -> float:
    """Error N^2 h^2 / 2 of a dense scan of g with h = (pi/2) / (SCAN_POINTS - 1).

    |g''| <= 4 N^2 on [0, pi/2], and an interior maximum lies within h/2 of
    a grid point, so a sampled maximum is at most N^2 h^2 / 2 below the true
    one. A solver is held to this resolution: its joint may fall short of the
    optimum by this much, and no more.
    """
    h = 0.5 * math.pi / (SCAN_POINTS - 1)
    return n * n * h * h / 2.0


def refined_scan(s: float, eta1: float, n: int) -> tuple[float, int]:
    """Maximum of g from a dense scan refined around every local maximum.

    Returns the value and the number of local maxima on the coarse grid.
    """
    theta = np.linspace(0.0, 0.5 * math.pi, SCAN_POINTS)
    h = theta[1] - theta[0]
    values = objective(theta, s, eta1, n)
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    peaks = np.nonzero((padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:]))[0]
    best = -math.inf
    for i in peaks:
        fine = np.linspace(max(0.0, theta[i] - h), min(0.5 * math.pi, theta[i] + h), FINE_POINTS)
        best = max(best, float(objective(fine, s, eta1, n).max()))
    return best, len(peaks)


def budget_slack(p1: float, p2: float, s: float, n: int) -> float:
    """cos^2(asin(s^(1/N)) - acos(sqrt(p1))) - p2; negative breaks the budget."""
    bound = math.cos(math.asin(s ** (1.0 / n)) - math.acos(math.sqrt(min(max(p1, 0.0), 1.0))))
    return bound * bound - p2


def symmetric_p(s: float, n: int) -> float:
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - s ** (2.0 / n))))


def greedy_pair(s: float, eta1: float, n: int) -> tuple[float, float]:
    """Single-shot optimum (Helstrom) at the per-receiver overlap s^(1/N)."""
    t2 = s ** (2.0 / n)
    disc = 1.0 - 4.0 * eta1 * (1.0 - eta1) * t2
    if disc <= 0.0:
        return 0.5, 0.5
    root = math.sqrt(disc)
    p1 = 0.5 * (1.0 + (1.0 - 2.0 * (1.0 - eta1) * t2) / root)
    p2 = 0.5 * (1.0 + (1.0 - 2.0 * eta1 * t2) / root)
    return min(max(p1, 0.0), 1.0), min(max(p2, 0.0), 1.0)


def boundary_joint(s: float, eta1: float, n: int) -> float:
    q = 1.0 - s ** (2.0 / n)
    return max(eta1 * q**n + (1.0 - eta1), eta1 + (1.0 - eta1) * q**n)


def joint(p1: float, p2: float, eta1: float, n: int) -> float:
    return eta1 * p1**n + (1.0 - eta1) * p2**n


def canonical_pair(overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """(cos a, sin a) and (cos a, -sin a) with cos 2a = overlap."""
    alpha = 0.5 * math.acos(min(max(overlap, -1.0), 1.0))
    return np.array([math.cos(alpha), math.sin(alpha)]), np.array(
        [math.cos(alpha), -math.sin(alpha)]
    )


def _close(a: float, b: float, atol: float) -> bool:
    return abs(a - b) <= atol * max(1.0, abs(b))


def _grid(start: float, stop: float, points: int) -> list[float]:
    step = (stop - start) / (points - 1)
    return [start + k * step for k in range(points)]


# ------------------------------------------------------------ per-op checks
def check_strategy_pair(
    name: str, p1: float, p2: float, reported: float, s: float, eta1: float, n: int
) -> list[str]:
    """Range, budget and joint recomputation of one strategy's (p1, p2)."""
    errors = []
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        errors.append(f"{name}: (p1, p2) = ({p1!r}, {p2!r}) outside [0, 1]")
        return errors
    if budget_slack(p1, p2, s, n) < -OPERATOR_ATOL:
        errors.append(f"{name}: p2 = {p2!r} exceeds the overlap budget at p1 = {p1!r}")
    if not _close(reported, joint(p1, p2, eta1, n), CLOSED_FORM_ATOL):
        errors.append(f"{name}: joint {reported!r} != eta1 p1^N + eta2 p2^N")
    return errors


def check_optimum(reported: float, s: float, eta1: float, n: int) -> list[str]:
    """JBG_OPTIMAL against the refined dense scan, within ``scan_tolerance``."""
    gap = refined_scan(s, eta1, n)[0] - reported
    if gap < -OPTIMALITY_ATOL:
        return [f"JBG_OPTIMAL joint {reported!r} exceeds the dense-scan maximum by {-gap:.2e}"]
    if gap > scan_tolerance(n) + OPTIMALITY_ATOL:
        return [f"JBG_OPTIMAL joint {reported!r} is {gap:.2e} below the dense-scan maximum"]
    return []


def check_sweep(text: str, params: dict) -> list[str]:
    """Every row of a four-strategy ``sweep --variable both`` CSV."""
    n = params["receivers"]
    rows = list(csv.DictReader(io.StringIO(text)))
    overlaps = _grid(*params["overlap_axis"])
    priors = _grid(*params["prior_axis"])
    if len(rows) != len(overlaps) * len(priors):
        return [f"{len(rows)} rows, expected {len(overlaps) * len(priors)}"]
    errors = []
    for i, row in enumerate(rows):
        s, eta1 = float(row["overlap"]), float(row["prior_1"])
        if not (
            _close(s, overlaps[i // len(priors)], CLOSED_FORM_ATOL)
            and _close(eta1, priors[i % len(priors)], CLOSED_FORM_ATOL)
        ):
            errors.append(f"row {i}: grid point ({s!r}, {eta1!r}) out of place")
            continue
        got = {}
        for name in ("jbg_optimal", "jbg_symmetric_analytic", "individual_greedy", "boundary"):
            p1, p2 = float(row[f"{name}_p1"]), float(row[f"{name}_p2"])
            got[name] = float(row[f"{name}_joint_success"])
            errors += [f"row {i}: {e}" for e in check_strategy_pair(name, p1, p2, got[name], s, eta1, n)]
        p = symmetric_p(s, n)
        if not _close(got["jbg_symmetric_analytic"], p**n, CLOSED_FORM_ATOL):
            errors.append(f"row {i}: symmetric joint differs from p^N, p = {p!r}")
        g1, g2 = greedy_pair(s, eta1, n)
        if not _close(got["individual_greedy"], joint(g1, g2, eta1, n), CLOSED_FORM_ATOL):
            errors.append(f"row {i}: greedy joint differs from the Helstrom closed form")
        if not _close(got["boundary"], boundary_joint(s, eta1, n), CLOSED_FORM_ATOL):
            errors.append(f"row {i}: boundary joint differs from its closed form")
        for name, value in got.items():
            if value > got["jbg_optimal"] + scan_tolerance(n) + OPTIMALITY_ATOL:
                errors.append(f"row {i}: {name} beats JBG_OPTIMAL by {value - got['jbg_optimal']:.2e}")
        errors += [f"row {i}: {e}" for e in check_optimum(got["jbg_optimal"], s, eta1, n)]
        if len(errors) > 20:
            break
    return errors


def check_optimize(text: str, params: dict) -> list[str]:
    """``optimize`` JSON without stages: ladder, budget, joint, optimality."""
    data = json.loads(text)
    s, eta1, n = params["overlap"], params["prior"], params["receivers"]
    errors = []
    if (data["overlap"], data["prior_1"], data["receivers"]) != (s, eta1, n):
        errors.append("instance fields do not echo the request")
    if len(data["stages"]) != n or len(data["overlaps"]) != n:
        return errors + [f"expected {n} stages and overlaps"]
    ladder = [s ** ((n - k) / n) for k in range(n)]
    if any(not _close(a, b, CLOSED_FORM_ATOL) for a, b in zip(data["overlaps"], ladder)):
        errors.append("arriving overlaps are not the ladder s^((N-k)/N)")
    first = data["stages"][0]
    if any(stage != first for stage in data["stages"]):
        errors.append("receivers do not share one (p1, p2)")
    errors += check_strategy_pair(
        "JBG_OPTIMAL", first["p1"], first["p2"], data["joint_success"], s, eta1, n
    )
    errors += check_optimum(data["joint_success"], s, eta1, n)
    return errors


def _matrix(cells: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in cells])


def _vector(cells: list) -> np.ndarray:
    return np.array([complex(re, im) for re, im in cells])


def check_chain(text: str, params: dict) -> list[str]:
    """``optimize --emit-stages`` JSON, checked from the serialized operators."""
    errors = check_optimize(text, params)
    data = json.loads(text)
    stages = data.get("measurement_stages", [])
    s, eta1, n = params["overlap"], params["prior"], params["receivers"]
    if len(stages) != n:
        return errors + [f"{len(stages)} measurement stages for {n} receivers"]
    amp1, amp2 = canonical_pair(s)
    for k, stage in enumerate(stages):
        where = f"stage {k + 1}"
        b1, b2 = _matrix(stage["detector_1"]), _matrix(stage["detector_2"])
        e1, e2 = b1.conj().T @ b1, b2.conj().T @ b2
        defect = float(np.max(np.abs(e1 + e2 - np.eye(2))))
        if defect > OPERATOR_ATOL:
            errors.append(f"{where}: completeness defect {defect:.3e}")
        for i, element in enumerate((e1, e2), start=1):
            low = float(np.linalg.eigvalsh(element).min())
            if low < -OPERATOR_ATOL:
                errors.append(f"{where}: POVM element {i} has eigenvalue {low:.3e}")
        psi1, psi2 = canonical_pair(stage["in_overlap"])
        p1, p2 = stage["p1"], stage["p2"]
        for det, psi, weight, label in (
            (b1, psi1, p1, "B1 psi1"),
            (b2, psi1, 1.0 - p1, "B2 psi1"),
            (b1, psi2, 1.0 - p2, "B1 psi2"),
            (b2, psi2, p2, "B2 psi2"),
        ):
            prob = float(np.vdot(det @ psi, det @ psi).real)
            if abs(prob - weight) > OPERATOR_ATOL:
                errors.append(f"{where}: |{label}|^2 = {prob!r}, declared {weight!r}")
        out1, out2 = _vector(stage["output_1"]), _vector(stage["output_2"])
        if abs(abs(np.vdot(out1, out2)) - stage["out_overlap"]) > OPERATOR_ATOL:
            errors.append(f"{where}: output pair overlap differs from out_overlap")
        following = stages[k + 1]["in_overlap"] if k + 1 < n else 1.0
        if abs(stage["out_overlap"] - following) > OPERATOR_ATOL:
            errors.append(f"{where}: out_overlap {stage['out_overlap']!r} != next in_overlap")
        amp1, amp2 = b1 @ amp1, b2 @ amp2  # the all-correct branch of each state
        if len(errors) > 20:
            return errors
    if abs(stages[0]["in_overlap"] - s) > OPERATOR_ATOL:
        errors.append("first stage does not receive the prepared overlap")
    propagated = eta1 * float(np.vdot(amp1, amp1).real) + (1.0 - eta1) * float(
        np.vdot(amp2, amp2).real
    )
    if abs(propagated - data["joint_success"]) > OPERATOR_ATOL:
        errors.append(
            f"propagated joint {propagated!r} != joint_success {data['joint_success']!r}"
        )
    return errors


def check_find_sb(text: str, params: dict) -> list[str]:
    """``find-sb`` JSON: paper values, and the dense scan either side of s_b."""
    data = json.loads(text)
    n, s_b = params["receivers"], data["s_b"]
    errors = []
    if data["n"] != n:
        errors.append(f"n = {data['n']!r}, requested {n}")
    paper = {2: (0.74, 0.76), 3: (0.41, 0.43)}
    if n in paper and not paper[n][0] <= s_b <= paper[n][1]:
        errors.append(f"s_b({n}) = {s_b!r} outside the paper's {paper[n]}")
    if not 0.0 < s_b < 1.0:
        return errors + [f"s_b = {s_b!r} outside (0, 1)"]
    below, above = 0.99 * s_b, 1.01 * s_b
    best, peaks = refined_scan(below, 0.5, n)
    if peaks != 1 or abs(best - symmetric_p(below, n) ** n) > CLOSED_FORM_ATOL:
        errors.append("just below s_b the dense-scan optimum is not the symmetric value")
    best, peaks = refined_scan(above, 0.5, n)
    if peaks < 2 or best <= symmetric_p(above, n) ** n + OPTIMALITY_ATOL:
        errors.append("just above s_b the dense scan does not beat the symmetric value")
    return errors


def check_sb_series(values: dict[int, float]) -> list[str]:
    """s_b decreases strictly with the chain length."""
    ordered = [values[n] for n in sorted(values)]
    if any(b >= a for a, b in zip(ordered, ordered[1:])):
        return [f"s_b does not decrease with N: {ordered}"]
    return []


def check_simulate(text: str, params: dict) -> list[str]:
    """``simulate`` JSON: 4-sigma agreement with the predicted joint, the
    prediction itself, and the trial bookkeeping."""
    data = json.loads(text)
    s, eta1, n = params["overlap"], params["prior"], params["receivers"]
    trials = data["trials"]
    errors = []
    if sum(data["per_state_counts"]) != trials:
        errors.append(f"per_state_counts {data['per_state_counts']} do not sum to {trials}")
    if data["joint_successes"] / trials != data["empirical_joint"]:
        errors.append("empirical_joint != joint_successes / trials")
    pairs = data["predicted_per_receiver"]
    if len(pairs) != n or any(pair != pairs[0] for pair in pairs):
        errors.append("predicted_per_receiver is not one shared pair per receiver")
    p1, p2 = pairs[0]
    predicted = data["predicted_joint"]
    if not _close(predicted, joint(p1, p2, eta1, n), CLOSED_FORM_ATOL):
        errors.append(f"predicted_joint {predicted!r} != eta1 p1^N + eta2 p2^N")
    errors += check_optimum(predicted, s, eta1, n)
    std_error = math.sqrt(predicted * (1.0 - predicted) / trials)
    gap = data["empirical_joint"] - predicted
    if std_error == 0.0 and gap != 0.0:
        errors.append(f"empirical {data['empirical_joint']!r} differs from a certain prediction")
    elif std_error > 0.0 and abs(gap) > Z_LIMIT * std_error:
        errors.append(f"empirical {data['empirical_joint']!r} is {gap / std_error:.2f} sigma off")
    return errors


CHECKS = {
    "sweep": check_sweep,
    "optimize": check_optimize,
    "chain": check_chain,
    "find-sb": check_find_sb,
    "simulate": check_simulate,
}
