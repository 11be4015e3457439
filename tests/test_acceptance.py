"""Acceptance gate: every shipped claim, with its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each criterion is self-contained; numbered for reference in
the README.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from guesschain import (
    DiscriminationInstance,
    SimConfig,
    boundary_solution,
    build_chain,
    equal_prior_jbg,
    find_sb,
    individual_greedy,
    optimize_full_chain,
    optimize_reduced,
    run_chain_simulation,
    stationarity_residual,
)

# Grid used by criteria 4 and 5: overlaps kept below the two-receiver
# validity threshold (~0.75), matching the regime in which the
# optimal-vs-greedy gap is claimed to be small.
GAP_GRID_S = np.linspace(0.05, 0.5, 20)
GAP_GRID_ETA = np.linspace(0.025, 0.975, 20)

# Criterion 6 instance set: drawn once from a published master seed and
# frozen here (master 20260811; per-instance simulation seeds 1000 + i).
MC_MASTER_SEED = 20260811
MC_SIM_SEED_BASE = 1000
MC_TRIALS = 1_000_000


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


@pytest.fixture(scope="session")
def thresholds():
    """Validity thresholds for N = 2, 3, 4 plus the time spent finding them."""
    start = time.monotonic()
    values = {n: find_sb(n) for n in (2, 3, 4)}
    return values, time.monotonic() - start


def test_criterion_1_symmetric_closed_form(thresholds):
    """Optimizer matches the equal-prior closed form below threshold."""
    sb, _ = thresholds
    upper = {1: 0.98, 2: sb[2] - 0.02, 3: sb[3] - 0.02, 4: sb[4] - 0.02}
    start = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for s in np.linspace(0.01, upper[n], 50):
            inst = DiscriminationInstance(float(s), 0.5, n_receivers=n)
            dev = abs(
                optimize_reduced(inst).joint_success
                - equal_prior_jbg(float(s), n).joint_success
            )
            worst = max(worst, dev)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(1, "equal-prior closed form", ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_threshold_values(thresholds):
    """Thresholds land at ~0.75 (N=2), ~0.42 (N=3), and keep decreasing."""
    sb, elapsed = thresholds
    ok = (
        0.74 <= sb[2] <= 0.76
        and 0.41 <= sb[3] <= 0.43
        and sb[4] < sb[3]
        and elapsed < 60.0
    )
    _verdict(
        2,
        "validity thresholds",
        ok,
        f"s_b(2)={sb[2]:.4f}, s_b(3)={sb[3]:.4f}, s_b(4)={sb[4]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_chain_reduction():
    """Unreduced brute force reproduces the reduced optimum and t2 = sqrt(s)."""
    start = time.monotonic()
    resolution = 400
    worst_joint = 0.0
    worst_steps = 0.0
    for s in np.linspace(0.1, 0.9, 5):
        for eta1 in np.linspace(0.1, 0.9, 5):
            inst = DiscriminationInstance(float(s), float(eta1), n_receivers=2)
            found = optimize_full_chain(inst, resolution)
            reduced = optimize_reduced(inst)
            worst_joint = max(
                worst_joint, abs(found.joint_success - reduced.joint_success)
            )
            step = (1.0 - float(s)) / (resolution - 1)
            worst_steps = max(
                worst_steps,
                abs(found.intermediate_overlaps[0] - math.sqrt(float(s))) / step,
            )
    elapsed = time.monotonic() - start
    ok = worst_joint <= 1e-3 and worst_steps <= 2.0 and elapsed < 300.0
    _verdict(
        3,
        "chain reduction vs full search",
        ok,
        f"max joint dev {worst_joint:.2e}, max t2 dev {worst_steps:.2f} steps, {elapsed:.1f}s",
    )


def test_criterion_4_strategy_dominance():
    """Optimal dominates greedy and boundary; the greedy gap is small for
    two receivers and grows with chain length."""
    worst_margin = 0.0
    max_gap = {}
    for n in (2, 3, 4):
        gap = 0.0
        for s in GAP_GRID_S:
            for eta1 in GAP_GRID_ETA:
                inst = DiscriminationInstance(float(s), float(eta1), n_receivers=n)
                optimal = optimize_reduced(inst).joint_success
                greedy = individual_greedy(inst).joint_success
                if n in (2, 3):
                    pinned = boundary_solution(inst).joint_success
                    worst_margin = min(worst_margin, optimal - greedy, optimal - pinned)
                gap = max(gap, optimal - greedy)
        max_gap[n] = gap
    ok = worst_margin >= -1e-12 and max_gap[2] < 1e-2 and max_gap[4] > max_gap[2]
    _verdict(
        4,
        "strategy dominance",
        ok,
        f"worst margin {worst_margin:.1e}, gap N=2 {max_gap[2]:.2e}, N=4 {max_gap[4]:.2e}",
    )


def test_criterion_5_povm_validity():
    """Every stage built across the dominance grid passes the POVM axioms."""
    checked = 0
    for n in (2, 3):
        for s in GAP_GRID_S:
            for eta1 in GAP_GRID_ETA:
                inst = DiscriminationInstance(float(s), float(eta1), n_receivers=n)
                for solver in (optimize_reduced, individual_greedy, boundary_solution):
                    for stage in build_chain(inst, solver(inst)):
                        stage.validate()  # completeness/positivity/action/purity
                        checked += 1
    _verdict(5, "POVM validity", checked > 0, f"{checked} stages validated")


def test_criterion_6_monte_carlo_agreement():
    """Million-trial simulations agree with predictions to 4 sigma, jointly
    and per receiver, on 10 published random instances."""
    rng = np.random.default_rng(MC_MASTER_SEED)
    start = time.monotonic()
    worst = 0.0
    for i in range(10):
        s = round(float(rng.uniform(0.05, 0.9)), 6)
        eta1 = round(float(rng.uniform(0.1, 0.9)), 6)
        n = int(rng.integers(1, 5))
        inst = DiscriminationInstance(s, eta1, n_receivers=n)
        result = optimize_reduced(inst)
        stages = build_chain(inst, result)
        report = run_chain_simulation(
            inst,
            stages,
            SimConfig(seed=MC_SIM_SEED_BASE + i, trials=MC_TRIALS),
        )
        scores = [abs(report.z_score)]
        for k, (given1, given2) in enumerate(report.per_receiver_success):
            for empirical, predicted, count in (
                (given1, result.stages[k].p1, report.per_state_counts[0]),
                (given2, result.stages[k].p2, report.per_state_counts[1]),
            ):
                sigma = math.sqrt(max(predicted * (1.0 - predicted), 0.0) / count)
                if sigma > 0.0:
                    scores.append(abs(empirical - predicted) / sigma)
                elif empirical != predicted:
                    scores.append(math.inf)
        worst = max(worst, max(scores))
    elapsed = time.monotonic() - start
    ok = worst <= 4.0 and elapsed < 120.0
    _verdict(6, "Monte Carlo agreement", ok, f"worst |z| {worst:.2f}, {elapsed:.1f}s")


def test_criterion_7_stationarity_gradient():
    """Residual matches central finite differences of the reduced objective."""
    rng = np.random.default_rng(MC_MASTER_SEED)
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.05, 0.95))
        eta1 = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 5))
        inst = DiscriminationInstance(s, eta1, n_receivers=n)
        phi = math.asin(inst.effective_overlap)
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))

        def objective(t):
            return eta1 * math.cos(t) ** (2 * n) + (1.0 - eta1) * math.cos(
                phi - t
            ) ** (2 * n)

        h = 1e-6
        fd = (objective(theta + h) - objective(theta - h)) / (2.0 * h)
        analytic = -2.0 * n * stationarity_residual(math.cos(theta) ** 2, inst)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-300))
    ok = worst <= 1e-4
    _verdict(7, "stationarity gradient", ok, f"worst rel err {worst:.2e}")


def test_criterion_8_prior_washout():
    """Near-vanishing prior pins p2 = 1 and p1 = 1 - s for two receivers."""
    ok = True
    details = []
    for s in (0.3, 0.4, 0.5):
        inst = DiscriminationInstance(s, 1e-4, n_receivers=2)
        stage = optimize_reduced(inst).stages[0]
        ok &= stage.p2 >= 1.0 - 1e-3 and abs(stage.p1 - (1.0 - s)) <= 1e-2
        details.append(f"s={s}: p1={stage.p1:.4f}, p2={stage.p2:.6f}")
    _verdict(8, "prior washout", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path):
    """Same seed, same bytes: simulate JSON and the prior-sweep CSV."""
    simulate_args = [
        sys.executable, "-m", "guesschain.cli", "simulate",
        "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
        "--trials", "50000", "--seed", "20260811",
    ]
    runs = [subprocess.run(simulate_args, capture_output=True) for _ in range(2)]
    json_ok = (
        runs[0].stdout == runs[1].stdout
        and runs[0].returncode == runs[1].returncode == 0
        and json.loads(runs[0].stdout)["schema_version"] == 1
    )

    csv_bytes = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        sweep_args = [
            sys.executable, "-m", "guesschain.cli", "sweep",
            "--variable", "prior", "--points", "101", "--overlap", "0.5",
            "--receivers", "2", "--strategies", "JBG_OPTIMAL", "--out", str(path),
        ]
        code = subprocess.run(sweep_args, capture_output=True).returncode
        assert code == 0
        csv_bytes.append(path.read_bytes())
    csv_ok = csv_bytes[0] == csv_bytes[1] and csv_bytes[0].startswith(
        b"prior_1,jbg_optimal_joint_success,jbg_optimal_p1,jbg_optimal_p2\n"
        b"0.0,1.0,0.4999999999999999,1.0\n"
    )
    _verdict(9, "byte-level determinism", json_ok and csv_ok)
