"""Optimizer and the independent brute-force oracles."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guesschain import (
    DiscriminationInstance,
    Strategy,
    SweepGrid,
    boundary_solution,
    distinguishability,
    equal_prior_jbg,
    find_sb,
    grid_search_oracle,
    individual_greedy,
    optimize_full_chain,
    optimize_reduced,
)
from guesschain.core import p2_from_p1, theta_residual
from guesschain.optimize import BISECTION_STEPS, CANDIDATE_TOLERANCE, _solve_reduced

# Overlaps over [0, 1] with extra weight within 1e-12 of either end; priors
# with extra weight on 0, 0.5, 1, on 10^U(-16, -4) from 0 or 1, and on
# 0.5 +- k ulp (k = 1..40) or 0.5 +- 10^U(-16, -9).
OVERLAPS = st.one_of(
    st.floats(0.0, 1.0), st.floats(0.0, 1e-12), st.floats(1.0 - 1e-12, 1.0)
)
TINY = st.floats(-16.0, -4.0).map(lambda e: 10.0**e)
SIGN = st.sampled_from((-1.0, 1.0))
PRIORS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from((0.0, 0.5, 1.0)),
    TINY,
    TINY.map(lambda x: 1.0 - x),
    st.builds(lambda sign, k: 0.5 + sign * k * math.ulp(0.5), SIGN, st.integers(1, 40)),
    st.builds(lambda sign, e: 0.5 + sign * 10.0**e, SIGN, st.floats(-16.0, -9.0)),
)
# Overlaps 10^U(-30, -6), 1 - 10^U(-12, -1), or exactly 0 or 1: there g is
# flat to rounding or nearly so.
EXTREME_OVERLAPS = st.one_of(
    st.floats(-30.0, -6.0).map(lambda e: 10.0**e),
    st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e),
    st.sampled_from((0.0, 1.0)),
)
# Sweep axis values, valid or not: the edges of [0, 1], values just outside
# it, NaN and the infinities.
AXIS_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from((-0.0, -0.1, 1.5, 1.0 + 1e-15, -1e-300, math.nan, math.inf, -math.inf)),
)
# Chain lengths 1..200, weighted to short chains, where n * phi**2 gets smallest.
RECEIVERS = st.one_of(st.integers(1, 8), st.integers(1, 200))


def _threshold(n):
    """s_b(N) = ((2N - 1) / N**2)**(N/2): the symmetric pair is optimal up to it."""
    return ((2 * n - 1) / n**2) ** (n / 2)


# (N, overlap) pairs: any overlap, or one within 10^U(-16, -6) relative or
# 1..40 ulp of s_b(N) on either side, clipped to [0, 1].
CHAINS = st.one_of(
    st.tuples(RECEIVERS, st.one_of(OVERLAPS, EXTREME_OVERLAPS)),
    st.builds(
        lambda n, sign, e: (n, min(_threshold(n) * (1.0 + sign * 10.0**e), 1.0)),
        RECEIVERS, SIGN, st.floats(-16.0, -6.0),
    ),
    st.builds(
        lambda n, sign, k: (n, min(_threshold(n) + sign * k * math.ulp(_threshold(n)), 1.0)),
        RECEIVERS, SIGN, st.integers(1, 40),
    ),
)


class TestOptimizeReduced:
    def test_symmetric_regime_matches_closed_form(self):
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        result = optimize_reduced(inst)
        assert result.joint_success == pytest.approx(0.7285533905932737, abs=1e-12)
        np.testing.assert_allclose(
            result.stages[0], (0.8535533905932737, 0.8535533905932737), atol=1e-9
        )
        assert result.strategy is Strategy.JBG_OPTIMAL

    def test_certain_prior_is_free(self):
        inst = DiscriminationInstance(0.7, 1.0, n_receivers=3)
        result = optimize_reduced(inst)
        assert result.stages[0].p1 == pytest.approx(1.0, abs=1e-12)
        assert result.stages[0].p2 == pytest.approx(
            1.0 - 0.7 ** (2.0 / 3.0), abs=1e-9
        )
        assert result.joint_success == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_regime_beats_symmetric_formula(self):
        inst = DiscriminationInstance(0.9, 0.5, n_receivers=2)
        result = optimize_reduced(inst)
        symmetric = equal_prior_jbg(0.9, 2)
        assert result.joint_success > symmetric.joint_success + 1e-3
        # independent confirmation by plain exhaustive scan
        oracle = grid_search_oracle(inst, 2_000_001)
        assert result.joint_success == pytest.approx(oracle.joint_success, abs=1e-9)
        assert result.joint_success >= oracle.joint_success - 1e-12

    def test_stage_pair_is_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            inst = DiscriminationInstance(
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                n_receivers=int(rng.integers(1, 6)),
            )
            stage = optimize_reduced(inst).stages[0]
            assert distinguishability(*stage) == pytest.approx(
                inst.effective_overlap, abs=1e-9
            )

    def test_prior_swap_mirrors_exactly(self):
        a = optimize_reduced(DiscriminationInstance(0.6, 0.3, n_receivers=3))
        b = optimize_reduced(DiscriminationInstance(0.6, 0.7, n_receivers=3))
        assert a.joint_success == b.joint_success
        assert a.stages[0].p1 == b.stages[0].p2
        assert a.stages[0].p2 == b.stages[0].p1

    def test_dominates_alternative_strategies(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            inst = DiscriminationInstance(
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                n_receivers=int(rng.integers(1, 5)),
            )
            optimal = optimize_reduced(inst).joint_success
            assert optimal >= individual_greedy(inst).joint_success - 1e-12
            assert optimal >= boundary_solution(inst).joint_success - 1e-12

    def test_monotone_in_overlap(self):
        for eta1, n in ((0.5, 2), (0.3, 3)):
            joints = [
                optimize_reduced(
                    DiscriminationInstance(float(s), eta1, n_receivers=n)
                ).joint_success
                for s in np.linspace(0.0, 1.0, 100)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(joints, joints[1:]))

    def test_monotone_in_chain_length(self):
        for s, eta1 in ((0.3, 0.5), (0.7, 0.2), (0.5, 0.8)):
            joints = [
                optimize_reduced(
                    DiscriminationInstance(s, eta1, n_receivers=n)
                ).joint_success
                for n in range(1, 6)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(joints, joints[1:]))

    def test_prior_washout_limit(self):
        for s in (0.3, 0.5):
            last_p1 = None
            for eta1 in (1e-2, 1e-3, 1e-4):
                inst = DiscriminationInstance(s, eta1, n_receivers=2)
                stage = optimize_reduced(inst).stages[0]
                drift = abs(stage.p1 - (1.0 - s))
                if last_p1 is not None:
                    assert drift <= last_p1 + 1e-12
                last_p1 = drift
                assert eta1 * stage.p1 <= eta1
            assert stage.p2 >= 1.0 - 1e-3
            assert drift <= 1e-2

    @pytest.mark.parametrize("n", (2, 3, 5, 8, 16, 32))
    def test_equal_priors_return_the_larger_p1(self, n):
        # the mirror-image optima tie exactly; rounding must not pick p1 < p2,
        # and just off equal priors the likelier state gets the larger p
        for s in np.linspace(0.0, 1.0, 101):
            for prior in (0.5, 0.5000000000000001, 0.50000000001):
                p1, p2 = optimize_reduced(
                    DiscriminationInstance(float(s), prior, n_receivers=n)
                ).stages[0]
                assert p1 >= p2
                if prior > 0.5:
                    p1, p2 = optimize_reduced(
                        DiscriminationInstance(float(s), 1.0 - prior, n_receivers=n)
                    ).stages[0]
                    assert p1 <= p2

    def test_identical_states_single_receiver(self):
        result = optimize_reduced(DiscriminationInstance(1.0, 0.5, n_receivers=1))
        assert result.joint_success == pytest.approx(0.5, abs=1e-12)
        # tie resolves to the symmetric guessing point
        assert result.stages[0] == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_maximum_inside_first_scan_cell_beats_greedy(self):
        # the interior optimum lies within half a scan cell of theta1 = 0
        inst = DiscriminationInstance(0.1146, 0.9991, n_receivers=2)
        assert (
            optimize_reduced(inst).joint_success >= individual_greedy(inst).joint_success
        )

    def test_maximum_inside_first_scan_cell_matches_dense_scan(self):
        n, s, prior = 8, 0.1244375, 0.26129
        result = optimize_reduced(DiscriminationInstance(s, prior, n_receivers=n))
        # canonical frame: theta1 belongs to the likelier state (prior 1 - prior)
        phi = math.asin(s ** (1.0 / n))
        theta = np.linspace(0.0, 1e-3, 100_001)
        dense = (1.0 - prior) * np.cos(theta) ** (2 * n) + prior * np.cos(phi - theta) ** (2 * n)
        assert result.joint_success >= float(dense.max()) - 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 32), overlap=OVERLAPS, prior=PRIORS)
    def test_never_below_a_dense_scan(self, n, overlap, prior):
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        oracle = grid_search_oracle(inst, 20001)
        result = optimize_reduced(inst)
        assert result.joint_success >= oracle.joint_success - CANDIDATE_TOLERANCE
        # the likelier state never gets the smaller success probability
        p1, p2 = result.stages[0]
        if inst.prior_1 > inst.prior_2:
            assert p1 >= p2
        if inst.prior_2 > inst.prior_1:
            assert p2 >= p1

    def test_tiny_overlap_reaches_the_dense_scan(self):
        # n * phi**2 ~ 1e-13: a scan of g sees only its rounding staircase
        inst = DiscriminationInstance(1.9749263749934958e-13, 0.9481587685668622, n_receivers=2)
        oracle = grid_search_oracle(inst, 20001)
        assert optimize_reduced(inst).joint_success >= oracle.joint_success

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=RECEIVERS, overlap=EXTREME_OVERLAPS, prior=PRIORS)
    def test_within_four_ulp_of_a_dense_scan(self, n, overlap, prior):
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        oracle = grid_search_oracle(inst, 20001).joint_success
        assert optimize_reduced(inst).joint_success >= oracle - 4 * math.ulp(oracle)

    @pytest.mark.parametrize("n", (1, 2, 8, 200))
    @pytest.mark.parametrize("overlap", (0.3, 0.9, 1.0))
    def test_certain_state_is_always_guessed_right(self, n, overlap):
        # eta2 = 0: the residual is >= 0 on all of [0, phi/2], so theta1 = 0
        certain_1 = optimize_reduced(DiscriminationInstance(overlap, 1.0, n_receivers=n))
        certain_2 = optimize_reduced(DiscriminationInstance(overlap, 0.0, n_receivers=n))
        assert certain_1.stages[0].p1 == 1.0
        assert certain_2.stages[0].p2 == 1.0

    @pytest.mark.parametrize("n", (1, 2, 8, 200))
    @pytest.mark.parametrize("prior", (0.0, 0.3, 0.5, 1.0))
    def test_orthogonal_states_are_both_guessed_right(self, n, prior):
        result = optimize_reduced(DiscriminationInstance(0.0, prior, n_receivers=n))
        assert tuple(result.stages[0]) == (1.0, 1.0)
        assert result.joint_success == 1.0

    @pytest.mark.parametrize("n", (2, 3, 5, 8, 16, 32, 200))
    def test_equal_priors_below_threshold_give_the_half_angle_pair(self, n):
        s_b = ((2 * n - 1) / n**2) ** (n / 2)
        for s in np.linspace(0.0, s_b * (1.0 - 1e-9), 200):
            result = optimize_reduced(DiscriminationInstance(float(s), 0.5, n_receivers=n))
            s_eff = float(s) ** (1.0 / n)
            p = math.cos(0.5 * math.asin(s_eff)) ** 2
            q = p2_from_p1(p, s_eff)
            assert tuple(result.stages[0]) == (max(p, q), min(p, q))


# An 81x81 (overlap, prior) sweep grid, and the (overlap, prior) indices of
# the 19 points whose N = 2 bytes change on an AVX-512 host when np.power
# gives every power of the batched residual.
GRID81 = np.linspace(0.0, 1.0, 81).tolist()
POWER_SENSITIVE = (
    (12, 38), (15, 41), (29, 26), (32, 29), (39, 34), (40, 27), (40, 30),
    (40, 50), (42, 26), (45, 41), (47, 39), (47, 44), (49, 37), (49, 43),
    (50, 47), (51, 49), (52, 37), (52, 43), (56, 39),
)


@functools.cache
def _grid81_singles(n):
    """float.hex of optimize_reduced's (p1, p2, joint) at every GRID81 x GRID81
    point, row-major."""
    return [
        _hexes(*result.stages[0], result.joint_success)
        for result in (
            optimize_reduced(DiscriminationInstance(s, prior, n_receivers=n))
            for s in GRID81
            for prior in GRID81
        )
    ]


def _hexes(*values):
    return tuple(float(x).hex() for x in values)


def _grid_hexes(p1, p2, joint):
    return list(map(_hexes, p1.ravel(), p2.ravel(), joint.ravel()))


def _off_by_ulps(fn, rng):
    """fn with each result moved by 1 or 2 ulp up or down, drawn per element."""

    def perturbed(x):
        y = fn(x)
        k = rng.choice([-2, -1, 1, 2], size=np.shape(y))
        for step in (1, 2):
            y = np.where(np.abs(k) >= step, np.nextafter(y, k * np.inf), y)
        return y

    return perturbed


class TestSweepGridOptimal:
    # Priors mixed within a row and overlaps within a column, so that a wrong
    # elementwise mirror or mask shows up; the overlaps include the edges
    # where g is flat to rounding. float.hex keeps -0.0 apart from 0.0.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(
        n=2,
        overlaps=[GRID81[i] for i, _ in POWER_SENSITIVE],
        priors=[GRID81[j] for _, j in POWER_SENSITIVE],
    )
    # here cos(theta*) ** 2 and cos(theta*) * cos(theta*) differ in the last bit
    @example(n=8, overlaps=[1.5599758488330027e-07], priors=[0.41769519813010114])
    @given(
        n=RECEIVERS,
        overlaps=st.lists(st.one_of(OVERLAPS, EXTREME_OVERLAPS), min_size=1, max_size=8),
        priors=st.lists(PRIORS, min_size=1, max_size=8),
    )
    def test_bit_identical_to_single_solves(self, n, overlaps, priors):
        got = _grid_hexes(*SweepGrid(overlaps, priors, n).optimal())
        singles = [
            optimize_reduced(DiscriminationInstance(s, prior, n_receivers=n))
            for s in overlaps
            for prior in priors
        ]
        assert got == [_hexes(*r.stages[0], r.joint_success) for r in singles]

    @pytest.mark.parametrize("n", (2, 3))
    def test_sweep_grid_bit_identical_to_single_solves(self, n):
        assert _grid_hexes(*SweepGrid(GRID81, GRID81, n).optimal()) == _grid81_singles(n)

    @pytest.mark.parametrize("n", (2, 3, 8, 200))
    def test_bits_do_not_depend_on_numpy_cos_and_sin(self, n, monkeypatch):
        """The bisection decides every step as the C library's cos and sin
        would, even where np.cos and np.sin round 1-2 ulp away from them."""
        rng = np.random.default_rng(n)
        monkeypatch.setattr(np, "cos", _off_by_ulps(np.cos, rng))
        monkeypatch.setattr(np, "sin", _off_by_ulps(np.sin, rng))
        assert _grid_hexes(*SweepGrid(GRID81, GRID81, n).optimal()) == _grid81_singles(n)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        overlaps=st.lists(AXIS_VALUES, min_size=1, max_size=4),
        priors=st.lists(AXIS_VALUES, min_size=1, max_size=4),
        n=st.integers(-1, 3),
    )
    def test_axes_raise_the_first_error_in_row_major_order(self, overlaps, priors, n):
        """The grid raises what building each point's instance in row-major
        order would raise first, or nothing when every point is valid."""
        expected = None
        try:
            for s in overlaps:
                for prior in priors:
                    DiscriminationInstance(s, prior, n_receivers=n)
        except ValueError as exc:
            expected = str(exc)
        try:
            SweepGrid(overlaps, priors, n)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ValueError, match="at least one overlap and one prior"):
            SweepGrid([0.5], [], 2)


def _reference_solve_reduced(s_eff, n, eta1, eta2):
    """The scalar solver without shortcuts: bisect core.theta_residual
    BISECTION_STEPS times on [0, phi/2], evaluate both the bisected point and
    phi/2, and keep phi/2 in the symmetric case or on a tie."""
    phi = math.asin(s_eff)
    lo, hi = 0.0, 0.5 * phi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if theta_residual(mid, phi, eta1, eta2, n) < 0.0:
            lo = mid
        else:
            hi = mid

    def evaluate(theta):
        p1 = math.cos(theta) ** 2
        p2 = p2_from_p1(p1, s_eff)
        return p1, p2, eta1 * p1**n + eta2 * p2**n

    p1, p2, joint = evaluate(0.5 * (lo + hi))
    at_half = evaluate(0.5 * phi)
    if (eta1 == eta2 and n * math.cos(phi) >= n - 1) or at_half[2] >= joint:
        p1, p2, joint = at_half
    if p1 < p2:
        p1, p2 = p2, p1
    return p1, p2, eta1 * p1**n + eta2 * p2**n


class TestScalarLoop:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @example(chain=(2, 0.5), prior=0.5)
    @example(chain=(2, 0.75), prior=0.5)
    @example(chain=(8, 1.0), prior=0.5)
    @given(chain=CHAINS, prior=st.one_of(st.sampled_from((0.5, 0.0, 1.0)), PRIORS))
    def test_bit_identical_to_the_reference_loop(self, chain, prior):
        n, overlap = chain
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        eta1, eta2 = max(inst.prior_1, inst.prior_2), min(inst.prior_1, inst.prior_2)
        args = (inst.effective_overlap, n, eta1, eta2)
        got = _solve_reduced(*args)
        assert [x.hex() for x in got] == [x.hex() for x in _reference_solve_reduced(*args)]


class TestUnimodality:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=RECEIVERS, overlap=st.one_of(OVERLAPS, EXTREME_OVERLAPS), prior=PRIORS)
    def test_objective_rises_then_falls_on_the_likelier_half(self, n, overlap, prior):
        # the proof in the optimize module docstring, checked without the solver
        eta1, eta2 = max(prior, 1.0 - prior), min(prior, 1.0 - prior)
        phi = math.asin(overlap ** (1.0 / n))
        theta = np.linspace(0.0, 0.5 * phi, 4001)
        g = eta1 * np.cos(theta) ** (2 * n) + eta2 * np.cos(phi - theta) ** (2 * n)
        peak = int(np.argmax(g))
        rounding = 16 * math.ulp(float(g[peak]))
        assert np.diff(g[: peak + 1]).min(initial=0.0) >= -rounding
        assert np.diff(g[peak:]).max(initial=0.0) <= rounding


class TestGridSearchOracle:
    def test_agrees_with_closed_form(self):
        oracle = grid_search_oracle(DiscriminationInstance(0.25, 0.5, n_receivers=2), 10**6)
        assert oracle.joint_success == pytest.approx(0.8705127018922193, abs=1e-10)

    def test_orthogonal_states(self):
        oracle = grid_search_oracle(DiscriminationInstance(0.0, 0.2, n_receivers=3), 101)
        assert oracle.joint_success == 1.0

    def test_identical_states_single_receiver(self):
        oracle = grid_search_oracle(DiscriminationInstance(1.0, 0.5, n_receivers=1), 1001)
        assert oracle.joint_success == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_convergence(self):
        inst = DiscriminationInstance(0.4, 0.3, n_receivers=2)
        exact = optimize_reduced(inst).joint_success
        err = [exact - grid_search_oracle(inst, r).joint_success for r in (100, 1000)]
        assert err[1] <= err[0] / 50.0 + 1e-14

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            grid_search_oracle(DiscriminationInstance(0.5, 0.5), 9)


class TestFullChainOracle:
    def test_two_receivers_equal_priors(self):
        """Best unreduced chain lands on t2 = sqrt(s) with equal stages."""
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        found = optimize_full_chain(inst, 400)
        step = (1.0 - 0.5) / 399
        assert abs(found.intermediate_overlaps[0] - math.sqrt(0.5)) <= 2 * step
        theta_step = math.pi / 2 / 399
        for i in (0, 1):
            assert abs(found.stages[0][i] - found.stages[1][i]) <= theta_step

    def test_two_receivers_unequal_priors(self):
        inst = DiscriminationInstance(0.4, 0.3, n_receivers=2)
        found = optimize_full_chain(inst, 400)
        reduced = optimize_reduced(inst)
        assert found.joint_success == pytest.approx(reduced.joint_success, abs=1e-3)
        assert found.joint_success <= reduced.joint_success + 1e-9

    def test_orthogonal_states(self):
        found = optimize_full_chain(DiscriminationInstance(0.0, 0.5, n_receivers=2), 50)
        assert found.joint_success == pytest.approx(1.0, abs=1e-12)

    def test_chained_constraints_hold_at_winner(self):
        inst = DiscriminationInstance(0.5, 0.35, n_receivers=2)
        found = optimize_full_chain(inst, 200)
        t2 = found.intermediate_overlaps[0]
        assert distinguishability(*found.stages[0]) * t2 == pytest.approx(
            inst.overlap, abs=1e-6
        )
        assert distinguishability(*found.stages[1]) == pytest.approx(t2, abs=1e-9)

    def test_three_receivers(self):
        inst = DiscriminationInstance(0.4, 0.5, n_receivers=3)
        found = optimize_full_chain(inst, 30)
        reduced = optimize_reduced(inst)
        assert found.joint_success == pytest.approx(reduced.joint_success, abs=5e-3)
        assert found.joint_success <= reduced.joint_success + 1e-9
        np.testing.assert_allclose(
            found.intermediate_overlaps,
            (0.4 ** (2.0 / 3.0), 0.4 ** (1.0 / 3.0)),
            atol=0.05,
        )

    def test_unsupported_chain_length(self):
        with pytest.raises(ValueError):
            optimize_full_chain(DiscriminationInstance(0.5, 0.5, n_receivers=4), 50)
        with pytest.raises(ValueError):
            optimize_full_chain(DiscriminationInstance(0.5, 0.5, n_receivers=2), 10)


class TestThreshold:
    def test_two_receivers(self):
        assert 0.74 <= find_sb(2) <= 0.76

    def test_three_receivers(self):
        assert 0.41 <= find_sb(3) <= 0.43

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2, 0.7500055074691774),
            (3, 0.4140924053192139),
            (4, 0.1914111042022705),
            (5, 0.07776296424865725),
            (6, 0.028529219627380375),
            (7, 0.00961962032318115),
            (8, 0.0030182189941406253),
        ],
    )
    def test_values_are_pinned(self, n, expected):
        assert find_sb(n) == expected

    def test_decreases_with_chain_length(self):
        assert find_sb(4) < find_sb(3) < find_sb(2)

    def test_joint_success_continuous_across_threshold(self):
        threshold = find_sb(2)
        below = optimize_reduced(
            DiscriminationInstance(threshold - 1e-7, 0.5, n_receivers=2)
        ).joint_success
        above = optimize_reduced(
            DiscriminationInstance(threshold + 1e-7, 0.5, n_receivers=2)
        ).joint_success
        assert abs(above - below) <= 1e-6

    def test_rejects_single_receiver(self):
        with pytest.raises(ValueError):
            find_sb(1)
