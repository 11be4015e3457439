"""Closed-form layer: constraint function, branches, stationarity, strategies."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesschain import (
    DiscriminationInstance,
    MAX_RECEIVERS,
    Strategy,
    boundary_solution,
    cli,
    distinguishability,
    equal_prior_jbg,
    helstrom_bound,
    helstrom_success_pair,
    individual_greedy,
    overlap_ladder,
    p2_from_p1,
    stationarity_residual,
)


class TestDistinguishability:
    def test_perfect_pair_costs_nothing(self):
        assert distinguishability(1.0, 1.0) == 0.0

    def test_guessing_pair_costs_everything(self):
        assert distinguishability(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_one_sided_pair(self):
        assert distinguishability(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_helstrom_point(self):
        """The equal-prior point for budget 0.5 spends exactly 0.5."""
        p = 0.5 * (1.0 + math.sqrt(1.0 - 0.25))
        assert p == pytest.approx(0.9330127018922193, abs=1e-15)
        assert distinguishability(p, p) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(42)
        for a, b in rng.uniform(0.0, 1.0, size=(500, 2)):
            assert distinguishability(a, b) == distinguishability(b, a)
        for p in rng.uniform(0.0, 1.0, size=500):
            expected = 2.0 * math.sqrt(p * (1.0 - p))
            assert distinguishability(p, p) == pytest.approx(expected, abs=1e-14)

    def test_maximized_at_half(self):
        assert distinguishability(0.5, 0.5) >= distinguishability(0.3, 0.7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            distinguishability(-0.001, 0.5)
        with pytest.raises(ValueError):
            distinguishability(0.5, 1.001)
        # 1e-12 slack is roundoff, not a caller bug
        assert distinguishability(1.0 + 5e-13, 0.0) == pytest.approx(1.0, abs=1e-11)


class TestP2FromP1:
    def test_symmetric_fixed_point(self):
        for s_eff in (0.1, 0.5, 0.9):
            p = 0.5 * (1.0 + math.sqrt(1.0 - s_eff**2))
            assert p2_from_p1(p, s_eff) == pytest.approx(p, abs=1e-13)

    def test_pinned_first_probability(self):
        assert p2_from_p1(1.0, 0.6) == pytest.approx(0.64, abs=1e-15)

    def test_frozen_value_with_roundtrip(self):
        """Value frozen after confirming the constraint is saturated."""
        value = p2_from_p1(0.9, 0.5)
        assert value == pytest.approx(0.9598076211353318, abs=1e-15)
        assert distinguishability(0.9, value) == pytest.approx(0.5, abs=1e-10)

    def test_plus_branch_dominates_minus(self):
        rng = np.random.default_rng(7)
        for p1, s_eff in rng.uniform(0.0, 1.0, size=(500, 2)):
            root = s_eff * math.sqrt(1.0 - p1) - math.sqrt(p1 * (1.0 - s_eff * s_eff))
            minus = min(root * root, 1.0)
            assert p2_from_p1(p1, s_eff) >= minus - 1e-15

    def test_constraint_saturated_on_feasible_region(self):
        """Round trip D(p1, p2(p1)) = s_eff wherever p1 >= 1 - s_eff^2."""
        grid = np.linspace(0.0, 1.0, 33)
        for s_eff in grid:
            for p1 in grid:
                if p1 < 1.0 - s_eff**2:
                    continue
                p2 = p2_from_p1(float(p1), float(s_eff))
                assert distinguishability(float(p1), p2) == pytest.approx(
                    float(s_eff), abs=1e-10
                )

    def test_signed_constraint_everywhere(self):
        """On the full unit square the branch satisfies the signed budget
        relation: sqrt(p2(1-p1)) +/- sqrt(p1(1-p2)) = s_eff, with the minus
        sign taking over below p1 = 1 - s_eff^2 (there the returned p2 is
        still the larger of the two realizable values)."""
        grid = np.linspace(0.0, 1.0, 33)
        for s_eff in grid:
            for p1 in grid:
                p2 = p2_from_p1(float(p1), float(s_eff))
                sign = 1.0 if p1 >= 1.0 - s_eff**2 else -1.0
                relation = math.sqrt(p2 * (1.0 - p1)) + sign * math.sqrt(
                    p1 * (1.0 - p2)
                )
                assert relation == pytest.approx(float(s_eff), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            p2_from_p1(1.1, 0.5)
        with pytest.raises(ValueError):
            p2_from_p1(0.5, -0.1)


class TestStationarityResidual:
    def test_symmetric_point_is_root_for_equal_priors(self):
        for s_eff in np.linspace(0.01, 0.99, 100):
            n = 2
            inst = DiscriminationInstance(float(s_eff) ** n, 0.5, n_receivers=n)
            p = 0.5 * (1.0 + math.sqrt(1.0 - float(s_eff) ** 2))
            assert abs(stationarity_residual(p, inst)) <= 1e-9

    def test_vanishing_first_prior_root(self):
        """With no weight on state 1 the root sits at p1 = 1 - s_eff^2."""
        inst = DiscriminationInstance(0.5, 0.0, n_receivers=2)
        root = 1.0 - inst.effective_overlap**2
        assert abs(stationarity_residual(root, inst)) <= 1e-12
        # the residual is signed around the root: it equals -g'(theta)/(2N)
        # and p1 decreases with theta, so below the root (theta past the
        # objective's peak) the residual is positive
        assert stationarity_residual(root - 0.01, inst) > 0.0
        assert stationarity_residual(root + 0.01, inst) < 0.0

    def test_matches_objective_derivative(self):
        """residual == -g'(theta1)/(2N) for the reduced objective, checked
        against central finite differences of an independent evaluation."""
        rng = np.random.default_rng(3)
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
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-300)
            assert rel <= 1e-4

    def test_domain_errors_at_endpoints(self):
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        for bad in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                stationarity_residual(bad, inst)


class TestEqualPriorSolution:
    def test_orthogonal_states_are_free(self):
        result = equal_prior_jbg(0.0, 3)
        assert result.joint_success == 1.0
        assert all(stage == (1.0, 1.0) for stage in result.stages)

    def test_identical_states_force_guessing(self):
        result = equal_prior_jbg(1.0, 2)
        assert result.joint_success == pytest.approx(0.25, abs=1e-15)
        assert all(stage == (0.5, 0.5) for stage in result.stages)

    def test_frozen_two_receiver_value(self):
        result = equal_prior_jbg(0.25, 2)
        assert result.joint_success == pytest.approx(0.8705127018922193, abs=1e-15)
        assert result.stages[0].p1 == pytest.approx(0.9330127018922193, abs=1e-15)
        assert result.strategy is Strategy.JBG_SYMMETRIC_ANALYTIC

    def test_single_receiver_reduces_to_helstrom(self):
        for s in np.linspace(0.0, 1.0, 101):
            expected = 0.5 * (1.0 + math.sqrt(1.0 - float(s) ** 2))
            assert equal_prior_jbg(float(s), 1).joint_success == expected

    def test_overlap_ladder(self):
        np.testing.assert_allclose(overlap_ladder(0.25, 2), (0.25, 0.5), atol=1e-15)
        # the arriving overlaps never decrease along the chain
        for s, n in ((0.3, 4), (0.9, 3), (0.0, 2), (1.0, 5)):
            ladder = overlap_ladder(s, n)
            assert all(a <= b + 1e-15 for a, b in zip(ladder, ladder[1:]))

    def test_joint_recomputable_from_stages(self):
        result = equal_prior_jbg(0.37, 4)
        assert result.recompute_joint(0.5, 0.5) == pytest.approx(
            result.joint_success, abs=1e-12
        )


def _helstrom_projector_pair(overlap, eta1, eta2):
    """Independent oracle: eigen-projector of the weighted state difference."""
    alpha = 0.5 * math.acos(overlap)
    psi1 = np.array([math.cos(alpha), math.sin(alpha)])
    psi2 = np.array([math.cos(alpha), -math.sin(alpha)])
    gamma = eta1 * np.outer(psi1, psi1) - eta2 * np.outer(psi2, psi2)
    eigvals, eigvecs = np.linalg.eigh(gamma)
    positive = eigvecs[:, eigvals > 0.0]
    proj1 = positive @ positive.T
    p1 = float(psi1 @ proj1 @ psi1)
    p2 = float(psi2 @ (np.eye(2) - proj1) @ psi2)
    return p1, p2


class TestHelstromPair:
    def test_matches_eigenprojector_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            overlap = float(rng.uniform(0.0, 0.999))
            eta1 = float(rng.uniform(0.05, 0.95))
            pair = helstrom_success_pair(overlap, eta1, 1.0 - eta1)
            oracle = _helstrom_projector_pair(overlap, eta1, 1.0 - eta1)
            np.testing.assert_allclose(pair, oracle, atol=1e-11)

    def test_pair_saturates_budget_and_average(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            overlap = float(rng.uniform(0.0, 0.999))
            eta1 = float(rng.uniform(0.0, 1.0))
            pair = helstrom_success_pair(overlap, eta1, 1.0 - eta1)
            assert distinguishability(*pair) == pytest.approx(overlap, abs=1e-9)
            average = eta1 * pair.p1 + (1.0 - eta1) * pair.p2
            assert average == pytest.approx(
                helstrom_bound(overlap, eta1, 1.0 - eta1), abs=1e-12
            )

    def test_degenerate_identical_states_equal_priors(self):
        assert helstrom_success_pair(1.0, 0.5, 0.5) == (0.5, 0.5)

    def test_identical_states_guess_the_likelier_exactly(self):
        assert helstrom_success_pair(1.0, 0.3, 0.7) == (0.0, 1.0)
        assert helstrom_success_pair(1.0, 0.7, 0.3) == (1.0, 0.0)


class TestIndividualGreedy:
    def test_equal_priors_reduce_to_symmetric_point(self):
        inst = DiscriminationInstance(0.3, 0.5, n_receivers=3)
        greedy = individual_greedy(inst)
        symmetric = equal_prior_jbg(0.3, 3)
        np.testing.assert_allclose(greedy.stages[0], symmetric.stages[0], atol=1e-14)

    def test_certain_prior(self):
        inst = DiscriminationInstance(0.5, 1.0, n_receivers=2)
        greedy = individual_greedy(inst)
        s2 = 0.5  # s**(2/N)
        assert greedy.stages[0].p1 == 1.0
        assert greedy.stages[0].p2 == pytest.approx(1.0 - s2, abs=1e-15)
        assert greedy.joint_success == pytest.approx(1.0, abs=1e-15)

    def test_frozen_unequal_prior_value(self):
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        greedy = individual_greedy(inst)
        stage = greedy.stages[0]
        average = 0.3 * stage.p1 + 0.7 * stage.p2
        assert average == pytest.approx(0.8807886552931954, abs=1e-12)
        assert greedy.joint_success == pytest.approx(0.790271413913885, abs=1e-14)

    def test_per_stage_average_identity_on_grid(self):
        for s in np.linspace(0.0, 0.99, 12):
            for eta1 in np.linspace(0.0, 1.0, 11):
                for n in (1, 2, 4):
                    inst = DiscriminationInstance(float(s), float(eta1), n_receivers=n)
                    stage = individual_greedy(inst).stages[0]
                    average = eta1 * stage.p1 + (1.0 - eta1) * stage.p2
                    expected = helstrom_bound(inst.effective_overlap, float(eta1), 1.0 - float(eta1))
                    assert average == pytest.approx(expected, abs=1e-12)

    def test_degenerate_identical_states(self):
        inst = DiscriminationInstance(1.0, 0.5, n_receivers=2)
        assert individual_greedy(inst).stages[0] == (0.5, 0.5)


class TestBoundarySolution:
    def test_equal_priors(self):
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        result = boundary_solution(inst)
        assert result.joint_success == pytest.approx(0.625, abs=1e-15)
        assert result.stages[0] == (0.5, 1.0)
        assert result.strategy is Strategy.BOUNDARY

    def test_orthogonal_states(self):
        assert boundary_solution(DiscriminationInstance(0.0, 0.3, n_receivers=4)).joint_success == 1.0

    def test_identical_states_guess_the_likelier(self):
        inst = DiscriminationInstance(1.0, 0.3, n_receivers=1)
        result = boundary_solution(inst)
        assert result.joint_success == pytest.approx(0.7, abs=1e-15)
        assert result.stages[0] == (0.0, 1.0)

    def test_picks_the_better_side(self):
        lopsided = boundary_solution(DiscriminationInstance(0.5, 0.9, n_receivers=2))
        assert lopsided.stages[0].p1 == 1.0  # pin the likelier state


class TestUniformChains:
    """Every strategy, as ``optimize`` solves it, is a chain of N receivers
    that share one pair, with an arriving overlap for each."""

    OVERLAPS = st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.floats(-30.0, -6.0).map(lambda e: 10.0**e),
        st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        st.floats(0.0, 1.0),
    )
    PRIORS = st.one_of(
        st.sampled_from((0.0, 0.5, 1.0)),
        st.builds(
            lambda sign, k: 0.5 + sign * k * math.ulp(0.5),
            st.sampled_from((-1.0, 1.0)),
            st.integers(1, 40),
        ),
        st.floats(0.0, 1.0),
    )

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 200), overlap=OVERLAPS, prior=PRIORS)
    def test_every_builder_is_a_uniform_chain(self, n, overlap, prior):
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        for strategy in Strategy:
            result = cli._solve(inst, strategy)
            assert result.strategy is strategy
            assert result.stages == (result.stages[0],) * n
        assert len(overlap_ladder(overlap, n)) == n


class TestDiscriminationInstance:
    def test_prior_2_defaults_to_complement(self):
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        assert inst.prior_2 == pytest.approx(0.7, abs=1e-15)
        assert inst.prior_2 == 1.0 - inst.prior_1
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.prior_2 = 0.7

    def test_old_prior_2_calls_raise_typed_errors(self):
        # The old third positional argument, prior_2, now lands in n_receivers.
        with pytest.raises(ValueError, match="^n_receivers"):
            DiscriminationInstance(0.5, 0.3, 0.7)
        with pytest.raises(TypeError):
            DiscriminationInstance(0.5, 0.3, prior_2=0.7)

    def test_receivers_bound(self):
        assert DiscriminationInstance(0.5, 0.3, MAX_RECEIVERS).n_receivers == MAX_RECEIVERS
        for n in (MAX_RECEIVERS + 1, 2**61, 10**20):
            with pytest.raises(ValueError, match=f"MAX_RECEIVERS = {MAX_RECEIVERS}, got {n}$"):
                DiscriminationInstance(0.5, 0.3, n)
            with pytest.raises(ValueError, match=f"MAX_RECEIVERS = {MAX_RECEIVERS}"):
                equal_prior_jbg(0.5, n)
        assert len(equal_prior_jbg(0.5, MAX_RECEIVERS).stages) == MAX_RECEIVERS

    def test_effective_overlap(self):
        inst = DiscriminationInstance(0.25, 0.5, n_receivers=2)
        assert inst.effective_overlap == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"overlap": -0.1, "prior_1": 0.5},
            {"overlap": 1.5, "prior_1": 0.5},
            {"overlap": 0.5, "prior_1": -0.2},
            {"overlap": 0.5, "prior_1": 0.5, "n_receivers": MAX_RECEIVERS + 1},
            {"overlap": 0.5, "prior_1": 0.5, "n_receivers": 0},
            {"overlap": 0.5, "prior_1": 0.5, "n_receivers": 2.0},
            {"overlap": float("nan"), "prior_1": 0.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DiscriminationInstance(**kwargs)
