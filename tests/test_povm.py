"""Detection-operator construction and POVM axioms."""

import ast
import dataclasses
import importlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesschain import (
    DegenerateInput,
    DiscriminationInstance,
    InfeasibleStage,
    MeasurementStage,
    QubitState,
    SuccessPair,
    build_chain,
    build_stage,
    distinguishability,
    equal_prior_jbg,
    individual_greedy,
    boundary_solution,
    make_state_pair,
    optimize_reduced,
    overlap_ladder,
    p2_from_p1,
)
from guesschain.povm import STAGE_ATOL, _amplitudes


class TestStatePair:
    def test_identical(self):
        a, b = make_state_pair(1.0)
        np.testing.assert_allclose(np.array(a.amplitudes), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(np.array(b.amplitudes), [1.0, 0.0], atol=1e-15)

    def test_orthogonal(self):
        a, b = make_state_pair(0.0)
        assert abs(np.vdot(np.array(a.amplitudes), np.array(b.amplitudes))) <= 1e-15
        np.testing.assert_allclose(
            np.array(a.amplitudes), [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15
        )

    def test_overlap_is_exact(self):
        for overlap in np.linspace(0.0, 1.0, 101):
            a, b = make_state_pair(float(overlap))
            assert np.vdot(np.array(a.amplitudes), np.array(b.amplitudes)).real == pytest.approx(
                float(overlap), abs=1e-14
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_state_pair(1.2)


class TestQubitState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            QubitState((1.0, 1.0))

    @pytest.mark.parametrize("amplitudes", [(math.nan, 0.0), (math.nan, math.nan)])
    def test_rejects_nan_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="not normalized"):
            QubitState(amplitudes)

    def test_rejects_imaginary_amplitudes(self):
        with pytest.raises(ValueError, match="imaginary"):
            QubitState((0.6j, 0.8j))
        with pytest.raises(ValueError, match="imaginary"):
            QubitState((np.complex128(0.6 + 1e-3j), 0.8))
        assert QubitState((0.6 + 0j, 0.8)).amplitudes == (0.6, 0.8)

    def test_fidelity_ignores_phase(self):
        a = QubitState((0.6, 0.8))
        b = QubitState((-0.6, -0.8))
        assert a.fidelity(b) == pytest.approx(1.0, abs=1e-15)


def _feasible_stage_inputs(rng):
    """Random feasible (in_overlap, success, out_overlap) triple."""
    s_eff = float(rng.uniform(0.0, 1.0))
    out = float(rng.uniform(0.0, 1.0))
    theta = float(rng.uniform(0.0, math.asin(s_eff) if s_eff > 0 else 0.0))
    p1 = math.cos(theta) ** 2
    p2 = p2_from_p1(p1, s_eff)
    in_overlap = s_eff * out
    return in_overlap, SuccessPair(p1, p2), out


class TestBuildStage:
    def test_projective_on_orthogonal_inputs(self):
        stage = build_stage(0.0, SuccessPair(1.0, 1.0), 0.0)
        b1, b2 = map(np.array, stage.detectors)
        psi1, psi2 = (np.array(state.amplitudes) for state in make_state_pair(0.0))
        output = np.array(stage.outputs[0].amplitudes)
        np.testing.assert_allclose(b1 @ psi1, output, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(b1 @ psi2), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(b2 @ psi1), 0.0, atol=1e-12)
        gram = b1.conj().T @ b1 + b2.conj().T @ b2
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)

    def test_symmetric_stage_invariants(self):
        p = 0.8535533905932737  # equal-prior point for budget sqrt(0.5)
        stage = build_stage(
            0.5, SuccessPair(p, p), math.sqrt(0.5)
        )
        stage.validate()
        assert stage.out_overlap == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_born_rule_reproduces_success_pair(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            in_overlap, success, out = _feasible_stage_inputs(rng)
            stage = build_stage(in_overlap, success, out)
            b1, b2 = map(np.array, stage.detectors)
            psi1, psi2 = (np.array(state.amplitudes) for state in make_state_pair(in_overlap))
            got1 = np.vdot(psi1, (b1.conj().T @ b1) @ psi1).real
            got2 = np.vdot(psi2, (b2.conj().T @ b2) @ psi2).real
            assert got1 == pytest.approx(success.p1, abs=1e-10)
            assert got2 == pytest.approx(success.p2, abs=1e-10)

    def test_posterior_is_pure_for_both_outcomes(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            in_overlap, success, out = _feasible_stage_inputs(rng)
            stage = build_stage(in_overlap, success, out)
            for state, expected in zip(make_state_pair(in_overlap), stage.outputs):
                for detector in map(np.array, stage.detectors):
                    image = detector @ np.array(state.amplitudes)
                    norm = np.linalg.norm(image)
                    if norm < 1e-8:
                        continue
                    fidelity = abs(np.vdot(np.array(expected.amplitudes), image / norm)) ** 2
                    assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_rejects_budget_violations(self):
        in_overlap, success, out = 0.5, SuccessPair(0.8, 0.9), None
        budget = distinguishability(0.8, 0.9)
        exact_out = 0.5 / budget
        build_stage(in_overlap, success, exact_out)  # feasible
        for off in (1e-6, -1e-6):
            with pytest.raises(InfeasibleStage):
                build_stage(in_overlap, success, exact_out * (1.0 + off * 50))
        # perturbing the success pair instead of the overlap also rejects
        with pytest.raises(InfeasibleStage):
            build_stage(in_overlap, SuccessPair(0.8 + 1e-4, 0.9), exact_out)

    def test_identical_inputs_merge_or_reject(self):
        stage = build_stage(1.0, SuccessPair(0.5, 0.5), 1.0)
        b1, b2 = map(np.array, stage.detectors)
        gram = b1.conj().T @ b1 + b2.conj().T @ b2
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)
        psi = np.array(make_state_pair(1.0)[0].amplitudes)
        np.testing.assert_allclose(
            np.linalg.norm(b1 @ psi), math.sqrt(0.5), atol=1e-12
        )
        with pytest.raises(DegenerateInput):
            build_stage(1.0, SuccessPair(0.5, 0.5), 0.7)
        with pytest.raises(InfeasibleStage):
            build_stage(1.0, SuccessPair(0.9, 0.9), 1.0)

    def test_nearly_identical_inputs_merged_without_learning(self):
        # psi1 - psi2 has no image here, as for identical inputs
        stage = build_stage(1.0 - 1e-10, SuccessPair(0.5, 0.5), 1.0)
        stage.validate()

    def test_pinned_success_stage(self):
        # p2 = 1 forces p1 = 1 - s_eff^2; the guess-2 detector is rank one
        s_eff = 0.6
        stage = build_stage(
            s_eff, SuccessPair(1.0 - s_eff**2, 1.0), 1.0
        )
        stage.validate()
        assert np.linalg.matrix_rank(stage.detectors[0], tol=1e-12) == 1


class TestBuildChain:
    def test_two_receiver_symmetric_chain(self):
        inst = DiscriminationInstance(0.25, 0.5, n_receivers=2)
        stages = build_chain(inst, equal_prior_jbg(inst))
        assert len(stages) == 2
        np.testing.assert_allclose(
            [stage.in_overlap for stage in stages], [0.25, 0.5], atol=1e-12
        )
        assert stages[0].success.p1 == pytest.approx(0.9330127018922193, abs=1e-12)
        assert stages[-1].out_overlap == 1.0

    def test_single_receiver_merges_outputs(self):
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=1)
        stages = build_chain(inst, individual_greedy(inst))
        assert len(stages) == 1
        assert stages[0].out_overlap == 1.0
        assert stages[0].outputs[0].fidelity(stages[0].outputs[1]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_orthogonal_chain_is_projective(self):
        inst = DiscriminationInstance(0.0, 0.5, n_receivers=3)
        stages = build_chain(inst, optimize_reduced(inst))
        assert len(stages) == 3
        for stage in stages:
            assert stage.success == (1.0, 1.0)

    def test_telescoping_budgets(self):
        inst = DiscriminationInstance(0.35, 0.4, n_receivers=4)
        result = optimize_reduced(inst)
        stages = build_chain(inst, result)
        product = 1.0
        for stage in stages:
            ratio = distinguishability(*stage.success)
            assert ratio == pytest.approx(inst.effective_overlap, abs=1e-10)
            product *= ratio
        assert product == pytest.approx(inst.overlap, abs=1e-10)

    def test_all_strategies_build_everywhere(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = DiscriminationInstance(
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                n_receivers=int(rng.integers(1, 5)),
            )
            for solver in (optimize_reduced, individual_greedy, boundary_solution):
                stages = build_chain(inst, solver(inst))
                for stage in stages:
                    stage.validate()

    def test_every_error_names_its_stage(self, monkeypatch):
        calls = []

        def fail_second(stage):
            calls.append(stage)
            if len(calls) == 2:
                raise ValueError("completeness violated: injected")

        monkeypatch.setattr(MeasurementStage, "validate", fail_second)
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=3)
        with pytest.raises(ValueError, match=r"^stage 2 of 3: completeness violated") as info:
            build_chain(inst, optimize_reduced(inst))
        assert type(info.value) is ValueError

    def test_mismatched_strategy_rejected(self):
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        for other in (DiscriminationInstance(0.7, 0.5, 2), DiscriminationInstance(0.5, 0.5, 3)):
            with pytest.raises(InfeasibleStage, match="^stage 1 of 2: overlap budget"):
                build_chain(inst, equal_prior_jbg(other))

    @pytest.mark.parametrize(
        "inst, other",
        [
            # The budget miss at stage 1 is about 4e-266: an absolute bound of
            # 1e-9 would pass it and leave the chain to validate() at stage 73.
            (
                DiscriminationInstance(1.2974737650090207e-269, 1e-06, 76),
                DiscriminationInstance(0.5, 1e-06, 76),
            ),
            # A result for N + 1 receivers: stage 1 gives 4.6e-20 for t_in = 1e-20.
            (DiscriminationInstance(1e-20, 0.3, 5), DiscriminationInstance(1e-20, 0.3, 6)),
        ],
        ids=("tiny-overlap", "other-n"),
    )
    def test_foreign_result_misses_the_first_budget_at_tiny_overlaps(self, inst, other):
        n = inst.n_receivers
        with pytest.raises(InfeasibleStage, match=f"^stage 1 of {n}: overlap budget"):
            build_chain(inst, individual_greedy(other))


def _completeness_defect(stage):
    b1, b2 = map(np.array, stage.detectors)
    return float(np.max(np.abs(b1.conj().T @ b1 + b2.conj().T @ b2 - np.eye(2))))


SOLVERS = (optimize_reduced, individual_greedy, boundary_solution)


def symmetric_solution(inst):
    """``equal_prior_jbg`` under the name the parametrized test ids carry."""
    return equal_prior_jbg(inst)


class TestChainLadder:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 200),
        overlap=st.floats(0.0, 1.0),
        prior=st.floats(0.0, 1.0),
        solver=st.sampled_from((*SOLVERS, symmetric_solution)),
    )
    def test_follows_the_ladder_and_refuses_a_foreign_result(self, n, overlap, prior, solver):
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        stages = build_chain(inst, solver(inst))
        ladder = [t.hex() for t in overlap_ladder(overlap, n)]
        assert [stage.in_overlap.hex() for stage in stages] == ladder
        assert [stage.out_overlap.hex() for stage in stages] == [*ladder[1:], (1.0).hex()]
        # A result built for an overlap whose budget s**(1/N) differs by more
        # than 1e-3 misses stage 1's budget, or at s = 0 (where every stage
        # but the last maps overlap 0 to 0) the last stage's.
        other = 0.5 * overlap if overlap >= 0.5 else 0.5 * (1.0 + overlap)
        foreign = solver(DiscriminationInstance(other, prior, n_receivers=n))
        k = 1 if overlap > 0.0 else n
        with pytest.raises(InfeasibleStage, match=f"^stage {k} of {n}: overlap budget"):
            build_chain(inst, foreign)


class TestChainConditioning:
    """Chains stay complete to rounding however close the overlaps come to 1."""

    @pytest.mark.parametrize("solver", (*SOLVERS, symmetric_solution), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("prior", (0.0, 0.3, 0.55, 1.0))
    @pytest.mark.parametrize("overlap", (0.3, 0.99, 1.0 - 1e-6, 1.0 - 1e-9))
    @pytest.mark.parametrize("n", (1, 2, 8, 200))
    def test_grid_builds_and_validates(self, n, overlap, prior, solver):
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        stages = build_chain(inst, solver(inst))
        assert len(stages) == n
        for stage in stages:
            stage.validate()
            # Python floats end to end: detector entries and output amplitudes
            for det in stage.detectors:
                assert all(type(x) is float for row in det for x in row)
            for state in stage.outputs:
                assert all(type(x) is float for x in state.amplitudes)

    @pytest.mark.parametrize("solver", (*SOLVERS, symmetric_solution), ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "overlap, prior, n",
        [
            (2.55e-321, 0.47562796423480924, 155),
            (1.05e-321, 0.3967858801865408, 187),
            (1.5e-323, 1e-06, 823),
            (2.21e-321, 1.0, 989),
        ],
    )
    def test_subnormal_ladder_builds(self, overlap, prior, n, solver):
        # The first overlaps of the ladder are subnormal, each rounded to a
        # multiple of 5e-324: a budget miss of one such ulp is no violation.
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        assert len(build_chain(inst, solver(inst))) == n

    @pytest.mark.parametrize(
        "overlap, prior",
        [
            (0.08473655726762153, 0.9999995634989607),
            (0.6264727357908632, 0.9999997715799165),
            (0.3031410296499387, 7.239285532933346e-07),
        ],
    )
    def test_small_images_keep_their_direction(self, overlap, prior):
        # Greedy pairs with 1 - p ~ 1e-14: the budget's rounding miss must not
        # tilt the ~1e-7 image of the likelier state under the other detector.
        inst = DiscriminationInstance(overlap, prior, n_receivers=2)
        for stage in build_chain(inst, individual_greedy(inst)):
            stage.validate()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 200),
        overlap=st.floats(0.0, 1.0),
        prior=st.floats(0.0, 1.0),
        solver=st.sampled_from(SOLVERS),
    )
    def test_built_or_rejected_by_stage(self, n, overlap, prior, solver):
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        try:
            stages = build_chain(inst, solver(inst))
        except ValueError as exc:
            assert f" of {n}: " in str(exc) and str(exc).startswith("stage ")
            assert "completeness violated" not in str(exc)
            return
        for stage in stages:
            stage.validate()
            assert _completeness_defect(stage) <= 1e-14

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 32),
        overlap=st.floats(0.0, 1.0),
        exponent=st.floats(-16.0, -4.0),
        near_one=st.booleans(),
        solver=st.sampled_from((*SOLVERS, symmetric_solution)),
    )
    def test_extreme_priors_build(self, n, overlap, exponent, near_one, solver):
        # Success probabilities within rounding of 1 lose sqrt(1 - p); the
        # stage takes that amplitude from the rest of the overlap budget.
        prior = 1.0 - 10.0**exponent if near_one else 10.0**exponent
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        stages = build_chain(inst, solver(inst))
        assert len(stages) == n
        for stage in stages:
            stage.validate()
            assert _completeness_defect(stage) <= 1e-14


class TestStageValidation:
    def test_tampered_detector_is_caught(self):
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        stage = build_chain(inst, optimize_reduced(inst))[0]
        bad = np.array(stage.detectors[0], copy=True)
        bad[0, 0] += 1e-3
        tampered = MeasurementStage(
            detectors=(bad, stage.detectors[1]),
            success=stage.success,
            in_overlap=stage.in_overlap,
            out_overlap=stage.out_overlap,
        )
        with pytest.raises(ValueError):
            tampered.validate()

    def test_rotated_outputs_are_caught(self):
        # One rotation on both detectors keeps the stage complete, positive
        # and its amplitudes; only the declared outputs no longer match.
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        stage = build_chain(inst, optimize_reduced(inst))[0]
        c, s = math.cos(0.1), math.sin(0.1)
        rotation = np.array([[c, -s], [s, c]])
        rotated = tuple(rotation @ det for det in stage.detectors)
        with pytest.raises(ValueError, match="^output state mismatch"):
            dataclasses.replace(stage, detectors=rotated).validate()

    @pytest.mark.parametrize("out_overlap", (float("nan"), float("inf")))
    def test_non_finite_out_overlap_is_rejected(self, out_overlap):
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        stage = build_chain(inst, optimize_reduced(inst))[0]
        with pytest.raises(ValueError):
            dataclasses.replace(stage, out_overlap=out_overlap).validate()

    @pytest.mark.parametrize("k", (0, 1))
    @pytest.mark.parametrize("cell", ((0, 0), (0, 1), (1, 0), (1, 1)))
    def test_nan_detector_is_rejected(self, k, cell):
        # and infinite cells, of either sign
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        stage = build_chain(inst, optimize_reduced(inst))[0]
        for value in (math.nan, math.inf, -math.inf):
            detectors = [np.array(det, copy=True) for det in stage.detectors]
            detectors[k][cell] = value
            with pytest.raises(ValueError, match="^completeness violated"):
                dataclasses.replace(stage, detectors=tuple(detectors)).validate()

    def test_nan_in_overlap_is_rejected(self):
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        stage = build_chain(inst, optimize_reduced(inst))[0]
        with pytest.raises(ValueError, match="^overlap must lie in"):
            dataclasses.replace(stage, in_overlap=math.nan).validate()

    def test_imaginary_detector_is_rejected(self):
        stage = build_stage(0.4, SuccessPair(0.8, 0.7), 0.4 / distinguishability(0.8, 0.7))
        fields = dict(
            success=stage.success,
            in_overlap=stage.in_overlap,
            out_overlap=stage.out_overlap,
        )
        bad = np.array(stage.detectors[0]) + 1e-3j
        with pytest.raises(ValueError, match="imaginary"):
            MeasurementStage(detectors=(bad, stage.detectors[1]), **fields)
        # Schema-1 [re, 0.0] pairs read back as the real stage
        read_back = MeasurementStage(
            detectors=tuple(np.array(det) + 0j for det in stage.detectors), **fields
        )
        for det in read_back.detectors:
            assert all(type(x) is float for row in det for x in row)
        assert read_back.detectors == stage.detectors
        read_back.validate()

    def test_outputs_are_no_constructor_input(self):
        stage = build_stage(0.4, SuccessPair(0.8, 0.7), 0.4 / distinguishability(0.8, 0.7))
        assert stage.outputs == make_state_pair(stage.out_overlap)
        with pytest.raises(TypeError):  # the old field order, outputs second
            MeasurementStage(
                stage.detectors, stage.outputs, stage.success, stage.in_overlap, stage.out_overlap
            )

    def test_detectors_are_read_only(self):
        stage = build_stage(0.0, SuccessPair(1.0, 1.0), 0.0)
        with pytest.raises(TypeError):
            stage.detectors[0][0][0] = 5.0

    def test_detectors_become_read_only_float64(self):
        stage = build_stage(0.0, SuccessPair(1.0, 1.0), 0.0)
        integer = np.array([[1, 0], [0, 0]])
        read_back = MeasurementStage(
            detectors=(integer, [[0.0, 0.0], [0, 1]]),
            success=stage.success,
            in_overlap=stage.in_overlap,
            out_overlap=stage.out_overlap,
        )
        expected = ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
        for det, cells in zip(read_back.detectors, expected):
            assert all(type(x) is float for row in det for x in row)
            assert [list(row) for row in det] == cells
        integer[0, 0] = 7  # the stage keeps its own copy
        assert read_back.detectors[0][0][0] == 1.0

    @pytest.mark.parametrize(
        "detectors",
        [
            (np.eye(2),),
            (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))),
            (np.array([1.0, 0.0, 0.0, 1.0]), np.zeros((2, 2))),
            (np.eye(3), np.zeros((2, 2))),
        ],
        ids=["one detector", "three detectors", "flat length 4", "3x3"],
    )
    def test_stage_needs_two_2x2_detectors(self, detectors):
        stage = build_stage(0.0, SuccessPair(1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="two 2x2 detectors"):
            dataclasses.replace(stage, detectors=detectors)

    def test_entries_must_be_numbers(self):
        stage = build_stage(0.0, SuccessPair(1.0, 1.0), 0.0)

        class OneElementArray:
            """A length-1 array as numpy before 2.4 treats it: float() of it works."""

            shape, real, imag = (1,), 1.0, 0.0

            def __float__(self):
                return 1.0

        one = OneElementArray()
        # the 2x2x1 array must be rejected on every numpy pyproject.toml admits,
        # 1.24 included, where float() of each of its one-element rows succeeds
        for detectors in (
            (np.ones((2, 2, 1)), np.eye(2)),
            (((one, one), (one, one)), np.eye(2)),
            ((("a", 0.0), (0.0, 1.0)), np.eye(2)),
        ):
            with pytest.raises(ValueError, match="detectors must be real numbers"):
                dataclasses.replace(stage, detectors=detectors)
        with pytest.raises(ValueError, match="amplitudes must be real numbers"):
            QubitState((None, 1.0))


def _reference_validate(stage):
    """numpy form of ``MeasurementStage.validate``: the reference its scalar
    algebra is checked against, with the same checks, order and messages."""
    b1, b2 = map(np.array, stage.detectors)
    gram = b1.T @ b1 + b2.T @ b2
    defect = float(np.max(np.abs(gram - np.eye(2))))
    if not defect <= STAGE_ATOL:
        raise ValueError(f"completeness violated: max |B1+B1 + B2+B2 - I| = {defect:.3e}")
    for i, det in enumerate((b1, b2), start=1):
        eigs = np.linalg.eigvalsh(det.T @ det)
        if float(eigs.min()) < -1e-12:
            raise ValueError(f"POVM element {i} not positive: min eig {eigs.min():.3e}")
    psi1, psi2 = (np.array(state.amplitudes) for state in make_state_pair(stage.in_overlap))
    r1, w1, r2, w2 = _amplitudes(stage.in_overlap, stage.success, stage.out_overlap)
    v1, v2 = (np.array(state.amplitudes) for state in stage.outputs)
    expected = (
        (b1 @ psi1, r1, v1),
        (b2 @ psi1, w1, v1),
        (b1 @ psi2, w2, v2),
        (b2 @ psi2, r2, v2),
    )
    for out_vec, amplitude, target in expected:
        norm = float(np.linalg.norm(out_vec))
        if not abs(norm - amplitude) <= STAGE_ATOL:
            raise ValueError(
                f"action amplitude mismatch: |B psi| = {norm!r}, expected {amplitude!r}"
            )
        if norm > 1e-8:
            fid = float(np.dot(target, out_vec / norm) ** 2)
            if fid < 1.0 - STAGE_ATOL:
                raise ValueError(f"output state mismatch: fidelity {fid!r}")


def _verdict(check, stage):
    """None when ``check`` passes, else the error's type and its text before
    the first colon (the figures after it may differ by rounding)."""
    try:
        check(stage)
    except ValueError as exc:
        return type(exc), str(exc).split(":")[0]
    return None


class TestValidateMatchesReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 200),
        overlap=st.one_of(st.floats(0.0, 1.0), st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k)),
        prior=st.floats(0.0, 1.0),
        solver=st.sampled_from((*SOLVERS, symmetric_solution)),
        position=st.floats(0.0, 1.0),
        cell=st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
        delta=st.floats(-3e-10, 3e-10),
        bad=st.sampled_from((math.nan, math.inf, -math.inf)),
        in_overlap=st.sampled_from((math.nan, -0.5, 1.5)),
    )
    def test_same_verdict(self, n, overlap, prior, solver, position, cell, delta, bad, in_overlap):
        # One built stage of the chain, taken before build_stage validates it,
        # and copies with one cell shifted by about STAGE_ATOL, one cell made
        # non-finite, and an in_overlap that is NaN or out of range.
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        result = solver(inst)
        ladder = overlap_ladder(overlap, n) + (1.0,)
        k = min(int(position * n), n - 1)
        with mock.patch.object(MeasurementStage, "validate", lambda stage: None):
            try:
                stage = build_stage(ladder[k], result.pair, ladder[k + 1])
            except ValueError:  # the budget check, before any detector exists
                return
        d, i, j = cell
        shifted = [np.array(det, copy=True) for det in stage.detectors]
        shifted[d][i, j] += delta
        broken = [np.array(det, copy=True) for det in stage.detectors]
        broken[d][i, j] = bad
        for copy in (
            stage,
            dataclasses.replace(stage, detectors=tuple(shifted)),
            dataclasses.replace(stage, detectors=tuple(broken)),
            dataclasses.replace(stage, in_overlap=in_overlap),
        ):
            with np.errstate(invalid="ignore"):  # inf * 0 in the reference's matmul
                reference = _verdict(_reference_validate, copy)
            assert _verdict(MeasurementStage.validate, copy) == reference


@pytest.mark.parametrize("module", ("core", "povm"))
def test_module_imports_no_numpy(module):
    """The closed forms and the detection operators are plain-float code, so
    a command that needs neither arrays nor the simulator need not load numpy."""
    source = Path(importlib.import_module(f"guesschain.{module}").__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "numpy"}


@pytest.mark.parametrize(
    "path",
    sorted(Path(importlib.import_module("guesschain").__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_module_reads_every_import(path):
    """Each name a module-level import binds is read in that module or listed
    in its ``__all__``, so no import outlives its last use."""
    tree = ast.parse(path.read_text())
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(bound - read - exported) == []
