"""Monte Carlo chain simulation: determinism, statistics, broken-stage checks."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from guesschain import (
    DiscriminationInstance,
    MeasurementStage,
    NumericalUnderflow,
    SimConfig,
    SimReport,
    boundary_solution,
    build_chain,
    equal_prior_jbg,
    individual_greedy,
    make_state_pair,
    optimize_reduced,
    run_chain_simulation,
)
from guesschain import simulate


def _chain(overlap, prior_1, n):
    inst = DiscriminationInstance(overlap, prior_1, n_receivers=n)
    result = optimize_reduced(inst)
    return inst, result, build_chain(inst, result)


def _count_pieces(monkeypatch, hook=None):
    """Count the pieces each thread draws, by thread name; ``hook(name)``
    runs before each piece's draws."""
    pieces = {}
    generator_at = simulate._generator_at

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, *args, **kwargs):
            name = threading.current_thread().name
            if hook is not None:
                hook(name)
            pieces[name] = pieces.get(name, 0) + 1
            return self.rng.random(*args, **kwargs)

    monkeypatch.setattr(
        simulate, "_generator_at", lambda seed, draw: Counting(generator_at(seed, draw))
    )
    return pieces


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        cfg = SimConfig(seed=123, trials=20_000)
        first = run_chain_simulation(inst, stages, cfg)
        second = run_chain_simulation(inst, stages, cfg)
        assert first == second

    def test_different_seeds_differ(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        a = run_chain_simulation(inst, stages, SimConfig(seed=1, trials=20_000))
        b = run_chain_simulation(inst, stages, SimConfig(seed=2, trials=20_000))
        assert a.joint_successes != b.joint_successes

    def test_prng_recorded(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        report = run_chain_simulation(inst, stages, SimConfig(seed=9, trials=100))
        assert report.prng == "philox4x64"
        assert report.seed == 9


class TestChunking:
    # At chunk 1, 2,001 trials still cross piece and span boundaries, in a
    # tenth of the time of 20,001.
    @pytest.mark.parametrize(
        "trials, chunk", [(1, 1), (1, 7), (1, 4096), (2_001, 1), (20_001, 7), (20_001, 4096)]
    )
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, n, trials, chunk):
        inst, _, stages = _chain(0.45, 0.35, n)
        cfg = SimConfig(seed=31, trials=trials)
        expected = run_chain_simulation(inst, stages, cfg)
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", chunk)
        assert run_chain_simulation(inst, stages, cfg) == expected

    def test_peak_memory_does_not_grow_with_trials(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        peaks = {}
        for trials in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                run_chain_simulation(inst, stages, SimConfig(seed=3, trials=trials))
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1_000_000] < 32 * 2**20
        assert peaks[1_000_000] <= 1.1 * peaks[200_000]

    @pytest.mark.parametrize("n", [8, 200])
    def test_peak_memory_is_about_one_chunk_of_draws(self, monkeypatch, n):
        """The threads' buffers hold one chunk of draws between them, so no
        second chunk is held, whether one thread or two walk the trials."""
        inst, _, stages = _chain(0.5, 0.5, n)
        chunk_bytes = simulate.CHUNK_TRIALS * (n + 1) * 8
        # The first run in a process imports numpy.random's modules.
        run_chain_simulation(inst, stages, SimConfig(seed=3, trials=1))
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                run_chain_simulation(
                    inst, stages, SimConfig(seed=3, trials=2 * simulate.CHUNK_TRIALS + 1)
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * chunk_bytes, f"{cpus} CPUs"

    @pytest.mark.parametrize("trial", [1, 5, 7])
    def test_split_at_an_unaligned_draw_reproduces_the_stream(self, trial):
        """A split starting at draw d advances d // 4 blocks, then discards
        d % 4 draws; advancing by d alone lands elsewhere."""
        n = 2
        d = trial * (n + 1)
        assert d % 4
        serial = np.random.Generator(np.random.Philox(key=31)).random((trial + 3, n + 1))
        split = np.random.Generator(np.random.Philox(key=31).advance(d // 4))
        split.random(d % 4)
        assert np.array_equal(split.random((3, n + 1)), serial[trial:])
        naive = np.random.Generator(np.random.Philox(key=31).advance(d))
        assert not np.array_equal(naive.random((3, n + 1)), serial[trial:])

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Eight spans of small pieces, the interpreter switching threads every
        microsecond: a count lost or added between threads changes the report."""
        inst, _, stages = _chain(0.45, 0.35, 3)
        cfg = SimConfig(seed=5, trials=20_001)
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 64)
        monkeypatch.setattr(simulate, "MAX_WORKERS", 8)
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 1)
        expected = run_chain_simulation(inst, stages, cfg)
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_chain_simulation(inst, stages, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert report == expected

    def test_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert simulate._available_cpus() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert simulate._available_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert simulate._available_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._available_cpus() == 1

    def test_threads_follow_the_cpus_of_the_process(self, monkeypatch):
        """Spans past the first start one thread each; a process allowed one
        CPU (say under ``taskset -c 0``) tallies on the calling thread alone."""
        if hasattr(os, "sched_getaffinity"):
            assert simulate._available_cpus() == len(os.sched_getaffinity(0))
        workers = min(simulate._available_cpus(), simulate.MAX_WORKERS)
        pieces = _count_pieces(monkeypatch)
        inst, _, stages = _chain(0.5, 0.5, 2)
        run_chain_simulation(inst, stages, SimConfig(seed=1, trials=4 * simulate.CHUNK_TRIALS))
        names = {threading.current_thread().name}
        names.update(f"guesschain-span-{i}" for i in range(1, workers))
        assert set(pieces) == names

    def test_workers_stop_at_max_workers(self, monkeypatch):
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 32)
        pieces = _count_pieces(monkeypatch)
        inst, _, stages = _chain(0.5, 0.5, 2)
        run_chain_simulation(inst, stages, SimConfig(seed=1, trials=64 * simulate.CHUNK_TRIALS))
        assert len(pieces) == simulate.MAX_WORKERS


class TestWorkerFailure:
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_failing_span_raises_in_the_caller(self, monkeypatch, cpus):
        """Spans after the first run on threads of their own; the first
        failure in span order reaches the caller, after every thread ends."""
        inst, _, stages = _chain(0.5, 0.5, 2)
        tally_span = simulate._tally_span

        def failing(*args):
            name = threading.current_thread().name
            if name.startswith("guesschain-span-"):
                raise RuntimeError(f"no tally in {name}")
            return tally_span(*args)

        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(simulate, "MAX_WORKERS", cpus)
        monkeypatch.setattr(simulate, "_tally_span", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no tally in guesschain-span-1$"):
            run_chain_simulation(
                inst, stages, SimConfig(seed=1, trials=3 * simulate.CHUNK_TRIALS)
            )
        assert threading.active_count() == before

    def test_a_failing_span_stops_the_others(self, monkeypatch):
        """Span 1 fails once the calling thread's span has begun its first
        piece; that span draws the piece after span 1 has ended, and stops
        before its second of eight."""
        drawing = threading.Event()

        def hook(name):
            if name == "guesschain-span-1":
                drawing.wait(timeout=60)
                raise RuntimeError("no draws in guesschain-span-1")
            drawing.set()
            for thread in threading.enumerate():
                if thread.name == "guesschain-span-1":
                    thread.join(timeout=60)

        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        pieces = _count_pieces(monkeypatch, hook)
        inst, _, stages = _chain(0.5, 0.5, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no draws in guesschain-span-1$"):
            run_chain_simulation(
                inst, stages, SimConfig(seed=1, trials=8 * simulate.CHUNK_TRIALS)
            )
        assert threading.active_count() == before
        assert pieces == {threading.current_thread().name: 1}

    def test_an_interrupt_on_the_calling_thread_stops_the_others(self, monkeypatch):
        """Span 1 draws its first piece only once the calling thread's span is
        interrupted; it ends well before its eight pieces, and the interrupt
        reaches the caller."""
        interrupted = threading.Event()

        def hook(name):
            if name == "guesschain-span-1":
                interrupted.wait(timeout=60)
            else:
                interrupted.set()
                raise KeyboardInterrupt

        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        pieces = _count_pieces(monkeypatch, hook)
        inst, _, stages = _chain(0.5, 0.5, 2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_chain_simulation(
                inst, stages, SimConfig(seed=1, trials=16 * simulate.CHUNK_TRIALS)
            )
        assert threading.active_count() == before
        assert pieces["guesschain-span-1"] < 8


def _per_trial_walk(inst, stages, cfg):
    """Reference: walk every trial's state through the real detectors."""
    n, trials = inst.n_receivers, cfg.trials
    draws = np.random.Generator(np.random.Philox(key=cfg.seed)).random((trials, n + 1))
    sent = (draws[:, 0] >= inst.prior_1).astype(np.int8)
    counts = (trials - int(sent.sum()), int(sent.sum()))
    pair = make_state_pair(inst.overlap)
    current = np.array([pair[0].amplitudes, pair[1].amplitudes])[sent]
    all_correct = np.ones(trials, dtype=bool)
    per_receiver = []
    for k, stage in enumerate(stages):
        out1, out2 = (current @ b.T for b in map(np.array, stage.detectors))
        q1 = np.clip(np.einsum("ij,ij->i", out1, out1), 0.0, 1.0)
        q2 = np.clip(np.einsum("ij,ij->i", out2, out2), 0.0, 1.0)
        guess = (draws[:, k + 1] >= q1).astype(np.int8)
        correct = guess == sent
        all_correct &= correct
        per_receiver.append(tuple(
            int(np.count_nonzero(correct[sent == i])) / counts[i] if counts[i] else math.nan
            for i in (0, 1)
        ))
        norm = np.sqrt(np.where(guess == 0, q1, q2))
        current = np.where((guess == 0)[:, None], out1, out2) / norm[:, None]
    joint = int(np.count_nonzero(all_correct))
    empirical = joint / trials
    std_error = math.sqrt(empirical * (1.0 - empirical) / trials)
    prod1 = math.prod(st.success.p1 for st in stages)
    prod2 = math.prod(st.success.p2 for st in stages)
    predicted = inst.prior_1 * prod1 + inst.prior_2 * prod2
    z_score = simulate._z_score(empirical, predicted, std_error)
    return SimReport(
        trials, joint, empirical, std_error, predicted, z_score, counts,
        tuple(per_receiver), "philox4x64", cfg.seed,
    )


def _where_tally(inst, stages, cfg):
    """Reference: the two-state walk, then a fresh draw matrix per chunk
    tallied with one np.where per stage."""
    n = inst.n_receivers
    trials = cfg.trials
    pair = make_state_pair(inst.overlap)
    current = np.array([pair[0].amplitudes, pair[1].amplitudes])
    q1 = np.empty((n, 2))
    for k, stage in enumerate(stages):
        out = [current @ b.T for b in map(np.array, stage.detectors)]
        q = [np.einsum("ij,ij->i", o, o) for o in out]
        if min(q[0].min(), q[1].min()) < simulate.UNDERFLOW_SLACK:
            raise NumericalUnderflow(f"stage {k + 1}: negative outcome probability beyond slack")
        drift = float(np.max(np.abs(q[0] + q[1] - 1.0)))
        if drift > simulate.COMPLETENESS_ATOL:
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
        follow = q[0] >= q[1]
        norm = np.sqrt(np.clip(np.where(follow, q[0], q[1]), 0.0, 1.0))
        current = np.where(follow[:, None], out[0], out[1]) / norm[:, None]

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    joint_successes = 0
    sent_counts = [0, 0]
    correct_counts = [[0, 0] for _ in stages]
    for start in range(0, trials, simulate.CHUNK_TRIALS):
        size = min(simulate.CHUNK_TRIALS, trials - start)
        draws = rng.random((size, n + 1))
        sent_2 = draws[:, 0] >= inst.prior_1
        sent_counts[1] += int(np.count_nonzero(sent_2))
        all_correct = np.ones(size, dtype=bool)
        for k in range(n):
            col = draws[:, k + 1]
            correct = np.where(sent_2, col >= q1[k, 1], col < q1[k, 0])
            all_correct &= correct
            correct_2 = int(np.count_nonzero(correct & sent_2))
            correct_counts[k][0] += int(np.count_nonzero(correct)) - correct_2
            correct_counts[k][1] += correct_2
        joint_successes += int(np.count_nonzero(all_correct))
    sent_counts[0] = trials - sent_counts[1]

    empirical = joint_successes / trials
    std_error = math.sqrt(empirical * (1.0 - empirical) / trials)
    prod1 = math.prod(stage.success.p1 for stage in stages)
    prod2 = math.prod(stage.success.p2 for stage in stages)
    predicted = inst.prior_1 * prod1 + inst.prior_2 * prod2
    score_error = std_error
    if joint_successes == 0 and 0.0 < predicted < 1.0:
        score_error = math.sqrt(predicted * (1.0 - predicted) / trials)
    per_receiver = tuple(
        tuple(c / sent_counts[i] if sent_counts[i] else math.nan for i, c in enumerate(row))
        for row in correct_counts
    )
    return SimReport(
        trials, joint_successes, empirical, std_error, predicted,
        simulate._z_score(empirical, predicted, score_error), tuple(sent_counts),
        per_receiver, "philox4x64", cfg.seed,
    )


STRATEGIES = {
    "JBG_OPTIMAL": optimize_reduced,
    "JBG_SYMMETRIC_ANALYTIC": lambda inst: equal_prior_jbg(inst.overlap, inst.n_receivers),
    "INDIVIDUAL_GREEDY": individual_greedy,
    "BOUNDARY": boundary_solution,
}


@st.composite
def _chunked_trials(draw):
    """(CHUNK_TRIALS, trials) with the trials spanning at least two chunks."""
    chunk = draw(st.sampled_from([1, 7, 4096]))
    return chunk, draw(st.integers(chunk + 1, 3 * chunk + 40))


class TestOutcomeTable:
    @pytest.mark.parametrize("prior_1", [0.0, 0.35, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_matches_per_trial_walk(self, monkeypatch, strategy, n, prior_1):
        inst = DiscriminationInstance(0.45, prior_1, n_receivers=n)
        stages = build_chain(inst, STRATEGIES[strategy](inst))
        cfg = SimConfig(seed=17, trials=20_001)
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        assert run_chain_simulation(inst, stages, cfg) == _per_trial_walk(inst, stages, cfg)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    # At N = 2 a trial takes 3 draws, so a span starting at trial t starts at
    # draw 3t, which is not a multiple of 4 unless t is. Eight CPUs with 5
    # one-trial chunks run 5 spans; 23 trials over 3 CPUs split 7 + 8 + 8,
    # with spans starting at draws 21 and 45; 4,097 trials fill 2 chunks.
    @example("JBG_OPTIMAL", 2, 0.45, 0.35, (1, 5), 3, 8)
    @example("JBG_OPTIMAL", 2, 0.45, 0.35, (7, 23), 3, 3)
    @example("BOUNDARY", 2, 0.6, 0.25, (4096, 4097), 9, 8)
    @example("INDIVIDUAL_GREEDY", 2, 0.3, 0.7, (7, 22), 11, 2)
    @example("JBG_SYMMETRIC_ANALYTIC", 2, 0.3, 0.5, (7, 22), 11, 1)
    @given(
        strategy=st.sampled_from(sorted(STRATEGIES)),
        n=st.integers(1, 200),
        overlap=st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k),
            st.floats(0.0, 1.0),
        ),
        prior_1=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        chunking=_chunked_trials(),
        seed=st.integers(0, 2**32),
        cpus=st.sampled_from([1, 2, 3, 8]),
    )
    def test_equals_the_where_tally(self, strategy, n, overlap, prior_1, chunking, seed, cpus):
        inst = DiscriminationInstance(overlap, prior_1, n_receivers=n)
        try:
            stages = build_chain(inst, STRATEGIES[strategy](inst))
        except ValueError:
            assume(False)  # some chains near overlap 1 do not build yet
        chunk, trials = chunking
        cfg = SimConfig(seed=seed, trials=trials)
        with mock.patch.object(simulate, "CHUNK_TRIALS", chunk), \
                mock.patch.object(simulate, "MAX_WORKERS", cpus), \
                mock.patch.object(simulate, "_available_cpus", lambda: cpus):
            report = run_chain_simulation(inst, stages, cfg)
            expected = _where_tally(inst, stages, cfg)
        # repr tells -0.0 from 0.0 and shows NaN, so this compares bit for bit
        assert repr(dataclasses.astuple(report)) == repr(dataclasses.astuple(expected))

    def test_outcome_dependent_output_is_rejected(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        tampered = [_rotate(stages[0]), stages[1]]
        with pytest.raises(ValueError, match="stage 1: .*depends on the outcome"):
            run_chain_simulation(inst, tampered, SimConfig(seed=1, trials=10))
        # Stage 2 of another instance's chain is complete, but it was built for
        # other input states, so its output depends on the outcome.
        inst, _, stages = _chain(0.5, 0.5, 3)
        foreign = _chain(0.3, 0.5, 3)[2]
        mislinked = [stages[0], foreign[1], stages[2]]
        with pytest.raises(ValueError, match="stage 2: .*depends on the outcome"):
            run_chain_simulation(inst, mislinked, SimConfig(seed=1, trials=10))

    def test_final_stage_output_is_free(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        cfg = SimConfig(seed=1, trials=1000)
        expected = run_chain_simulation(inst, stages, cfg)
        assert run_chain_simulation(inst, [stages[0], _rotate(stages[1])], cfg) == expected


class TestStatistics:
    def test_orthogonal_chain_never_fails(self):
        inst, _, stages = _chain(0.0, 0.3, 2)
        report = run_chain_simulation(inst, stages, SimConfig(seed=4, trials=100_000))
        assert report.empirical_joint == 1.0
        assert report.z_score == 0.0

    def test_joint_within_four_sigma(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        report = run_chain_simulation(inst, stages, SimConfig(seed=42, trials=200_000))
        assert abs(report.z_score) <= 4.0
        assert report.empirical_joint == report.joint_successes / report.trials

    def test_certain_prior_always_succeeds(self):
        inst, _, stages = _chain(0.5, 1.0, 2)
        report = run_chain_simulation(inst, stages, SimConfig(seed=8, trials=50_000))
        assert report.empirical_joint == pytest.approx(1.0, abs=1e-12)
        assert abs(report.z_score) <= 4.0

    def test_per_receiver_marginals(self):
        inst, result, stages = _chain(0.4, 0.3, 3)
        cfg = SimConfig(seed=77, trials=200_000)
        report = run_chain_simulation(inst, stages, cfg)
        assert len(report.per_receiver_success) == 3
        for k, (given1, given2) in enumerate(report.per_receiver_success):
            for empirical, predicted, count in (
                (given1, result.stages[k].p1, report.per_state_counts[0]),
                (given2, result.stages[k].p2, report.per_state_counts[1]),
            ):
                sigma = math.sqrt(predicted * (1.0 - predicted) / count)
                assert abs(empirical - predicted) <= 4.0 * max(sigma, 1e-12)

    def test_sent_counts_match_priors(self):
        """Chi-square on the prepared-state counts, alpha = 1e-6."""
        inst, _, stages = _chain(0.5, 0.3, 2)
        report = run_chain_simulation(inst, stages, SimConfig(seed=5, trials=1_000_000))
        expected = [0.3 * report.trials, 0.7 * report.trials]
        chi2 = sum(
            (obs - exp) ** 2 / exp
            for obs, exp in zip(report.per_state_counts, expected)
        )
        assert chi2 < stats.chi2.isf(1e-6, df=1)

    def test_binomial_error_scale(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        report = run_chain_simulation(inst, stages, SimConfig(seed=6, trials=1_000_000))
        assert report.std_error < 6e-4

    def test_greedy_chain_prediction(self):
        """Simulation validates strategies other than the optimizer's."""
        inst = DiscriminationInstance(0.6, 0.25, n_receivers=2)
        result = individual_greedy(inst)
        stages = build_chain(inst, result)
        report = run_chain_simulation(inst, stages, SimConfig(seed=11, trials=200_000))
        assert report.predicted_joint == pytest.approx(result.joint_success, abs=1e-12)
        assert abs(report.z_score) <= 4.0


def _tamper(stage, row, col, amount):
    bad = np.array(stage.detectors[0], copy=True)
    bad[row, col] += amount
    return MeasurementStage(
        detectors=(bad, stage.detectors[1]),
        success=stage.success,
        in_overlap=stage.in_overlap,
        out_overlap=stage.out_overlap,
    )


def _rotate(stage, angle=0.1):
    """``stage`` with B1 left-multiplied by a rotation: still complete, but
    its outcome-1 output is turned away from its outcome-2 output."""
    c, s = math.cos(angle), math.sin(angle)
    rotated = np.array([[c, -s], [s, c]]) @ stage.detectors[0]
    return dataclasses.replace(stage, detectors=(rotated, stage.detectors[1]))


class TestBrokenStagesAreCaught:
    @pytest.mark.parametrize("trials", [1000, 3 * simulate.CHUNK_TRIALS + 5])
    def test_incomplete_povm_raises(self, trials):
        inst, _, stages = _chain(0.5, 0.5, 2)
        scaled = dataclasses.replace(
            stages[0], detectors=(np.array(stages[0].detectors[0]) * 0.9, stages[0].detectors[1])
        )
        for tampered in (scaled, _tamper(stages[0], 0, 1, 1e-3)):
            with pytest.raises(NumericalUnderflow, match="stage 1: outcome probabilities sum to 1"):
                run_chain_simulation(inst, [tampered, stages[1]], SimConfig(seed=1, trials=trials))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_nan_detector_raises(self, entry):
        """NaN fails the negative and completeness tests instead of passing them."""
        inst, _, stages = _chain(0.5, 0.5, 2)
        tampered = _tamper(stages[0], *entry, math.nan)
        with pytest.raises(NumericalUnderflow, match="stage 1: outcome probability is not finite"):
            run_chain_simulation(inst, [tampered, stages[1]], SimConfig(seed=1, trials=100_000))

    def test_stage_count_mismatch(self):
        inst, _, stages = _chain(0.5, 0.5, 2)
        with pytest.raises(ValueError):
            run_chain_simulation(inst, stages[:1], SimConfig(seed=1, trials=10))


class TestSimConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, trials=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1, trials=10)

    def test_rejects_a_seed_philox_cannot_key(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=2**128, trials=10)

    @pytest.mark.parametrize("seed, trials", [(True, 10), (1, True), (False, 10), (True, True)])
    def test_rejects_booleans(self, seed, trials):
        with pytest.raises(ValueError):
            SimConfig(seed=seed, trials=trials)
