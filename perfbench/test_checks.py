"""The benchmark's output checks accept real output and reject a corrupted copy.

Also covers the seeded rounds (same seed, same list; same make-up for every
seed) and the tracer's accounting (self times add up to the op time).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from guesschain import cli  # noqa: E402


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def sweep_text(tmp_path, overlap_axis, prior_axis, receivers) -> str:
    path = tmp_path / "sweep.csv"
    (start, stop, points), (pstart, pstop, ppoints) = overlap_axis, prior_axis
    run_cli([
        "sweep", "--variable", "both", "--start", str(start), "--stop", str(stop),
        "--points", str(points), "--prior-start", str(pstart), "--prior-stop", str(pstop),
        "--prior-points", str(ppoints), "--receivers", str(receivers),
        "--strategies", workloads.STRATEGIES, "--out", str(path),
    ])
    return path.read_text()


def rewrite_rows(text: str, edit) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    edit(rows[0], rows)
    return "".join(",".join(row) + "\n" for row in rows)


def test_sweep_check(tmp_path):
    params = {"receivers": 3, "overlap_axis": (0.1, 0.9, 4), "prior_axis": (0.05, 0.95, 5)}
    text = sweep_text(tmp_path, params["overlap_axis"], params["prior_axis"], 3)
    assert checks.check_sweep(text, params) == []

    def shrink_p2(header, rows):
        column = header.index("jbg_optimal_p2")
        rows[7][column] = repr(float(rows[7][column]) * 0.99)

    assert checks.check_sweep(rewrite_rows(text, shrink_p2), params)


def test_sweep_check_rejects_a_suboptimal_solver(tmp_path):
    params = {"receivers": 2, "overlap_axis": (0.2, 0.8, 3), "prior_axis": (0.1, 0.9, 3)}
    text = sweep_text(tmp_path, params["overlap_axis"], params["prior_axis"], 2)

    def report_boundary_as_optimal(header, rows):
        for name in ("joint_success", "p1", "p2"):
            rows[4][header.index(f"jbg_optimal_{name}")] = rows[4][header.index(f"boundary_{name}")]

    errors = checks.check_sweep(rewrite_rows(text, report_boundary_as_optimal), params)
    assert any("below the dense-scan maximum" in e for e in errors)


def test_optimize_check():
    params = {"overlap": 0.3, "prior": 0.4, "receivers": 3}
    text = run_cli(["optimize", "--overlap", "0.3", "--prior", "0.4", "--receivers", "3"])
    assert checks.check_optimize(text, params) == []

    def lower_joint(data):
        data["joint_success"] -= 1e-6

    assert checks.check_optimize(edit_json(text, lower_joint), params)


def test_chain_check():
    params = {"overlap": 0.4, "prior": 0.3, "receivers": 4}
    text = run_cli([
        "optimize", "--overlap", "0.4", "--prior", "0.3", "--receivers", "4", "--emit-stages",
    ])
    assert checks.check_chain(text, params) == []

    def perturb_detector(data):
        data["measurement_stages"][1]["detector_1"][0][0][0] += 1e-6

    errors = checks.check_chain(edit_json(text, perturb_detector), params)
    assert any("completeness" in e for e in errors)


def test_chain_check_propagates_the_states():
    params = {"overlap": 0.4, "prior": 0.3, "receivers": 4}
    text = run_cli([
        "optimize", "--overlap", "0.4", "--prior", "0.3", "--receivers", "4", "--emit-stages",
    ])

    def swap_detectors(data):  # still complete and positive, but acts wrongly
        stage = data["measurement_stages"][2]
        stage["detector_1"], stage["detector_2"] = stage["detector_2"], stage["detector_1"]

    errors = checks.check_chain(edit_json(text, swap_detectors), params)
    assert any("propagated joint" in e for e in errors)


def test_find_sb_check():
    params = {"receivers": 4}
    text = run_cli(["find-sb", "--receivers", "4"])
    assert checks.check_find_sb(text, params) == []

    def move_threshold(data):
        data["s_b"] *= 1.05

    assert checks.check_find_sb(edit_json(text, move_threshold), params)


def test_find_sb_check_uses_the_paper_values():
    text = json.dumps({"schema_version": 1, "n": 3, "s_b": 0.45})
    assert any("paper" in e for e in checks.check_find_sb(text, {"receivers": 3}))


def test_sb_series_check():
    assert checks.check_sb_series({2: 0.75, 3: 0.41, 4: 0.19}) == []
    assert checks.check_sb_series({2: 0.75, 3: 0.41, 4: 0.45})


def test_simulate_check():
    params = {"overlap": 0.5, "prior": 0.3, "receivers": 2}
    text = run_cli([
        "simulate", "--overlap", "0.5", "--prior", "0.3", "--receivers", "2",
        "--trials", "20000", "--seed", "5",
    ])
    assert checks.check_simulate(text, params) == []

    def shift_successes(data):
        data["joint_successes"] -= 400  # about 7 standard errors
        data["empirical_joint"] = data["joint_successes"] / data["trials"]

    assert any("sigma" in e for e in checks.check_simulate(edit_json(text, shift_successes), params))

    def lose_a_trial(data):
        data["per_state_counts"][0] -= 1

    assert checks.check_simulate(edit_json(text, lose_a_trial), params)


def test_rounds_are_seeded_with_a_fixed_make_up():
    for name in workloads.WORKLOADS:
        first, again = workloads.make_round(name, 7), workloads.make_round(name, 7)
        other = workloads.make_round(name, 8)
        assert [op.argv for op in first] == [op.argv for op in again]
        assert [op.argv for op in first] != [op.argv for op in other]
        assert Counter(op.cls for op in first) == Counter(op.cls for op in other)
        assert sum(op.expect_fail for op in first) == sum(op.expect_fail for op in other)
    assert sum(op.expect_fail for op in workloads.make_round("chain-build", 3)) == 2


def test_tracer_self_times_add_up():
    tracer = spans.Tracer()
    original = cli.optimize_reduced
    tracer.install()
    try:
        for argv in (
            ["optimize", "--overlap", "0.4", "--prior", "0.3", "--receivers", "3", "--emit-stages"],
            ["simulate", "--overlap", "0.4", "--prior", "0.3", "--receivers", "2",
             "--trials", "1000", "--seed", "1"],
            ["find-sb", "--receivers", "5"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code, nanos, selfs = tracer.run_op(cli.main, argv)
            assert code == 0
            assert sum(selfs.values()) == nanos
    finally:
        tracer.uninstall()
    assert cli.optimize_reduced is original
    assert tracer.calls["povm.stage"] == 3 + 2
    assert tracer.calls["povm.validate"] == 3 + 2
    assert tracer.calls["simulate.run"] == 1
    assert tracer.calls["optimize.find_sb"] == 1
    assert tracer.calls["optimize.solve"] > 20  # find_sb's bisection solves too
    assert tracer.sim_trials == 1000
