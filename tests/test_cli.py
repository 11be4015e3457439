"""Command-line surface: schemas, golden outputs, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesschain import (
    DiscriminationInstance,
    MAX_RECEIVERS,
    MeasurementStage,
    NumericalUnderflow,
    Strategy,
    StrategyResult,
    SuccessPair,
    build_chain,
    cli,
    distinguishability,
    overlap_ladder,
)
from guesschain.cli import main


def _reference_cell(x):
    return [float(x), 0.0]


def _reference_stage_json(stage):
    """The generic schema-1 stage object: json.dumps(indent=2) of a payload
    holding these gives the bytes the CLI must print."""
    return {
        "detector_1": [[_reference_cell(x) for x in row] for row in stage.detectors[0]],
        "detector_2": [[_reference_cell(x) for x in row] for row in stage.detectors[1]],
        "output_1": [_reference_cell(x) for x in stage.outputs[0].amplitudes],
        "output_2": [_reference_cell(x) for x in stage.outputs[1].amplitudes],
        "p1": stage.success.p1,
        "p2": stage.success.p2,
        "in_overlap": stage.in_overlap,
        "out_overlap": stage.out_overlap,
    }


def _reference_payload(inst, result, stages=None):
    """The generic schema-1 optimize object, with the measurement stages
    when ``stages`` is not None."""
    payload = {
        "schema_version": 1,
        "overlap": inst.overlap,
        "prior_1": inst.prior_1,
        "prior_2": inst.prior_2,
        "receivers": inst.n_receivers,
        "strategy": result.strategy.name,
        "stages": [{"p1": s.p1, "p2": s.p2} for s in result.stages],
        "overlaps": list(overlap_ladder(inst.overlap, inst.n_receivers)),
        "joint_success": result.joint_success,
    }
    if stages is not None:
        payload["measurement_stages"] = [_reference_stage_json(stage) for stage in stages]
    return payload


def _reference_optimize(overlap, prior, n, strategy, emit_stages):
    """(exit code, stdout) of ``optimize`` through the generic indent encoder."""
    try:
        inst = DiscriminationInstance(overlap, prior, n_receivers=n)
        result = cli._solve(inst, strategy)
        stages = build_chain(inst, result) if emit_stages else None
    except ValueError:
        return 2, ""
    return 0, json.dumps(_reference_payload(inst, result, stages), indent=2) + "\n"


def _main_output(argv):
    """(exit code, stdout, stderr) of an in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _odd_stage(in_overlap=-0.0):
    """An unvalidated stage whose numbers need every kind of float text: 0.0
    and -0.0, NaNs of two sign bits, both infinities, a subnormal and
    exponents. Its outputs derive from an out_overlap in [0, 1], whose
    canonical pair has amplitudes with exponents of both signs."""
    return MeasurementStage(
        detectors=(
            np.array([[math.nan, math.inf], [-math.inf, -0.0]]),
            np.array([[5e-324, 1e16], [0.1, -1.0]]),
        ),
        success=SuccessPair(math.inf, -math.nan),
        in_overlap=in_overlap,
        out_overlap=1.0 - 2**-53,
    )


# optimize --overlap 0.5 --prior 0.3 --receivers 2 --emit-stages
GOLDEN_EMIT_STAGES = """\
{
  "schema_version": 1,
  "overlap": 0.5,
  "prior_1": 0.3,
  "prior_2": 0.7,
  "receivers": 2,
  "strategy": "JBG_OPTIMAL",
  "stages": [
    {
      "p1": 0.6331866437257103,
      "p2": 0.9819349727225455
    },
    {
      "p1": 0.6331866437257103,
      "p2": 0.9819349727225455
    }
  ],
  "overlaps": [
    0.5,
    0.7071067811865476
  ],
  "joint_success": 0.7952150011967272,
  "measurement_stages": [
    {
      "detector_1": [
        [
          [
            0.496136738426012,
            0.0
          ],
          [
            0.6109837593427256,
            0.0
          ]
        ],
        [
          [
            0.14611451257869193,
            0.0
          ],
          [
            0.3559478133370541,
            0.0
          ]
        ]
      ],
      "detector_2": [
        [
          [
            0.8516177884327162,
            0.0
          ],
          [
            -0.35594781333705416,
            0.0
          ]
        ],
        [
          [
            -0.08512360673079829,
            0.0
          ],
          [
            0.6109837593427255,
            0.0
          ]
        ]
      ],
      "output_1": [
        [
          0.9238795325112867,
          0.0
        ],
        [
          0.3826834323650898,
          0.0
        ]
      ],
      "output_2": [
        [
          0.9238795325112867,
          0.0
        ],
        [
          -0.3826834323650898,
          0.0
        ]
      ],
      "p1": 0.6331866437257103,
      "p2": 0.9819349727225455,
      "in_overlap": 0.5,
      "out_overlap": 0.7071067811865476
    },
    {
      "detector_1": [
        [
          [
            0.5033862251183089,
            0.0
          ],
          [
            0.8640615188521817,
            0.0
          ]
        ],
        [
          [
            0.0,
            0.0
          ],
          [
            0.0,
            0.0
          ]
        ]
      ],
      "detector_2": [
        [
          [
            0.8640615188521817,
            0.0
          ],
          [
            -0.5033862251183089,
            0.0
          ]
        ],
        [
          [
            -0.0,
            0.0
          ],
          [
            0.0,
            0.0
          ]
        ]
      ],
      "output_1": [
        [
          1.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      "output_2": [
        [
          1.0,
          0.0
        ],
        [
          -0.0,
          0.0
        ]
      ],
      "p1": 0.6331866437257103,
      "p2": 0.9819349727225455,
      "in_overlap": 0.7071067811865476,
      "out_overlap": 1.0
    }
  ]
}
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "guesschain.cli", *args],
        capture_output=True,
        text=True,
    )


class TestOptimizeCommand:
    def test_orthogonal_states(self, capsys):
        code = main(["optimize", "--overlap", "0", "--prior", "0.5", "--receivers", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["joint_success"] == 1.0

    def test_symmetric_closed_form_value(self, capsys):
        code = main(["optimize", "--overlap", "0.25", "--prior", "0.5", "--receivers", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["joint_success"] == pytest.approx(0.8705127018922193, abs=1e-9)

    def test_invalid_overlap_exits_2(self, capsys):
        assert main(["optimize", "--overlap", "1.2", "--prior", "0.5", "--receivers", "2"]) == 2

    def test_unknown_strategy_exits_2(self, capsys):
        code = main(
            ["optimize", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--strategy", "MAGIC"]
        )
        assert code == 2

    def test_roundtrip_revalidates(self, capsys):
        """Re-parse the JSON and confirm the strategy invariants hold."""
        code = main(
            ["optimize", "--overlap", "0.4", "--prior", "0.3", "--receivers", "3",
             "--emit-stages"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        inst = DiscriminationInstance(
            payload["overlap"], payload["prior_1"], payload["receivers"]
        )
        assert inst.prior_2 == payload["prior_2"]
        prod1 = prod2 = 1.0
        for stage in payload["stages"]:
            assert 0.0 <= stage["p1"] <= 1.0 and 0.0 <= stage["p2"] <= 1.0
            prod1 *= stage["p1"]
            prod2 *= stage["p2"]
        recomputed = inst.prior_1 * prod1 + inst.prior_2 * prod2
        assert recomputed == pytest.approx(payload["joint_success"], abs=1e-12)
        overlaps = payload["overlaps"]
        assert overlaps[0] == pytest.approx(inst.overlap, abs=1e-12)
        assert all(a <= b + 1e-12 for a, b in zip(overlaps, overlaps[1:]))
        for k, stage in enumerate(payload["stages"]):
            t_out = overlaps[k + 1] if k + 1 < len(overlaps) else 1.0
            assert distinguishability(stage["p1"], stage["p2"]) * t_out == pytest.approx(
                overlaps[k], abs=1e-9
            )
        # serialized stage matrices are row-major [re, im] pairs, im always 0.0
        for stage in payload["measurement_stages"]:
            for key in ("detector_1", "detector_2"):
                assert all(im == 0.0 for row in stage[key] for _, im in row)
                arr = np.array([[re for re, _ in row] for row in stage[key]])
                assert arr.shape == (2, 2)
            for key in ("output_1", "output_2"):
                assert all(im == 0.0 for _, im in stage[key])


    @pytest.mark.parametrize(
        "args",
        [
            ("--overlap", "0.999999", "--prior", "0.3", "--receivers", "8"),
            ("--overlap", "0.5", "--prior", "0.5", "--receivers", "8"),
            ("--strategy", "INDIVIDUAL_GREEDY", "--overlap", "1", "--prior", "0.3",
             "--receivers", "2"),
            ("--strategy", "INDIVIDUAL_GREEDY", "--overlap", "0.4", "--prior", "0.999999997",
             "--receivers", "2"),
            ("--strategy", "BOUNDARY", "--overlap", "0.9999999999573461", "--prior", "0",
             "--receivers", "128"),
            ("--overlap", "0.7", "--prior", "0.5", "--receivers", "8"),
            ("--overlap", "0.7", "--prior", "0.5", "--receivers", "128"),
        ],
    )
    def test_emit_stages_near_rounding_limits(self, args, capsys):
        assert main(["optimize", *args, "--emit-stages"]) == 0
        assert len(json.loads(capsys.readouterr().out)["measurement_stages"]) == int(args[-1])

    def test_emit_stages_golden(self, capsys):
        """The whole schema-1 layout, pinned apart from the json module."""
        argv = ["optimize", "--overlap", "0.5", "--prior", "0.3", "--receivers", "2",
                "--emit-stages"]
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN_EMIT_STAGES

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        strategy=st.sampled_from(list(Strategy)),
        n=st.integers(1, 200),
        overlap=st.one_of(
            st.sampled_from([0.0, 1.0]), st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k)
        ),
        prior=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_emit_stages_equals_the_generic_encoder(self, strategy, n, overlap, prior):
        argv = ["optimize", "--overlap", repr(overlap), "--prior", repr(prior),
                "--receivers", str(n), "--strategy", strategy.name, "--emit-stages"]
        code, out, _ = _main_output(argv)
        assert (code, out) == _reference_optimize(overlap, prior, n, strategy, True)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        strategy=st.sampled_from(list(Strategy)),
        n=st.integers(1, 200),
        overlap=st.floats(0.0, 1.0),
        prior=st.floats(0.0, 1.0),
        emit_stages=st.booleans(),
    )
    def test_optimize_equals_the_generic_encoder_on_uniform_inputs(
        self, strategy, n, overlap, prior, emit_stages
    ):
        argv = ["optimize", "--overlap", repr(overlap), "--prior", repr(prior),
                "--receivers", str(n), "--strategy", strategy.name]
        code, out, _ = _main_output(argv + ["--emit-stages"] * emit_stages)
        assert (code, out) == _reference_optimize(overlap, prior, n, strategy, emit_stages)

    def test_stage_text_equals_the_generic_encoder(self):
        """0.0 and -0.0, two NaNs, infinities, a subnormal and exponents read as
        json writes them, in every list of the payload but the overlaps and in
        its head; the stages share the head's overlap 0.5."""
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        result = StrategyResult(
            stages=(SuccessPair(0.0, -0.0), SuccessPair(math.nan, 5e-324)),
            joint_success=float("nan"),
            strategy=Strategy.BOUNDARY,
        )
        stages = [_odd_stage(in_overlap=0.5), _odd_stage()]
        for emitted in (stages, None):
            expected = json.dumps(_reference_payload(inst, result, emitted), indent=2)
            assert cli._optimize_text(inst, result, emitted) == expected

    def test_stages_splice_into_the_payload(self, monkeypatch):
        stages = [_odd_stage(), _odd_stage(in_overlap=0.5)]
        monkeypatch.setattr(cli, "build_chain", lambda inst, result: stages)
        code, out, _ = _main_output(
            ["optimize", "--overlap", "0.5", "--prior", "0.3", "--receivers", "2",
             "--emit-stages"]
        )
        inst = DiscriminationInstance(0.5, 0.3, n_receivers=2)
        payload = _reference_payload(inst, cli._solve(inst, Strategy.JBG_OPTIMAL), stages)
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"


# Sweep axes: any values in [0, 1], with 0, -0.0, 1, 1/2, subnormals and
# values just inside the ends drawn often.
SWEEP_AXIS = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from((0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310, 1e-300, 1.0 - 2**-53, 2**-1074 * 3)),
    ),
    min_size=1,
    max_size=6,
)


class TestSweepCommand:
    RECIPE = [
        "sweep", "--variable", "prior", "--points", "101", "--overlap", "0.5",
        "--receivers", "2", "--strategies", "JBG_OPTIMAL",
    ]

    def test_prior_sweep_golden_rows(self, tmp_path):
        """Header and boundary rows are pinned; formatting is repr-exact."""
        out = tmp_path / "sweep.csv"
        assert main(self.RECIPE + ["--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 102
        assert lines[0] == "prior_1,jbg_optimal_joint_success,jbg_optimal_p1,jbg_optimal_p2"
        assert lines[1] == "0.0,1.0,0.4999999999999999,1.0"
        assert lines[-1] == "1.0,1.0,1.0,0.4999999999999999"

    def test_prior_washout_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(self.RECIPE + ["--out", str(out)])
        first = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        # at prior_1 = 0 the optimum pins p2 = 1 and p1 = 1 - overlap
        assert float(first[2]) == pytest.approx(0.5, abs=1e-9)
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_two_point_overlap_sweep(self, tmp_path):
        out = tmp_path / "deg.csv"
        code = main(
            ["sweep", "--variable", "overlap", "--start", "0", "--stop", "0",
             "--points", "2", "--prior", "0.5", "--receivers", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[1] == lines[2]

    def test_both_axes_row_major(self, tmp_path):
        out = tmp_path / "both.csv"
        code = main(
            ["sweep", "--variable", "both", "--points", "3", "--prior-points", "2",
             "--receivers", "2", "--strategies", "JBG_OPTIMAL,BOUNDARY", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("overlap,prior_1,jbg_optimal_joint_success")
        assert lines[0].endswith("boundary_joint_success,boundary_p1,boundary_p2")
        assert len(lines) == 1 + 3 * 2
        overlaps = [line.split(",")[0] for line in lines[1:]]
        assert overlaps == ["0.0", "0.0", "0.5", "0.5", "1.0", "1.0"]

    def test_small_strategy_difference_column(self, tmp_path):
        """The greedy strategy tracks the optimum closely at moderate overlap."""
        out = tmp_path / "diff.csv"
        code = main(
            ["sweep", "--variable", "prior", "--points", "51", "--overlap", "0.5",
             "--receivers", "2", "--strategies", "JBG_OPTIMAL,INDIVIDUAL_GREEDY",
             "--out", str(out)]
        )
        assert code == 0
        gaps = []
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            cells = line.split(",")
            gaps.append(abs(float(cells[1]) - float(cells[4])))
        assert max(gaps) < 1e-2

    @pytest.mark.parametrize("n", (1, 2, 8))
    def test_jbg_optimal_cells_equal_optimize(self, n, tmp_path, capsys):
        """Every strategy's three cells equal ``optimize --strategy`` on the
        same instance."""
        strategies = ("BOUNDARY", "JBG_OPTIMAL", "JBG_SYMMETRIC_ANALYTIC", "INDIVIDUAL_GREEDY")
        out = tmp_path / "grid.csv"
        code = main(
            ["sweep", "--variable", "both", "--points", "9", "--prior-points", "9",
             "--receivers", str(n), "--strategies", ",".join(strategies), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith("individual_greedy_p1,individual_greedy_p2")
        # the grid holds overlaps 0 and 1 and priors 0, 1/2 and 1
        assert {"0.0", "1.0"} <= {line.split(",")[0] for line in lines[1:]}
        assert {"0.0", "0.5", "1.0"} <= {line.split(",")[1] for line in lines[1:]}
        capsys.readouterr()
        for line in lines[1:]:
            overlap, prior, *cells = line.split(",")
            for k, strategy in enumerate(strategies):
                main(["optimize", "--overlap", overlap, "--prior", prior,
                      "--receivers", str(n), "--strategy", strategy])
                payload = json.loads(capsys.readouterr().out)
                stage = payload["stages"][0]
                assert cells[3 * k:3 * k + 3] == [
                    repr(payload["joint_success"]), repr(stage["p1"]), repr(stage["p2"])
                ], (strategy, overlap, prior)

    @pytest.mark.parametrize(
        "args",
        [
            ("--variable", "overlap", "--start", "0.1", "--stop", "1.0", "--points", "8"),
            ("--variable", "prior", "--start", "0.2", "--stop", "1.0", "--points", "12"),
            ("--variable", "overlap", "--start", "0", "--stop", "1", "--points", "50"),
        ],
    )
    def test_grid_ends_at_stop(self, args, tmp_path):
        """start + k * step overshoots or falls short of stop by an ulp here."""
        out = tmp_path / "end.csv"
        assert main(["sweep", *args, "--receivers", "2", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1].split(",")[0] == "1.0"

    def test_invalid_points_exits_2(self, tmp_path):
        code = main(
            ["sweep", "--variable", "prior", "--points", "1", "--receivers", "2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        overlaps=SWEEP_AXIS,
        priors=SWEEP_AXIS,
        n=st.sampled_from((1, 2, 3, 8, 32, 200)),
        strategies=st.lists(st.sampled_from(list(Strategy)), min_size=1, max_size=6),
    )
    def test_every_cell_equals_its_scalar_reference(self, overlaps, priors, n, strategies):
        """Each strategy's cells, in any order and with repeats, equal the
        joint and first stage that ``optimize`` prints for the instance, by
        float.hex, which keeps -0.0 apart from 0.0."""
        rows = cli._sweep_rows(overlaps, priors, n, ("overlap", "prior_1"), strategies)
        expected = []
        for s in overlaps:
            for prior in priors:
                inst = DiscriminationInstance(s, prior, n_receivers=n)
                cells = [s, prior]
                for strategy in strategies:
                    result = cli._solve(inst, strategy)
                    cells += [result.joint_success, *result.stages[0]]
                expected.append([x.hex() for x in cells])
        assert [[float(t).hex() for t in row.split(",")] for row in rows] == expected

    @pytest.mark.parametrize("n", (1, 200))
    def test_no_numpy_warning_escapes(self, n, tmp_path):
        """The grid holds overlaps 0 and 1 and priors 0, 1/2 and 1: at overlap 1
        and equal priors the Helstrom root is 0."""
        out = tmp_path / "edges.csv"
        argv = [
            "sweep", "--variable", "both", "--points", "3", "--prior-points", "3",
            "--receivers", str(n), "--strategies", ",".join(s.name for s in Strategy),
            "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 3 * 3

    def test_unwritable_output_exits_3(self):
        code = main(
            ["sweep", "--variable", "prior", "--points", "5", "--receivers", "2",
             "--overlap", "0.5", "--out", "/nonexistent_dir/x.csv"]
        )
        assert code == 3


class TestSimulateCommand:
    def test_passing_run(self, capsys):
        code = main(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "50000", "--seed", "42"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(payload["z_score"]) <= 4.0
        assert payload["prng"] == "philox4x64"
        assert len(payload["per_receiver_success"]) == 2

    def test_orthogonal_is_exact(self, capsys):
        code = main(
            ["simulate", "--overlap", "0", "--prior", "0.3", "--receivers", "2",
             "--trials", "20000", "--seed", "1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["empirical_joint"] == 1.0

    def test_statistical_failure_exits_1(self, capsys):
        """A 12-trial run with a lucky seed lands outside 4 sigma."""
        code = main(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "12", "--seed", "35"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert abs(payload["z_score"]) > 4.0

    def test_no_success_gives_a_finite_score(self, capsys):
        """0 of 20,000 trials succeed against a predicted 8.6e-5: the score
        takes the predicted rate's standard error, and the JSON stays strict."""

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        code = main(
            ["simulate", "--overlap", "0.9", "--prior", "0.5", "--receivers", "16",
             "--strategy", "INDIVIDUAL_GREEDY", "--trials", "20000", "--seed", "7"]
        )
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == 0
        assert payload["joint_successes"] == 0
        assert payload["z_score"] == pytest.approx(-1.314, abs=1e-3)

    def test_zero_trials_exits_2(self, capsys):
        code = main(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "0", "--seed", "1"]
        )
        assert code == 2

    def test_numerical_underflow_exits_2(self, monkeypatch):
        """A chain that fails the simulator's probability check is an error
        message and exit 2, not a traceback."""

        def underflow(inst, stages, cfg):
            raise NumericalUnderflow("stage 1: outcome probabilities sum to 1 +/- 2.000e-10")

        monkeypatch.setattr(cli, "run_chain_simulation", underflow)
        code, out, err = _main_output(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "100", "--seed", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: stage 1: outcome probabilities sum to 1 +/- 2.000e-10\n"

    def test_nan_detector_exits_2(self, monkeypatch):
        """A stage with one NaN detector entry stops the run before any trial."""
        inst = DiscriminationInstance(0.5, 0.5, n_receivers=2)
        stages = build_chain(inst, cli._solve(inst, Strategy.JBG_OPTIMAL))
        bad = np.array(stages[0].detectors[0])
        bad[0, 1] = math.nan
        stages[0] = dataclasses.replace(stages[0], detectors=(bad, stages[0].detectors[1]))
        monkeypatch.setattr(cli, "build_chain", lambda inst, result: stages)
        code, out, err = _main_output(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "100000", "--seed", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: stage 1: outcome probability is not finite\n"

    def test_seed_philox_cannot_key_exits_2_before_the_chain_is_built(self, monkeypatch):
        monkeypatch.setattr(cli, "build_chain", None)
        code, out, err = _main_output(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "10", "--seed", str(2**128)]
        )
        assert (code, out) == (2, "")
        assert "seed" in err

    def test_largest_seed_runs(self, capsys):
        code = main(
            ["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
             "--trials", "10", "--seed", str(2**128 - 1)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**128 - 1

    def test_missing_seed_exits_2(self):
        result = run_cli(
            "simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2"
        )
        assert result.returncode == 2


class TestFindSbCommand:
    def test_two_receivers(self, capsys):
        code = main(["find-sb", "--receivers", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 0.74 <= payload["s_b"] <= 0.76

    def test_single_receiver_exits_2(self, capsys):
        assert main(["find-sb", "--receivers", "1"]) == 2


class TestExitCodeContract:
    """0 success, 1 statistical failure, 2 usage, 3 I/O -- all reachable."""

    def test_all_codes(self, tmp_path, capsys):
        assert main(["optimize", "--overlap", "0.5", "--prior", "0.5", "--receivers", "1"]) == 0
        assert main(["simulate", "--overlap", "0.5", "--prior", "0.5", "--receivers", "2",
                     "--trials", "12", "--seed", "35"]) == 1
        assert main(["optimize", "--overlap", "2", "--prior", "0.5", "--receivers", "1"]) == 2
        assert main(["sweep", "--variable", "prior", "--points", "3", "--receivers", "1",
                     "--overlap", "0.2", "--out", "/nonexistent_dir/y.csv"]) == 3
        capsys.readouterr()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_argv_exits_0_to_3_with_json_on_stdout(self, data):
        """Over well-formed argv of all four subcommands, with values in and
        out of range, main returns a documented code, raises nothing, and
        prints JSON (NaN and Infinity admitted under schema 1) or nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            argv = data.draw(_argv(Path(tmp)))
            code, out, err = _main_output(argv)
        assert code in (0, 1, 2, 3)
        assert code != 1 or argv[0] == "simulate"
        if code >= 2:
            assert (out, err[:7]) == ("", "error: ")
        elif argv[0] == "sweep":
            assert out == ""
        else:
            assert json.loads(out)["schema_version"] == 1


_UNIT_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
_ANY_FLOAT = st.one_of(_UNIT_FLOAT, st.floats(allow_nan=True, allow_infinity=True))
_STRATEGY_NAME = st.sampled_from([s.name for s in Strategy] + ["jbg-optimal"])


@st.composite
def _argv(draw, tmp):
    """argv that argparse accepts; ``--name=value`` keeps a negative value
    from reading as a flag. Half the draws keep every value in range, the
    other half let any value stray out of it."""
    wild = draw(st.booleans())
    real = _ANY_FLOAT if wild else _UNIT_FLOAT
    name = st.one_of(_STRATEGY_NAME, st.just("NO_SUCH")) if wild else _STRATEGY_NAME
    command = draw(st.sampled_from(["optimize", "sweep", "simulate", "find-sb"]))
    # Chains above MAX_RECEIVERS, up to sizes that no list can hold, are
    # refused before anything of length N is built.
    huge = st.sampled_from((MAX_RECEIVERS + 1, 2**61, 10**20))
    n = st.one_of(st.integers(-1, 12), huge) if wild else st.integers(2, 12)
    receivers = f"--receivers={draw(n)}"
    if command == "find-sb":
        return [command, receivers]
    if command == "sweep":
        out = tmp / "missing" / "grid.csv" if wild and draw(st.booleans()) else tmp / "grid.csv"
        strategies = draw(st.lists(name, min_size=0 if wild else 1, max_size=3))
        argv = [command, f"--variable={draw(st.sampled_from(['overlap', 'prior', 'both']))}",
                receivers, f"--out={out}", f"--strategies={','.join(strategies)}"]
        for flag in ("start", "stop", "prior-start", "prior-stop", "overlap", "prior"):
            argv.append(f"--{flag}={draw(real)!r}")
        for flag in ("points", "prior-points"):
            argv.append(f"--{flag}={draw(st.integers(-1 if wild else 2, 6))}")
        return argv
    argv = [command, f"--overlap={draw(real)!r}", f"--prior={draw(real)!r}", receivers,
            f"--strategy={draw(name)}"]
    if command == "optimize":
        return argv + (["--emit-stages"] if draw(st.booleans()) else [])
    trials = draw(st.integers(-1 if wild else 1, 50_000))
    seed = draw(st.integers(-1, 2**130) if wild else st.integers(0, 2**32))
    return argv + [f"--trials={trials}", f"--seed={seed}"]
