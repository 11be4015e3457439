"""Command-line front end: solves, sweeps, simulations, threshold search.

Subcommands
-----------
optimize   solve one instance, print the strategy as JSON (optionally with
           the serialized measurement stages)
sweep      tabulate strategies over an overlap and/or prior grid as CSV
simulate   build a chain, run the seeded Monte Carlo check, print the report
find-sb    locate the equal-prior validity threshold of the symmetric formula

Exit codes: 0 success, 1 statistical acceptance failure (simulate only),
2 usage/validation error (a chain that fails the simulator's probability
check included), 3 output I/O error.

All JSON carries a top-level ``"schema_version": 1``. Floats are emitted in
shortest round-trip decimal form in both JSON and CSV, so outputs are
bit-stable across runs; CSV uses UTF-8, comma separators, a header row, and
LF line endings. Diagnostics go to stderr only.

JSON is written by ``json.dumps(indent=2)``, except that ``optimize`` writes
the same bytes in one encoder pass. At import, json itself lays out the
templates: schema-1 skeletons of the payload's frame, a ``{"p1", "p2"}`` stage,
an ``overlaps`` item and a measurement stage go through ``json.dumps(indent=2)``.
A run collects every number of its payload and formats them all in a single
call of json's C encoder, so each number reads as json writes it
(``float.__repr__``, or ``NaN``/``Infinity``/``-Infinity``), and the
pure-Python indent encoder never runs: the 25 payloads of one chain-build round
(1,850 measurement stages) take about a fifth of the generic encoder's time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

from .core import (
    DiscriminationInstance,
    Strategy,
    StrategyResult,
    boundary_solution,
    equal_prior_jbg,
    individual_greedy,
    overlap_ladder,
)
from .optimize import SweepGrid, find_sb, optimize_reduced
from .povm import MeasurementStage, _half_angle, build_chain
from .simulate import NumericalUnderflow, SimConfig, run_chain_simulation

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _solve(inst: DiscriminationInstance, strategy: Strategy) -> StrategyResult:
    if strategy is Strategy.JBG_OPTIMAL:
        return optimize_reduced(inst)
    if strategy is Strategy.JBG_SYMMETRIC_ANALYTIC:
        # Same symmetric stages; the joint is reweighted by the true priors
        # (the product can differ from p**N in the last bits).
        symmetric = equal_prior_jbg(inst.overlap, inst.n_receivers)
        joint = symmetric.recompute_joint(inst.prior_1, inst.prior_2)
        return dataclasses.replace(symmetric, joint_success=joint)
    if strategy is Strategy.INDIVIDUAL_GREEDY:
        return individual_greedy(inst)
    if strategy is Strategy.BOUNDARY:
        return boundary_solution(inst)
    raise ValueError(f"unsupported strategy {strategy!r}")


def _parse_strategy(name: str) -> Strategy:
    try:
        return Strategy[name.upper().replace("-", "_")]
    except KeyError:
        valid = ", ".join(s.name for s in Strategy)
        raise ValueError(f"unknown strategy {name!r} (expected one of: {valid})") from None


def _instance_from_args(args: argparse.Namespace) -> DiscriminationInstance:
    return DiscriminationInstance(
        overlap=args.overlap,
        prior_1=args.prior,
        n_receivers=args.receivers,
    )


def _header_json(overlap, prior_1, prior_2, receivers, strategy) -> dict:
    # The leading keys of every optimize and simulate payload.
    return {
        "schema_version": SCHEMA_VERSION,
        "overlap": overlap,
        "prior_1": prior_1,
        "prior_2": prior_2,
        "receivers": receivers,
        "strategy": strategy,
    }


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# The optimize payload as json.dumps(indent=2) lays it out. "\0" marks a value
# slot and "\1" the items of a list; each template is json's own text of a
# skeleton, with "%s" in every slot.
_SLOT = "\0"
_LIST = "\1"


def _template(skeleton) -> str:
    return json.dumps(skeleton, indent=2).replace(json.dumps(_SLOT), "%s")


def _item_template(item) -> str:
    """The item's text in a list that is a value of the payload object."""
    return _template([[item]]).removeprefix("[\n  [\n    ").removesuffix("\n  ]\n]")


def _frame(emit_stages: bool) -> list[str]:
    """The payload's text around its lists (stages, overlaps, measurement stages)."""
    skeleton = {
        **_header_json(_SLOT, _SLOT, _SLOT, _SLOT, _SLOT),
        "stages": [_LIST],
        "overlaps": [_LIST],
        "joint_success": _SLOT,
    }
    if emit_stages:
        skeleton["measurement_stages"] = [_LIST]
    return _template(skeleton).split(json.dumps(_LIST))


_FRAMES = {False: _frame(False), True: _frame(True)}
_ITEM_SEPARATOR = _template([[_SLOT, _SLOT]]).split("%s")[1]
_CELL = [_SLOT, 0.0]  # an [x, 0.0] pair of a detector or an output
_ITEMS = (
    _item_template({"p1": _SLOT, "p2": _SLOT}),
    _item_template(_SLOT),
    _item_template(
        {
            "detector_1": [[_CELL, _CELL], [_CELL, _CELL]],
            "detector_2": [[_CELL, _CELL], [_CELL, _CELL]],
            "output_1": [_CELL, _CELL],
            "output_2": [_CELL, _CELL],
            "p1": _SLOT,
            "p2": _SLOT,
            "in_overlap": _SLOT,
            "out_overlap": _SLOT,
        }
    ),
)


def _float_texts(values: list[float]) -> list[str]:
    """json's text of each float, from one call of json's C encoder:
    float.__repr__, or NaN, Infinity and -Infinity, as the indent encoder
    writes them."""
    return json.dumps(values)[1:-1].split(", ")


def _optimize_text(
    inst: DiscriminationInstance,
    result: StrategyResult,
    stages: list[MeasurementStage] | None,
) -> str:
    """The optimize payload, byte for byte as json.dumps(indent=2) writes it,
    with the measurement stages when ``stages`` is not None.

    Every number but the receiver count must be a float, and every list must
    hold an item, as in each payload the CLI writes.
    """
    values = [inst.overlap, inst.prior_1, inst.prior_2]
    values += itertools.chain.from_iterable(result.stages)
    values += overlap_ladder(inst.overlap, inst.n_receivers)
    values.append(result.joint_success)
    for stage in stages or ():
        for detector in stage.detectors:
            values += itertools.chain.from_iterable(detector)
        c, s = _half_angle(stage.out_overlap)  # the output pair (c, s), (c, -s)
        values += (c, s, c, -s, *stage.success, stage.in_overlap, stage.out_overlap)
    texts = _float_texts(values)
    head, *tails = _FRAMES[stages is not None]
    counts = (len(result.stages), inst.n_receivers, len(stages or ()))
    template = head + "".join(
        _ITEM_SEPARATOR.join([item] * count) + tail
        for item, count, tail in zip(_ITEMS, counts, tails)
    )
    name = json.dumps(result.strategy.name)
    return template % (*texts[:3], inst.n_receivers, name, *texts[3:])


def cmd_optimize(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    result = _solve(inst, _parse_strategy(args.strategy))
    stages = build_chain(inst, result) if args.emit_stages else None
    sys.stdout.write(_optimize_text(inst, result, stages) + "\n")
    return EXIT_OK


def _sweep_rows(
    overlaps: list[float],
    priors: list[float],
    n: int,
    coords: tuple[str, ...],
    strategies: list[Strategy],
) -> list[str]:
    """The CSV rows of a sweep over overlaps x priors, row-major: the
    coordinates named in ``coords``, then each strategy's joint, p1 and p2.

    Every cell is a Python float's repr, its shortest round-trip text, and
    equals the first stage and joint of ``_solve`` for that instance. A value
    shared by a whole row or column (a coordinate, the symmetric p, the
    boundary q, the pinned 1.0) is formatted once, and a repeated strategy
    is solved once.
    """
    grid = SweepGrid(overlaps, priors, n)
    rows, cols = grid.shape

    def per_point(values) -> list[str]:
        return list(map(repr, values.ravel().tolist()))

    def per_row(texts) -> list[str]:
        return list(itertools.chain.from_iterable(map(itertools.repeat, texts, [cols] * rows)))

    columns: dict[Strategy, list[list[str]]] = {}
    for strategy in dict.fromkeys(strategies):  # a repeated strategy is solved once
        if strategy is Strategy.JBG_SYMMETRIC_ANALYTIC:
            p, joint = grid.symmetric()
            columns[strategy] = [per_point(joint), per_row(f"{t},{t}" for t in per_point(p))]
        elif strategy is Strategy.BOUNDARY:
            q, pin1, joint = grid.boundary()
            # (q, 1.0) where p2 is pinned, (1.0, q) where p1 is
            choices = [(f"{t},1.0", f"1.0,{t}") for t in per_point(q)]
            pairs = [pair[pin] for pair, pins in zip(choices, pin1.tolist()) for pin in pins]
            columns[strategy] = [per_point(joint), pairs]
        else:
            solve = grid.optimal if strategy is Strategy.JBG_OPTIMAL else grid.greedy
            p1, p2, joint = solve()
            columns[strategy] = [per_point(joint), per_point(p1), per_point(p2)]
    axes = {"overlap": per_row(map(repr, overlaps)), "prior_1": list(map(repr, priors)) * rows}
    table = [axes[name] for name in coords]
    for strategy in strategies:
        table += columns[strategy]
    return list(map(",".join, zip(*table)))


def cmd_sweep(args: argparse.Namespace) -> int:
    strategies = [_parse_strategy(name) for name in args.strategies.split(",") if name]
    if not strategies:
        raise ValueError("at least one strategy must be requested")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    if not (0.0 <= args.start <= 1.0 and 0.0 <= args.stop <= 1.0):
        raise ValueError("--start/--stop must lie in [0, 1]")

    def grid(start: float, stop: float, points: int) -> list[float]:
        # start + k * step can miss stop by an ulp, so the last point is stop
        # itself, as in np.linspace.
        step = (stop - start) / (points - 1)
        return [start + k * step for k in range(points - 1)] + [stop]

    if args.variable == "overlap":
        overlaps, priors = grid(args.start, args.stop, args.points), [args.prior]
    elif args.variable == "prior":
        overlaps, priors = [args.overlap], grid(args.start, args.stop, args.points)
    else:  # both
        if args.prior_points < 2:
            raise ValueError(f"--prior-points must be >= 2, got {args.prior_points}")
        if not (0.0 <= args.prior_start <= 1.0 and 0.0 <= args.prior_stop <= 1.0):
            raise ValueError("--prior-start/--prior-stop must lie in [0, 1]")
        overlaps = grid(args.start, args.stop, args.points)
        priors = grid(args.prior_start, args.prior_stop, args.prior_points)
    coords = {"overlap": ("overlap",), "prior": ("prior_1",), "both": ("overlap", "prior_1")}
    header = list(coords[args.variable])
    for strategy in strategies:
        prefix = strategy.name.lower()
        header += [f"{prefix}_joint_success", f"{prefix}_p1", f"{prefix}_p2"]
    rows = _sweep_rows(overlaps, priors, args.receivers, coords[args.variable], strategies)

    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join([",".join(header), *rows]) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    cfg = SimConfig(seed=args.seed, trials=args.trials)
    result = _solve(inst, _parse_strategy(args.strategy))
    stages = build_chain(inst, result)
    report = run_chain_simulation(inst, stages, cfg)
    payload = {
        **_header_json(
            inst.overlap, inst.prior_1, inst.prior_2, inst.n_receivers, result.strategy.name
        ),
        "trials": report.trials,
        "seed": report.seed,
        "prng": report.prng,
        "joint_successes": report.joint_successes,
        "empirical_joint": report.empirical_joint,
        "std_error": report.std_error,
        "predicted_joint": report.predicted_joint,
        "z_score": report.z_score,
        "per_state_counts": list(report.per_state_counts),
        "per_receiver_success": [list(pair) for pair in report.per_receiver_success],
        "predicted_per_receiver": [[s.p1, s.p2] for s in result.stages],
    }
    _emit(payload)
    return EXIT_OK if abs(report.z_score) <= 4.0 else EXIT_STAT_FAIL


def cmd_find_sb(args: argparse.Namespace) -> int:
    if args.receivers < 2:
        raise ValueError("the threshold is only defined for 2 or more receivers")
    value = find_sb(args.receivers)
    _emit({"schema_version": SCHEMA_VERSION, "n": args.receivers, "s_b": value})
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guesschain",
        description="Optimal joint-guess strategies for sequential qubit discrimination chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--overlap", type=float, required=True, help="prepared-pair overlap in [0, 1]")
        p.add_argument("--prior", type=float, required=True, help="prior probability of state 1")
        p.add_argument("--receivers", type=int, required=True, help="number of receivers in the chain")

    p_opt = sub.add_parser("optimize", help="solve one instance and print JSON")
    add_instance_flags(p_opt)
    p_opt.add_argument("--strategy", default="JBG_OPTIMAL", help="strategy to compute")
    p_opt.add_argument(
        "--emit-stages",
        action="store_true",
        help="include the serialized measurement stages in the JSON",
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="tabulate strategies over a parameter grid as CSV")
    p_sweep.add_argument("--variable", choices=("overlap", "prior", "both"), required=True)
    p_sweep.add_argument("--start", type=float, default=0.0, help="swept-variable start (overlap axis for 'both')")
    p_sweep.add_argument("--stop", type=float, default=1.0, help="swept-variable stop")
    p_sweep.add_argument("--points", type=int, default=101, help="swept-variable point count")
    p_sweep.add_argument("--prior-start", type=float, default=0.0, help="prior axis start ('both' only)")
    p_sweep.add_argument("--prior-stop", type=float, default=1.0, help="prior axis stop ('both' only)")
    p_sweep.add_argument("--prior-points", type=int, default=101, help="prior axis point count ('both' only)")
    p_sweep.add_argument("--overlap", type=float, default=0.5, help="fixed overlap when sweeping the prior")
    p_sweep.add_argument("--prior", type=float, default=0.5, help="fixed prior when sweeping the overlap")
    p_sweep.add_argument("--receivers", type=int, required=True)
    p_sweep.add_argument(
        "--strategies",
        default="JBG_OPTIMAL",
        help="comma-separated strategies to tabulate",
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a built chain")
    add_instance_flags(p_sim)
    p_sim.add_argument("--trials", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, required=True, help="PRNG seed (mandatory for reproducibility)")
    p_sim.add_argument("--strategy", default="JBG_OPTIMAL")
    p_sim.set_defaults(func=cmd_simulate)

    p_sb = sub.add_parser("find-sb", help="equal-prior validity threshold of the symmetric formula")
    p_sb.add_argument("--receivers", type=int, required=True)
    p_sb.set_defaults(func=cmd_find_sb)

    return parser


def main(argv: list[str] | None = None) -> int:
    # parse_args leaves the parser unchanged, so in-process callers share one.
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NumericalUnderflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
