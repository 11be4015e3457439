"""Inputs of the four benchmark workloads, generated from the benchmark seed.

Every workload is a *round*: a fixed list of CLI invocations in a seeded
order. A run repeats whole rounds until its time is up, so each operation
class keeps the same share of a run whatever the seed and the run length.
The seed picks the parameters inside each class (grid ranges, overlaps,
priors, Monte Carlo seeds) and the interleaving order; the cost make-up of a
round (how many ops of which size) does not depend on it.

Inputs that the program is known to reject are kept out of the seeded part.
The only failing operations are the two fixed chain-build instances in
``CHAIN_FAILING``, which do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STRATEGIES = "JBG_OPTIMAL,JBG_SYMMETRIC_ANALYTIC,INDIVIDUAL_GREEDY,BOUNDARY"

# Placeholder in a sweep argv, replaced by the worker with a CSV path.
OUT_PLACEHOLDER = "{out}"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output check needs to know."""

    kind: str  # "sweep", "optimize", "chain", "find-sb" or "simulate"
    cls: str  # operation class: one warm-up per class, stats per class
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)
    expect_fail: bool = False


def _f(x: float) -> str:
    return f"{x:.4f}"


# --------------------------------------------------------------- surface-sweep
SWEEP_RECEIVERS = (2, 3, 8)
# (points, prior_points): five sizes, so that the median falls in the middle
# size and the 90th percentile inside the largest one.
SWEEP_GRIDS = ((9, 9), (11, 13), (15, 15), (17, 19), (21, 21))


def surface_sweep(seed: int) -> list[Op]:
    """Grids over nearly the whole (overlap, prior) square; the seed moves
    their edges by up to 0.05, which shifts every grid point but keeps the
    cost of a round close to the same."""
    rng = random.Random(f"surface-sweep/{seed}")
    ops = []
    for n in SWEEP_RECEIVERS:
        for points, prior_points in SWEEP_GRIDS:
            start, stop = rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0)
            pstart, pstop = rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0)
            argv = (
                "sweep", "--variable", "both",
                "--start", _f(start), "--stop", _f(stop), "--points", str(points),
                "--prior-start", _f(pstart), "--prior-stop", _f(pstop),
                "--prior-points", str(prior_points),
                "--receivers", str(n), "--strategies", STRATEGIES,
                "--out", OUT_PLACEHOLDER,
            )
            params = {
                "receivers": n,
                "overlap_axis": (float(_f(start)), float(_f(stop)), points),
                "prior_axis": (float(_f(pstart)), float(_f(pstop)), prior_points),
            }
            ops.append(Op("sweep", f"sweep-{points}x{prior_points}", argv, params))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------- threshold-scan
SB_RECEIVERS = tuple(range(2, 9))
# 28 find-sb ops and 7 single solves: the median lands 3/8 of the way into
# the find-sb latencies, clear of the much faster single solves.
SB_REPEATS = 4
OPTIMIZE_OPS = 7
OPTIMIZE_RECEIVERS = (2, 3, 4, 5, 6, 8, 12, 16, 32)


def threshold_scan(seed: int) -> list[Op]:
    rng = random.Random(f"threshold-scan/{seed}")
    ops = [
        Op("find-sb", f"find-sb-{n}", ("find-sb", "--receivers", str(n)), {"receivers": n})
        for n in SB_RECEIVERS
        for _ in range(SB_REPEATS)
    ]
    for i in range(OPTIMIZE_OPS):
        n = rng.choice(OPTIMIZE_RECEIVERS)
        overlap = _f(rng.random())
        prior = "0.5000" if i < 2 else _f(rng.random())  # equal priors too
        ops.append(_optimize_op("optimize", "optimize", overlap, prior, n, stages=False))
    rng.shuffle(ops)
    return ops


def _optimize_op(
    kind: str, cls: str, overlap: str, prior: str, n: int, stages: bool, expect_fail=False
) -> Op:
    argv = ("optimize", "--overlap", overlap, "--prior", prior, "--receivers", str(n))
    if stages:
        argv += ("--emit-stages",)
    params = {"overlap": float(overlap), "prior": float(prior), "receivers": n}
    return Op(kind, cls, argv, params, expect_fail)


# ----------------------------------------------------------------- chain-build
CHAIN_RECEIVERS = (2, 8, 32, 128, 200)
CHAIN_PER_RECEIVERS = 5  # equal shares: median at N = 32, p90 at N = 200
CHAIN_OVERLAPS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
# Overlaps closer to 1 than these fail completeness at the given chain length
# (ill-conditioned dual-basis expansion); the fixed slice below keeps one.
CHAIN_NEAR_ONE = {
    2: (0.999, 0.9999, 0.99999, 0.999999),
    8: (0.999, 0.9999, 0.99999),
    32: (0.999, 0.9999),
    128: (0.999, 0.9999),
    200: (0.999,),
}
CHAIN_PRIORS = (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49, 0.51, 0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0)
# Equal priors are built only below the threshold s_b(N) of the symmetric
# solution: above it the chain is rejected at some overlaps (see below).
CHAIN_EQUAL_PRIOR_OVERLAPS = {
    2: (0.0, 0.1, 0.3, 0.5, 0.7),
    8: (0.0,),
    32: (0.0,),
    128: (0.0,),
    200: (0.0,),
}
# Fixed failing slice, independent of the seed. Both exit 2 today:
#   (a) arriving overlap near 1: "completeness violated ... 1.212e-10";
#   (b) equal priors above s_b: "completeness violated ... 1.187e-10".
CHAIN_FAILING = (("0.999999", "0.3"), ("0.5", "0.5"))


def chain_pool(n: int) -> list[tuple[float, float]]:
    """Every (overlap, prior) the seeded part of chain-build may draw at N."""
    pool = [(s, p) for s in CHAIN_OVERLAPS + CHAIN_NEAR_ONE[n] for p in CHAIN_PRIORS]
    pool += [(s, 0.5) for s in CHAIN_EQUAL_PRIOR_OVERLAPS[n]]
    return pool


def chain_build(seed: int) -> list[Op]:
    rng = random.Random(f"chain-build/{seed}")
    ops = []
    for n in CHAIN_RECEIVERS:
        count = CHAIN_PER_RECEIVERS - (len(CHAIN_FAILING) if n == 8 else 0)
        for overlap, prior in rng.sample(chain_pool(n), count):
            ops.append(_optimize_op("chain", f"chain-{n}", repr(overlap), repr(prior), n, True))
    for overlap, prior in CHAIN_FAILING:
        ops.append(_optimize_op("chain", "chain-8", overlap, prior, 8, True, expect_fail=True))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- mc-verify
# (overlap, prior, simulation seed). Every entry passes the program's 4-sigma
# gate and the benchmark's own; a seed drawn at random would fail one run in
# ~16000 by chance alone, so the simulation seeds are fixed.
MC_POOL = {
    2: (
        (0.5, 0.3, 11), (0.25, 0.5, 12), (0.7, 0.8, 13), (0.9, 0.45, 14),
        (0.1, 0.6, 15), (0.6, 0.5, 16), (0.95, 0.2, 17), (0.4, 0.9, 18),
    ),
    8: (
        (0.5, 0.3, 21), (0.2, 0.7, 22), (0.8, 0.4, 23), (0.9, 0.6, 24),
        (0.3, 0.45, 25), (0.6, 0.55, 26), (0.95, 0.1, 27), (0.05, 0.35, 28),
    ),
}
# Two N = 2 ops per N = 8 op: the median lands inside the N = 2 class.
MC_ROUND = (2, 2, 8)


def mc_verify(seed: int) -> list[Op]:
    rng = random.Random(f"mc-verify/{seed}")
    picks = {n: rng.sample(MC_POOL[n], MC_ROUND.count(n)) for n in MC_POOL}
    ops = []
    for n in MC_ROUND:
        overlap, prior, sim_seed = picks[n].pop()
        argv = (
            "simulate", "--overlap", repr(overlap), "--prior", repr(prior),
            "--receivers", str(n), "--seed", str(sim_seed),
        )
        params = {"overlap": overlap, "prior": prior, "receivers": n, "seed": sim_seed}
        ops.append(Op("simulate", f"simulate-{n}", argv, params))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "surface-sweep": surface_sweep,
    "threshold-scan": threshold_scan,
    "chain-build": chain_build,
    "mc-verify": mc_verify,
}


def make_round(workload: str, seed: int) -> list[Op]:
    """The seeded round of ``workload``; the same seed gives the same list."""
    return WORKLOADS[workload](seed)
