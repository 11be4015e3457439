"""Global optimization: arbitrary priors, validity thresholds, oracles.

Shows the reduced 1-D optimizer against its two independent checks (plain
grid scan and unreduced full-chain search), the prior-washout effect, and
where the equal-prior symmetric formula stops being globally optimal.

The same tables are available as CSV through the command line, e.g.
    guesschain sweep --variable prior --points 101 --overlap 0.5 \
        --receivers 2 --strategies JBG_OPTIMAL --out sweep.csv
"""

import math

import numpy as np

from guesschain import (
    DiscriminationInstance,
    equal_prior_jbg,
    find_sb,
    grid_search_oracle,
    optimize_full_chain,
    optimize_reduced,
)

print("optimal joint success vs prior (overlap 0.5, two receivers):")
print(f"  {'prior_1':>8s} {'p1':>10s} {'p2':>10s} {'joint':>10s}")
for eta1 in np.linspace(0.0, 1.0, 11):
    inst = DiscriminationInstance(0.5, float(eta1), n_receivers=2)
    result = optimize_reduced(inst)
    p1, p2 = result.pair
    print(f"  {eta1:8.2f} {p1:10.6f} {p2:10.6f} {result.joint_success:10.6f}")
print("note the washout limit: as prior_1 -> 0 the optimum pins p2 = 1 while")
print("p1 -> 1 - overlap, a pure artifact of the overlap budget.\n")

inst = DiscriminationInstance(0.4, 0.3, n_receivers=2)
reduced = optimize_reduced(inst)
scan = grid_search_oracle(inst, 1_000_001)
full = optimize_full_chain(inst, 400)
print("three independent routes to the same optimum (overlap 0.4, prior 0.3):")
print(f"  reduced optimizer   : {reduced.joint_success:.9f}")
print(f"  exhaustive 1-D scan : {scan.joint_success:.9f}")
print(f"  unreduced 2-D search: {full.joint_success:.9f}")
print(f"  full-chain intermediate overlap {full.intermediate_overlaps[0]:.6f} "
      f"vs sqrt(s) = {math.sqrt(0.4):.6f}")
print("the unreduced search also lands on equal per-receiver probabilities:")
for k, stage in enumerate(full.stages, start=1):
    print(f"    receiver {k}: p1 = {stage.p1:.6f}, p2 = {stage.p2:.6f}")
print()

print("equal-prior validity thresholds of the symmetric closed form:")
for n in (2, 3, 4):
    threshold = find_sb(n)
    print(f"  N = {n}: s_b = {threshold:.4f}")
print()

s = 0.9
inst = DiscriminationInstance(s, 0.5, n_receivers=2)
best = optimize_reduced(inst)
symmetric = equal_prior_jbg(inst)
print(f"above the threshold (s = {s}) the symmetric formula is no longer optimal:")
print(f"  symmetric analytic : {symmetric.joint_success:.6f}  "
      f"(p = {symmetric.pair.p1:.6f})")
print(f"  global optimum     : {best.joint_success:.6f}  "
      f"(p1 = {best.pair.p1:.6f}, p2 = {best.pair.p2:.6f})")
