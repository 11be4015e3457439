"""Tour of the closed-form layer on a single instance.

Walks through the quantities that define a guessing chain: the
distinguishability budget, the equal-prior symmetric solution, the
per-receiver greedy strategy, and the pinned boundary strategies.
"""

import math

from guesschain import (
    DiscriminationInstance,
    boundary_solution,
    distinguishability,
    equal_prior_jbg,
    individual_greedy,
    p2_from_p1,
)

inst = DiscriminationInstance(overlap=0.5, prior_1=0.5, n_receivers=2)
s_eff = inst.effective_overlap
print(f"instance: overlap={inst.overlap}, priors=({inst.prior_1}, {inst.prior_2}), "
      f"receivers={inst.n_receivers}")
print(f"per-receiver budget s**(1/N) = {s_eff:.6f}\n")

print("The distinguishability cost sqrt(p1(1-p2)) + sqrt(p2(1-p1)) is what a")
print("receiver spends against its overlap budget:")
for p1, p2 in [(1.0, 1.0), (0.9, 0.9), (0.5, 0.5)]:
    print(f"  D({p1}, {p2}) = {distinguishability(p1, p2):.6f}")
print()

print("Given p1, the best compatible p2 under the budget:")
for p1 in (1.0, 0.9, 0.8):
    p2 = p2_from_p1(p1, s_eff)
    print(f"  p1 = {p1:.2f}  ->  p2 = {p2:.6f}   "
          f"(D = {distinguishability(p1, p2):.6f})")
print()

symmetric = equal_prior_jbg(inst)
greedy = individual_greedy(inst)
pinned = boundary_solution(inst)
print("strategy comparison (equal priors, two receivers):")
print(f"  {'strategy':26s} {'p1':>10s} {'p2':>10s} {'joint':>10s}")
for result in (symmetric, greedy, pinned):
    p1, p2 = result.pair
    print(f"  {result.strategy.name:26s} {p1:10.6f} {p2:10.6f} "
          f"{result.joint_success:10.6f}")
print()
print("With equal priors below the validity threshold the greedy strategy")
print("coincides with the symmetric one; the boundary strategy is strictly worse.")
single = DiscriminationInstance(overlap=0.5, prior_1=0.5, n_receivers=1)
print(f"Single-receiver sanity: equal_prior_jbg at N = 1 gives "
      f"{equal_prior_jbg(single).joint_success:.6f} "
      f"(= (1 + sqrt(1 - 0.25))/2 = {(1 + math.sqrt(0.75)) / 2:.6f})")
