"""End-to-end check: simulate the protocol and compare with the prediction.

A seeded Philox stream drives one million protocol rounds; the empirical
joint success, its binomial error bar, and the per-receiver conditional
successes are compared against the optimizer's strategy. Equivalent to
    guesschain simulate --overlap 0.5 --prior 0.35 --receivers 3 \
        --trials 1000000 --seed 7
"""

import math

from guesschain import (
    DiscriminationInstance,
    SimConfig,
    build_chain,
    optimize_reduced,
    run_chain_simulation,
)

inst = DiscriminationInstance(overlap=0.5, prior_1=0.35, n_receivers=3)
result = optimize_reduced(inst)
stages = build_chain(inst, result)

print(f"instance: overlap={inst.overlap}, priors=({inst.prior_1}, {inst.prior_2}), "
      f"receivers={inst.n_receivers}")
print(f"predicted joint success: {result.joint_success:.6f}\n")

report = run_chain_simulation(inst, stages, SimConfig(seed=7, trials=1_000_000))
print(f"simulated {report.trials:,} rounds with {report.prng}, seed {report.seed}")
print(f"  prepared-state counts: {report.per_state_counts}")
print(f"  empirical joint success: {report.empirical_joint:.6f} "
      f"+/- {report.std_error:.6f}")
print(f"  deviation from prediction: {report.z_score:+.2f} standard errors\n")

print("per-receiver conditional success (empirical vs predicted):")
print(f"  {'receiver':>8s} {'given 1':>20s} {'given 2':>20s}")
for k, (given1, given2) in enumerate(report.per_receiver_success):
    predicted = result.stages[k]
    sig1 = math.sqrt(predicted.p1 * (1 - predicted.p1) / report.per_state_counts[0])
    sig2 = math.sqrt(predicted.p2 * (1 - predicted.p2) / report.per_state_counts[1])
    print(f"  {k + 1:8d} {given1:9.5f} vs {predicted.p1:.5f} "
          f"{given2:9.5f} vs {predicted.p2:.5f}   "
          f"(z = {(given1 - predicted.p1) / sig1:+.2f}, "
          f"{(given2 - predicted.p2) / sig2:+.2f})")
print("\nrerunning with the same seed reproduces these numbers bit for bit.")
