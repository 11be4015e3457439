"""From strategy to hardware: explicit detection operators for each receiver.

Builds the measurement chain realizing the optimal strategy, prints the 2x2
detection operators, and re-checks the POVM axioms they must satisfy.
"""

import numpy as np

from guesschain import (
    DiscriminationInstance,
    build_chain,
    distinguishability,
    make_state_pair,
    optimize_reduced,
    overlap_ladder,
)

np.set_printoptions(precision=6, suppress=True)

inst = DiscriminationInstance(overlap=0.25, prior_1=0.5, n_receivers=2)
result = optimize_reduced(inst)
stages = build_chain(inst, result)

print(f"chain for overlap={inst.overlap}, equal priors, {inst.n_receivers} receivers")
ladder = overlap_ladder(inst.overlap, inst.n_receivers)
print(f"arriving overlaps along the chain: {[round(t, 6) for t in ladder]}\n")

for k, stage in enumerate(stages, start=1):
    print(f"receiver {k}: consumes overlap {stage.in_overlap:.6f}, "
          f"emits overlap {stage.out_overlap:.6f}")
    print(f"  success pair: p1 = {stage.success.p1:.6f}, p2 = {stage.success.p2:.6f}")
    b1, b2 = map(np.array, stage.detectors)
    for name, det in (("B1", b1), ("B2", b2)):
        print(f"  {name} =")
        for row in det:
            print(f"      [{row[0]: .6f} {row[1]: .6f}]")
    gram = b1.T @ b1 + b2.T @ b2
    print(f"  completeness defect |B1'B1 + B2'B2 - I| = "
          f"{np.max(np.abs(gram - np.eye(2))):.2e}")
    psi1, psi2 = (np.array(state.amplitudes) for state in make_state_pair(stage.in_overlap))
    q1 = np.linalg.norm(b1 @ psi1) ** 2
    q2 = np.linalg.norm(b2 @ psi2) ** 2
    print(f"  Born-rule check: <psi1|B1'B1|psi1> = {q1:.6f}, "
          f"<psi2|B2'B2|psi2> = {q2:.6f}")
    stage.validate()
    print("  all POVM invariants hold\n")

budgets = [distinguishability(*stage.success) for stage in stages]
print("telescoping: per-receiver budgets multiply back to the prepared overlap:")
print(f"  {' * '.join(f'{b:.6f}' for b in budgets)} = "
      f"{np.prod(budgets):.6f} (prepared overlap {inst.overlap})")
