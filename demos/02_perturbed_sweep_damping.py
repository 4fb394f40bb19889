# How sweeps damp a corrupted right-hand side
# -------------------------------------------
# A single wrong rhs evaluation contaminates the stored rhs values.  Here a
# type-A fault scales the output of the linear problem's `derivative`
# kernel by s at sweep 3, node 2, so y' = s*y replaces y' = y for that one
# evaluation.  The corruption shows up in the iterate one sweep later, and
# is then contracted geometrically by every further sweep until the
# iterate returns to the unperturbed fixed point.
# This is the mechanism that lets a residual-watching controller ride out
# soft errors by simply sweeping a little longer.

import numpy as np

from resilient_sdc.faults import KernelHook, OneShotPerturbation, OneShotSpec
from resilient_sdc.problems import LINEAR_KERNEL_ID, LinearProblem
from resilient_sdc.quadrature import lobatto_rule

from resilient_sdc.sdc import predictor, sdc_sweep

rule = lobatto_rule(3)
n_sweeps = 20


def node_iterates(hook):
    """Node states after the predictor and after each correction sweep."""
    system = LinearProblem().system(hook)
    sol = predictor(np.ones(1), rule, system, 0.0, 1.0)
    states = [sol.node_states.copy()]
    for k in range(2, n_sweeps + 2):
        sol = sdc_sweep(sol, rule, system, sweep_index=k)
        states.append(sol.node_states.copy())
    return states


clean = node_iterates(KernelHook())

for s in [1.5, 100.0]:
    fault = OneShotSpec(step_index=0, sweep_index=3, node_index=2, kernel_id=LINEAR_KERNEL_ID,
                        offset=0, scale=s)
    perturbed = node_iterates(OneShotPerturbation(fault))
    deviation = [float(np.max(np.abs(p - c))) for p, c in zip(perturbed, clean)]
    print(f"perturbation y' = {s}*y at sweep 3, node 2:")
    print(f"{'iterate':>8} {'|perturbed - clean|':>20} {'ratio':>8}")
    for k, dev in enumerate(deviation):
        ratio = f"{dev / deviation[k - 1]:.3f}" if k and deviation[k - 1] else ""
        print(f"{k:>8} {dev:>20.3e} {ratio:>8}")
    print()

# The corruption lands in the *stored* rhs, so the iterate only moves one
# sweep later; the per-sweep contraction afterwards is the same for any
# perturbation size, because the error recursion is linear.
