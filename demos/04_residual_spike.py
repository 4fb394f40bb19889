# What a soft error does to the residual trail
# --------------------------------------------
# A one-shot fault multiplies one entry of the reaction-rate kernel's output
# by 1e4 during sweep 3 of step 65.  With a fixed sweep budget the step still
# "completes" but its final residual jumps by orders of magnitude - exactly
# the signal the adaptive controller watches.  The same fault under the
# controller just costs a couple of extra sweeps on that one step.

from resilient_sdc.campaign import RunConfig, run_single
from resilient_sdc.faults import FaultConfig, OneShotSpec

FAULT_STEP = 65
fault = OneShotSpec(
    step_index=FAULT_STEP,
    sweep_index=3,
    node_index=2,
    kernel_id="reaction_rate",
    offset=85,
    scale=1.0e4,
)
t_end = 67 * RunConfig(problem="ignition").surrogate.default_dt()


def run(integrator, source=FaultConfig()):
    cfg = RunConfig(problem="ignition", integrator=integrator, t_end=t_end, fault=source)
    return run_single(cfg)


# Fixed 4-sweep integrator: the fault slips through as a residual spike.
clean = run("sdc_fixed")
faulted = run("sdc_fixed", fault)
print("fixed 4-sweep integrator, residual max-norm at each sweep of step 65:")
print(f"  fault-free: {['%.3e' % r for r in clean.traces[FAULT_STEP].residual_maxnorms]}")
print(f"  faulted   : {['%.3e' % r for r in faulted.traces[FAULT_STEP].residual_maxnorms]}")
spike = (
    faulted.traces[FAULT_STEP].residual_maxnorms[-1]
    / clean.traces[FAULT_STEP].residual_maxnorms[-1]
)
print(f"  final-sweep spike: {spike:.2e}x the fault-free value")

# Adaptive controller: the residual stall test refuses to accept the step
# until the corruption is swept away.
clean = run("sdc_resilient")
faulted = run("sdc_resilient", fault)
print()
print("adaptive controller on the same fault:")
print(f"  sweeps on step 65, fault-free: {clean.traces[FAULT_STEP].sweeps_taken}")
print(f"  sweeps on step 65, faulted   : {faulted.traces[FAULT_STEP].sweeps_taken}")
print(f"  restarts: {faulted.metrics['restarts']}")
final_gap = abs(
    faulted.metrics["final_peak_T"] - clean.metrics["final_peak_T"]
)
print(f"  |final peak T difference| vs fault-free: {final_gap:.3e}")
