# Baseline run of the reacting hot-spot surrogate
# -----------------------------------------------
# One fuel species with Arrhenius kinetics on a periodic 1-D grid: a gaussian
# temperature bump diffuses, ignites, and burns towards a hot steady peak.
# The adaptive controller sweeps each step until the residual stalls or the
# cap is hit; early steps (steep transient) ride the cap, later ones relax.

from collections import Counter

from resilient_sdc.campaign import RunConfig, run_single
from resilient_sdc.problems import ignition_metrics

config = RunConfig(problem="ignition", integrator="sdc_resilient")
print(f"grid points : {config.surrogate.n_grid}")
print(f"dt          : {config.resolved_dt():.3e}  (0.1x the diffusive limit)")
print(f"t_end       : {config.resolved_t_end():.1e}")

report = run_single(config)

print(f"status      : {report.status}  (capped = some step reached max_sweeps without meeting the residual test)")
print(f"steps       : {report.metrics['steps']}")
print(f"restarts    : {report.metrics['restarts']}")

print()
print("peak temperature along the run:")
trajectory = report.trajectory
for i in range(0, len(trajectory), len(trajectory) // 12):
    t, state = trajectory[i]
    peak = state[: config.surrogate.n_grid].max()
    print(f"  t = {t:.3e}   peak T = {peak:8.2f}")

metrics = ignition_metrics(trajectory)
print()
print(f"final peak T   : {metrics['final_peak_T']:.2f}")
print(f"ignition delay : {metrics['ignition_delay']:.3e}  (half-rise crossing)")

sweep_counts = Counter(trace.sweeps_taken for trace in report.traces)
print()
print("sweeps per step (controller at work):")
for sweeps in sorted(sweep_counts):
    print(f"  {sweeps} sweeps: {sweep_counts[sweeps]:5d} steps")
