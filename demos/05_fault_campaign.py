# Monte Carlo fault campaign: unprotected vs resilient integration
# ----------------------------------------------------------------
# Every kernel return value is a potential bit-flip site; each run draws
# one fault per 5580-call window.  Twenty seeded runs per arm are enough to
# see the story: the Runge-Kutta arm either crashes on detectable corruption
# or silently lands on a scattered answer, while the resilient arm detects,
# restarts, and reproduces the fault-free peak temperature to a few mK.
# Takes about half a minute.

import warnings

from resilient_sdc.campaign import RunConfig, run_campaign, run_single
from resilient_sdc.faults import FaultConfig

# Corrupted values overflow before the guard catches them; that is the
# expected crash mechanism, not something worth printing 20 times.
warnings.filterwarnings("ignore", category=RuntimeWarning)

N_RUNS = 20
BASE_SEED = 4242
fault = FaultConfig(mode="type_b", window=5580, seed=0)


def arm(integrator):
    return RunConfig(problem="ignition", integrator=integrator, fault=fault)


reference = run_single(
    RunConfig(problem="ignition", integrator="rk", fault=FaultConfig(mode="off"))
)
fault_free_peak = reference.metrics["final_peak_T"]
print(f"fault-free final peak T: {fault_free_peak:.4f}")

for integrator in ["rk", "sdc_resilient"]:
    summary = run_campaign(arm(integrator), N_RUNS, BASE_SEED)
    print()
    print(f"{integrator} arm, {N_RUNS} runs:")
    print(f"  completed: {len(summary.scalars)}   crashes: {summary.crash_count}"
          f"   restarts: {summary.restart_count}")
    if summary.scalars:
        print(f"  final peak T: mean {summary.mean:.4f}   span {summary.span:.3e}"
              f"   variance {summary.variance:.3e}")
        print(f"  |mean - fault-free|: {abs(summary.mean - fault_free_peak):.3e}")
