"""One sha256 over a fixed set of runs, to check that a change is bitwise
identical.

    python3 tools/fingerprint.py

The package is imported from this checkout's ``src/``, so running the script
in two checkouts and comparing the printed digests compares the two trees.
The run set covers the three integrators fault-free, type-B campaign members
of two base seeds, type-A resilient members, one scheduled one-shot fault per
kernel id, a fixed-sweep run of the linear problem, the linear RK4 and
resilient-SDC timestep ladders of the benchmark's ``converge-linear``
workload, and the rows of the linear convergence study, whose ladder runs
go through ``run_single`` like every other run.  The digest covers every
``RunReport``'s trajectory (times and state bytes), residual history, sweep
count (the residual history's length) and restart count, status, error
string, fault-event record and metric; floats enter as their exact hex
form.  The three fault-free runs, one type-B resilient member and the
fixed-sweep linear run also write their artifacts into a temporary
directory, and the digest covers each file's name and bytes.  No SDC run of
the set aborts.  A run takes a few seconds.
"""

import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from resilient_sdc.campaign import RunConfig, convergence_study, run_single  # noqa: E402
from resilient_sdc.faults import FaultConfig, OneShotSpec  # noqa: E402
from resilient_sdc.problems import KERNEL_IDS, IgnitionSurrogate  # noqa: E402

FAULT_FREE_STEPS = 200
MEMBER_STEPS = 20
MEMBER_WINDOW = 96
TYPE_B_SEEDS = (101, 4242)
TYPE_B_MEMBERS = 12
TYPE_A_SEED = 7
TYPE_A_MEMBERS = 6
ARTIFACT_MEMBER = (TYPE_B_SEEDS[0], "sdc_resilient", 0)  # (seed, integrator, member)
LINEAR_T_END = 2.0
LINEAR_LADDERS = {
    "rk": (0.05, 0.025, 0.0125, 0.00625),
    "sdc_resilient": (0.4, 0.2, 0.1, 0.05),
}


def _canonical(value):
    """JSON-ready form with every float as its hex bit pattern."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _report_parts(report):
    """Byte strings covering everything one ``run_single`` report holds."""
    record = {
        "status": report.status,
        "error": report.error,
        "metrics": report.metrics,
        "one_shot_fired": report.one_shot_fired,
        "traces": [
            [t.residual_maxnorms, t.sweeps_taken, t.restarts] for t in report.traces
        ],
        "events": [event.to_record() for event in report.events],
    }
    yield json.dumps(_canonical(record), sort_keys=True).encode()
    for t, state in report.trajectory:
        yield float.hex(float(t)).encode()
        yield state.tobytes()


def _artifact_parts(directory):
    """The name and bytes of every file in ``directory``, in name order."""
    for name in sorted(os.listdir(directory)):
        yield name.encode()
        with open(os.path.join(directory, name), "rb") as fh:
            yield fh.read()


def _run_parts(cfg, artifacts):
    """Byte strings of one run, its artifact files included if asked."""
    if not artifacts:
        yield from _report_parts(run_single(cfg))
        return
    with tempfile.TemporaryDirectory() as out:
        yield from _report_parts(run_single(replace(cfg, output_dir=out)))
        yield from _artifact_parts(out)


def _convergence_parts(rows):
    yield json.dumps(_canonical(rows), sort_keys=True).encode()


def run_set():
    """The fixed run set: a list of (label, thunk yielding byte strings)."""
    dt = IgnitionSurrogate().default_dt()
    runs = []

    def add(label, cfg, artifacts=False):
        runs.append((label, lambda: _run_parts(cfg, artifacts)))

    for integrator in ("rk", "sdc_fixed", "sdc_resilient"):
        cfg = RunConfig(integrator=integrator, t_end=FAULT_FREE_STEPS * dt)
        add(f"fault-free {integrator}", cfg, artifacts=True)

    member = RunConfig(t_end=MEMBER_STEPS * dt)
    for seed in TYPE_B_SEEDS:
        fault = FaultConfig(mode="type_b", window=MEMBER_WINDOW, seed=seed)
        for integrator in ("rk", "sdc_resilient"):
            for i in range(TYPE_B_MEMBERS):
                add(
                    f"type_b seed {seed} {integrator} member {i}",
                    replace(member, integrator=integrator, fault=fault, run_id=i),
                    artifacts=(seed, integrator, i) == ARTIFACT_MEMBER,
                )
    fault = FaultConfig(mode="type_a", window=MEMBER_WINDOW, seed=TYPE_A_SEED)
    for i in range(TYPE_A_MEMBERS):
        add(f"type_a sdc_resilient member {i}", replace(member, fault=fault, run_id=i))

    for kernel in KERNEL_IDS:
        spec = OneShotSpec(
            step_index=5, sweep_index=2, node_index=1, kernel_id=kernel, offset="max_T"
        )
        add(f"one-shot {kernel}", replace(member, fault=spec))

    add("linear sdc_fixed", RunConfig(problem="linear", integrator="sdc_fixed"), artifacts=True)
    for integrator, dts in LINEAR_LADDERS.items():
        for dt in dts:
            cfg = RunConfig(problem="linear", integrator=integrator, dt=dt, t_end=LINEAR_T_END)
            add(f"linear {integrator} dt {dt!r}", cfg)

    runs.append(
        (
            "convergence linear",
            lambda: _convergence_parts(
                convergence_study(
                    "linear",
                    LINEAR_LADDERS["sdc_resilient"],
                    range(2, 6),
                    range(2, 7),
                    t_end=LINEAR_T_END,
                )
            ),
        )
    )
    return runs


def fingerprint(runs):
    """Hex sha256 over the labels and results of ``runs``, in order."""
    digest = hashlib.sha256()
    for label, thunk in runs:
        digest.update(label.encode())
        for part in thunk():
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


def main():
    runs = run_set()
    t0 = time.perf_counter()
    digest = fingerprint(runs)
    print(f"{len(runs)} runs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(digest)


if __name__ == "__main__":
    main()
