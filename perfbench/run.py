"""Benchmark of resilient_sdc: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload ignite --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole passes of the workload for about
``--seconds`` seconds (at least one pass) and prints each metric by name with
its unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end metrics, taken from each timed call's best time over the
passes.  With ``--trace 1`` traced and untraced passes alternate, and the
metrics are the per-layer metrics taken from the spans of the traced passes;
the spans are written to ``perfbench/_out/spans-<workload>.npz``.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)

# Set-up: from process start until the first step is ready.  The child
# prints CLOCK_MONOTONIC, which is system-wide on Linux, so it is
# comparable with the parent's reading taken just before the spawn.
SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
import resilient_sdc
from resilient_sdc.faults import FaultConfig, FaultInjector
from resilient_sdc.problems import IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
rule = lobatto_rule({nodes})
problem = {problem}()
system = problem.system(FaultInjector(FaultConfig()))
phi0 = problem.initial_state()
dt = {dt}
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rk_run_s": "s",
    "sdc_run_s": "s",
    "sdc_fixed_run_s": "s",
    "kernel_calls_per_s": "1/s",
    "sweeps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, statistic); statistics: "us" inclusive and
# "self_us" self microseconds per call, "s" inclusive seconds per call,
# "calls" calls per pass.
SPAN_METRICS = {
    "quadrature.lobatto_rule.us": ("quadrature.lobatto_rule", "us"),
    "problems.derivative_operator.us": ("problems.derivative_operator", "us"),
    "problems.derivative_operator.calls": ("problems.derivative_operator", "calls"),
    "problems.surrogate_rhs.self_us": ("problems.surrogate_rhs", "self_us"),
    "problems.surrogate_rhs.calls": ("problems.surrogate_rhs", "calls"),
    "problems.realizability.us": ("problems.realizability", "us"),
    "sdc.predictor.self_us": ("sdc.predictor", "self_us"),
    "sdc.sdc_sweep.self_us": ("sdc.sdc_sweep", "self_us"),
    "sdc.sdc_sweep.calls": ("sdc.sdc_sweep", "calls"),
    "sdc.residual_max_norm.us": ("sdc.residual_max_norm", "us"),
    "sdc.integrate_step.self_us": ("sdc.integrate_step", "self_us"),
    "sdc.integrate_step.calls": ("sdc.integrate_step", "calls"),
    "resilience.realizability_guard.us": ("resilience.realizability_guard", "us"),
    "resilience.realizability_guard.calls": ("resilience.realizability_guard", "calls"),
    "resilience.checkpointed_step.self_us": ("resilience.checkpointed_step", "self_us"),
    "rk.rk_step.self_us": ("rk.rk_step", "self_us"),
    "rk.rk_step.calls": ("rk.rk_step", "calls"),
    "faults.filter.us": ("faults.filter", "us"),
    "faults.filter.calls": ("faults.filter", "calls"),
    "campaign.run_single.s": ("campaign.run_single", "s"),
}
UNITS = {"us": "us", "self_us": "us", "s": "s", "calls": "count"}
COUNT_METRICS = {
    "resilience.restarts": "count",
    "resilience.discarded_sweeps": "count",
    "resilience.capped_steps": "count",
    "faults.events": "count",
    "campaign.aborted_runs": "count",
    "campaign.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def load_api():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "resilient_sdc", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}/resilient_sdc; run from a source checkout")
    sys.path.insert(0, SRC)
    names = ("campaign", "faults", "problems", "quadrature", "resilience", "rk", "sdc")
    api = types.SimpleNamespace(
        **{n: importlib.import_module(f"resilient_sdc.{n}") for n in names}
    )
    origin = os.path.realpath(api.campaign.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: resilient_sdc imported from {origin}, not from {SRC}")
    return api


def setup_probe(workload):
    """A function that sets up once in a fresh process and returns the
    seconds from its start until the first step is ready."""
    if workload.problem == "linear":
        problem, dt = "LinearProblem", repr(workload.dts[0])
    else:
        problem, dt = "IgnitionSurrogate", "problem.default_dt()"
    code = SETUP_CODE.format(src=SRC, nodes=workload.num_nodes, problem=problem, dt=dt)

    def probe():
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        ).stdout
        return float(out.strip().splitlines()[-1]) - t0

    return probe


def run_one(workload, tracer):
    if tracer is None:
        return workload.run_pass()
    with tracer:
        return workload.run_pass()


def run_passes(workload, seconds, tracer, setup):
    """Whole rounds (one untraced pass, plus one traced when tracing) for
    about ``seconds`` seconds; returns [(traced, Pass or None)] and the
    median of SETUP_REPEATS set-up times, measured at even intervals of the
    run so that they sample it as the passes do."""
    modes = (tracer, None) if tracer is not None else (None,)
    passes, setups = [], []
    setup()  # the first spawn warms caches and bytecode
    start = time.perf_counter()
    while True:
        # alternate which mode goes first, so warm-up costs neither mode
        order = modes if len(passes) % (2 * len(modes)) == 0 else modes[::-1]
        for mode in order:
            try:
                result = run_one(workload, mode)
            except Exception:
                traceback.print_exc()
                result = None
            passes.append((mode is not None, result))
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
            elapsed = time.perf_counter() - start
        rounds = len(passes) // len(modes)
        if elapsed + elapsed / rounds > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return passes, statistics.median(setups)


def best_times(passes):
    """Each operation's best time over the passes.

    An operation lasts well under 0.1 s, short enough to fall within one
    quiet or busy spell of a shared host, so its smallest time over a run is
    the steady measure of its cost; a median tracks how busy the host was."""
    return [min(times) for times in zip(*([op.seconds for op in p.ops] for p in passes))]


def end_to_end(passes, setup_s):
    plain = [p for traced, p in passes if p is not None and not traced]
    best = best_times(plain)
    ops = plain[0].ops

    def rate(count, selected):
        """Sum of count(op) over the selected ops per best second."""
        picked = [j for j, op in enumerate(ops) if selected(op)]
        return sum(count(ops[j]) for j in picked) / sum(best[j] for j in picked)

    def seconds_per_run(kind):
        """Of the runs that did not abort: an aborted campaign member stops
        early, so its time is no run's cost."""
        return 1.0 / rate(lambda op: 1, lambda op: op.kind == kind and op.completed)

    values = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "rk_run_s": seconds_per_run("rk"),
        "sdc_run_s": seconds_per_run("sdc_resilient"),
        "sdc_fixed_run_s": seconds_per_run("sdc_fixed"),
        "kernel_calls_per_s": rate(lambda op: op.kernel_calls, lambda op: op.hooked),
        "sweeps_per_s": rate(lambda op: op.sweeps, lambda op: op.kind != "rk"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: values[name] for name in END_TO_END}


def pass_time_summary(passes):
    """The median untraced pass time, and the highest percentile with ten
    passes beyond it when there are at least forty: how much the host's
    spells stretch a pass, beside the best-time metrics."""
    times = sorted(sum(op.seconds for op in p.ops) for t, p in passes if p is not None and not t)
    line = f"pass time: median {statistics.median(times):.6g} s over {len(times)} passes"
    if len(times) >= 40:
        line += f", p{100 * (len(times) - 10) // len(times)} {times[-11]:.6g} s"
    return line


def per_layer(passes, tracer):
    traced = [p for t, p in passes if t and p is not None]
    plain = [p for t, p in passes if not t and p is not None]
    n = len(traced)
    totals = tracer.totals()
    values = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        calls, inclusive, own = totals[span]
        if stat == "calls":
            values[metric] = calls // n if calls % n == 0 else calls / n
        elif calls == 0:
            values[metric] = 0.0
        else:
            values[metric] = {
                "us": inclusive * 1e6, "self_us": own * 1e6, "s": inclusive
            }[stat] / calls
    ops = traced[0].ops
    recorded_sweeps = sum(op.sweeps - op.steps_traced for op in ops)
    values.update({
        "resilience.restarts": sum(op.restarts for op in ops),
        "resilience.discarded_sweeps": values["sdc.sdc_sweep.calls"] - recorded_sweeps,
        "resilience.capped_steps": sum(op.capped_steps for op in ops),
        "faults.events": sum(op.events for op in ops),
        "campaign.aborted_runs": sum(1 for op in ops if op.status == "aborted"),
        "campaign.artifact_bytes": traced[0].artifact_bytes,
        "trace.overhead_s": sum(best_times(traced)) - sum(best_times(plain)),
    })
    return values


def consistency_failures(passes):
    """Every pass must reproduce the first: same operations, statuses,
    counts and bitwise-identical final states, traced or not."""
    done = [(t, p) for t, p in passes if p is not None]
    if not done:
        return []
    first = [op.fingerprint() for op in done[0][1].ops]
    return [
        f"pass {i} ({'traced' if t else 'untraced'}) differs from pass 0"
        for i, (t, p) in enumerate(done)
        if [op.fingerprint() for op in p.ops] != first
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_api()
    # Corrupted campaign members overflow by design; numpy's warnings about
    # it are not results.
    warnings.simplefilter("ignore", RuntimeWarning)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"scratch-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](api, args.seed, scratch)
    try:
        workload.prepare()
        tracer = spans.Tracer() if args.trace else None
        passes, setup_s = run_passes(workload, args.seconds, tracer, setup_probe(workload))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    done = [p for _, p in passes if p is not None]
    if not done:
        sys.exit("error: no pass of the workload completed")
    drift = consistency_failures(passes)
    failed = sum(
        workload.ops_per_pass() if p is None
        else sum(1 for op in p.ops if op.failures or p.failures or drift)
        for _, p in passes
    )
    for p in done:
        for message in p.failures + [m for op in p.ops for m in op.failures]:
            print(f"check failed: {message}", file=sys.stderr)
    for message in drift:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        values = per_layer(passes, tracer)
        units = {m: UNITS[stat] for m, (_, stat) in SPAN_METRICS.items()}
        units.update(COUNT_METRICS)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.npz"))
    else:
        values = end_to_end(passes, setup_s)
        units = END_TO_END
        print(f"{args.workload} {pass_time_summary(passes)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and len(done) == len(passes),
        "attempted": workload.ops_per_pass() * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
