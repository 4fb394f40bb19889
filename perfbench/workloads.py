"""The benchmark's workloads: inputs, one timed pass, and its checks.

A pass runs a fixed set of operations -- one integration run each: a
``run_single`` call (campaign members included) or one entry of a
``convergence_study`` ladder -- and returns an ``Op`` per operation, with
its time.  Checks run after the timed calls and are not part of any timing.
Every workload runs each of the three integrators, so that every end-to-end
metric is measured on every workload:

* ``ignite``: fault-free ignition runs of each integrator over the first
  ``IGNITE_STEPS`` default steps, writing their artifacts like
  ``resilient-sdc ignite``.
* ``campaign-typeb``: a type-B bit-flip campaign (base seed ``--seed``) with
  an RK arm and a resilient-SDC arm, plus a fault-free fixed-sweep SDC
  control run.
* ``converge-linear``: ``convergence_study("linear", ...)`` over 2-5 nodes
  and 2-6 sweeps, plus RK4 and resilient-SDC ladders on the linear problem.

Every operation lasts well under 0.1 s, so that the best of its many
timings in a run is steady (see README.md, "Timing").
"""

import contextlib
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter

# Ignition runs cover the first steps of the default run (of 1165): the
# start-up transient, where every resilient step takes the full eight sweeps.
# Campaign members run longer, so that their faults need not be packed so
# densely that resilient members abort: over 10 steps at window 48, one of
# 2000 resilient members aborts after three restarts.
IGNITE_STEPS = 10
CAMPAIGN_STEPS = 20


@dataclass
class Op:
    """Outcome and cost of one integration run."""

    kind: str  # rk | sdc_fixed | sdc_resilient
    seconds: float
    status: str = "clean"
    sweeps: int = 0  # sweeps recorded in traces, predictor included
    steps_traced: int = 0
    kernel_calls: int = 0
    hooked: bool = True  # kernel calls are counted by a hook
    events: int = 0
    restarts: int = 0
    capped_steps: int = 0
    digest: bytes = b""  # final state bytes, for cross-pass identity
    failures: list = field(default_factory=list)

    @property
    def completed(self):
        return self.status != "aborted"

    def fingerprint(self):
        return (
            self.kind, self.status, self.sweeps, self.steps_traced,
            self.kernel_calls, self.events, self.restarts, self.digest,
        )


@dataclass
class Pass:
    ops: list
    artifact_bytes: int = 0
    failures: list = field(default_factory=list)


def op_from_report(report, seconds):
    """The Op of one ``run_single`` report."""
    cfg = report.config
    traces = report.traces
    return Op(
        kind=cfg.integrator,
        seconds=seconds,
        status=report.status,
        sweeps=sum(t.sweeps_taken for t in traces),
        steps_traced=len(traces),
        kernel_calls=report.metrics["kernel_calls"],
        events=report.metrics["fault_events"],
        restarts=report.metrics["restarts"],
        capped_steps=(
            sum(1 for t in traces if t.sweeps_taken >= cfg.controller.max_sweeps)
            if cfg.integrator == "sdc_resilient"
            else 0
        ),
        digest=np.asarray(report.trajectory[-1][1]).tobytes() if report.trajectory else b"",
    )


def timed(function, *args, **kwargs):
    t0 = clock()
    result = function(*args, **kwargs)
    return result, clock() - t0


@contextlib.contextmanager
def recording(module, name, record):
    """Temporarily wrap ``module.name`` so that every call is passed to
    ``record(seconds, args, result)``; the original is always restored."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result, seconds = timed(original, *args, **kwargs)
        record(seconds, args, result)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


def ignition_t_end(api, steps):
    return steps * api.problems.IgnitionSurrogate().default_dt()


def ignition_reference(surrogate, t_end):
    """Final state from the independent DOP853 reference, in a subprocess."""
    request = json.dumps({"params": dataclasses.asdict(surrogate), "t_end": t_end})
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py")],
        input=request,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return np.array([float.fromhex(v) for v in json.loads(out)])


class Workload:
    name = ""
    problem = "ignition"  # problem built by the set-up measurement
    num_nodes = 3

    def __init__(self, api, seed, scratch):
        self.api = api
        self.seed = seed
        self.scratch = scratch

    def prepare(self):
        """Untimed set-up of references; runs once before the passes."""

    def ops_per_pass(self):
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def _ignition_checks(self, op, report, reference):
        """Final state, invariant and bounds of one ignition run."""
        s = report.config.surrogate
        n = s.n_grid
        if report.status == "aborted" or not report.trajectory:
            return [f"{op.kind} run aborted: {report.error}"]
        states = np.array([state for _, state in report.trajectory])
        return (
            checks.final_state(states[-1], reference, n)
            + checks.linear_invariant(states, n, s.heat_release)
            + checks.within_bounds(states, n, (s.t_min, s.t_max), (s.y_min, s.y_max))
        )


class Ignite(Workload):
    """Fault-free ignition runs of each integrator, with artifacts.

    The seed keys the disarmed injector, which by design changes nothing:
    the inputs are the same for every seed.
    """

    name = "ignite"
    kinds = ("rk", "sdc_fixed", "sdc_resilient")

    def __init__(self, api, seed, scratch, t_end=None):
        super().__init__(api, seed, scratch)
        self.t_end = t_end or ignition_t_end(api, IGNITE_STEPS)

    def prepare(self):
        surrogate = self.api.campaign.RunConfig().surrogate
        self.reference = ignition_reference(surrogate, self.t_end)

    def ops_per_pass(self):
        return len(self.kinds)

    def config(self, kind, index):
        c, f = self.api.campaign, self.api.faults
        return c.RunConfig(
            integrator=kind,
            sweeps=4,
            t_end=self.t_end,
            fault=f.FaultConfig(mode="off", seed=self.seed),
            output_dir=os.path.join(self.scratch, f"{index}-{kind}"),
        )

    def run_pass(self):
        c = self.api.campaign
        ops = []
        for i, kind in enumerate(self.kinds):
            cfg = self.config(kind, i)
            report, seconds = timed(c.run_single, cfg)
            op = op_from_report(report, seconds)
            op.failures += self._ignition_checks(op, report, self.reference)
            if op.events or op.restarts:
                op.failures.append(f"{op.events} fault events, {op.restarts} restarts")
            if not os.path.isfile(os.path.join(cfg.output_dir, "metrics.json")):
                op.failures.append("no metrics.json artifact")
            ops.append(op)
        artifact_bytes = tree_bytes(self.scratch)
        shutil.rmtree(self.scratch, ignore_errors=True)
        return Pass(ops=ops, artifact_bytes=artifact_bytes)


class CampaignTypeB(Workload):
    """Type-B campaign arms as in the campaign acceptance criterion, sized
    to repeat, plus a fault-free fixed-sweep SDC control run.

    Members run ``CAMPAIGN_STEPS`` steps, 1/58 of the default run, so the
    window shrinks by the same factor, 5580 -> 96:
    a member sees about as many faults as a full-length member of the
    criterion (RK 5, as there; resilient SDC about 22, against 16).  The
    arms' final-peak variances are not compared: the resilient arm's is the
    larger on 13 of the base seeds 0-59, because a fault in the last sweeps
    of a step is accepted at the sweep cap (CHANGES.md, FOUND).
    """

    name = "campaign-typeb"
    window = 96

    def __init__(self, api, seed, scratch, rk_members=24, sdc_members=4, t_end=None, window=None):
        super().__init__(api, seed, scratch)
        self.members = {"rk": rk_members, "sdc_resilient": sdc_members}
        self.t_end = t_end or ignition_t_end(api, CAMPAIGN_STEPS)
        if window is not None:
            self.window = window

    def prepare(self):
        surrogate = self.api.campaign.RunConfig().surrogate
        self.reference = ignition_reference(surrogate, self.t_end)

    def ops_per_pass(self):
        return sum(self.members.values()) + 1

    def run_pass(self):
        c, f = self.api.campaign, self.api.faults
        fault = f.FaultConfig(mode="type_b", window=self.window)
        ops, failures = [], []
        for kind, count in self.members.items():
            path = os.path.join(self.scratch, kind)
            cfg = c.RunConfig(integrator=kind, t_end=self.t_end, fault=fault, output_dir=path)
            members = []
            with recording(c, "run_single", lambda *member: members.append(member)):
                c.run_campaign(cfg, count, self.seed)

            arm = []
            for seconds, _, report in members:
                op = op_from_report(report, seconds)
                op.failures += checks.fault_events(
                    [(e.call_index, e.bit_index, e.old_value, e.new_value) for e in report.events],
                    op.kernel_calls,
                    self.window,
                )
                if op.status == "aborted" and kind == "sdc_resilient":
                    op.failures.append(f"resilient member {report.config.run_id} aborted")
                arm.append(op)
            if len(members) != count:
                failures.append(f"{kind}: {len(members)} members ran, expected {count}")

            with open(os.path.join(path, "runs.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(path, "summary.json")) as fh:
                summary = json.load(fh)
            failures += [f"{kind}: {m}" for m in checks.campaign_summary(rows, summary)]
            if [r["status"] for r in rows] != [op.status for op in arm]:
                failures.append(f"{kind}: runs.csv statuses differ from the members")
            ops += arm

        control_cfg = c.RunConfig(integrator="sdc_fixed", sweeps=4, t_end=self.t_end,
                                  fault=f.FaultConfig(mode="off"))
        control, seconds = timed(c.run_single, control_cfg)
        op = op_from_report(control, seconds)
        op.failures += self._ignition_checks(op, control, self.reference)
        ops.append(op)

        artifact_bytes = tree_bytes(self.scratch)
        shutil.rmtree(self.scratch, ignore_errors=True)
        return Pass(ops=ops, artifact_bytes=artifact_bytes, failures=failures)


class ConvergeLinear(Workload):
    """Observed orders on y' = y, y(0) = 1 against exp(t).

    A pass is one round per node count: ``convergence_study`` over that node
    count and every sweep count, then one RK4 run and one resilient-SDC run
    (3 nodes) at the round's rung of their ladders.  The study ladder
    0.4 .. 0.05 at t_end = 2 keeps every error at least ~1500x above
    roundoff (smallest relative error 3.4e-13, at 5 nodes / 6 sweeps); a
    ladder from 0.1 puts the 6-sweep pairs at 4-5 nodes at roundoff.  RK4
    runs on a ladder 8x finer, where its observed order is still 4.  The
    inputs do not depend on the seed.
    """

    name = "converge-linear"
    problem = "linear"
    num_nodes = 2
    nodes = (2, 3, 4, 5)
    sweeps = (2, 3, 4, 5, 6)
    ladders = {  # integrator -> (timesteps, expected order)
        "rk": ((0.05, 0.025, 0.0125, 0.00625), 4),
        "sdc_resilient": ((0.4, 0.2, 0.1, 0.05), 4),
    }
    dts = ladders["sdc_resilient"][0]

    def __init__(self, api, seed, scratch, t_end=2.0, sweeps=None):
        super().__init__(api, seed, scratch)
        self.t_end = t_end
        self.sweeps = tuple(sweeps or self.sweeps)

    def ops_per_pass(self):
        return len(self.nodes) * (len(self.sweeps) * len(self.dts) + len(self.ladders))

    def _study_ops(self, num_nodes, rows, entries):
        """An op per ladder entry of one study, checked by its pair's order."""
        exact = math.exp(self.t_end)
        per_pair = len(self.dts)
        ops = []
        failures = []
        if len(entries) != len(rows) * per_pair:
            failures.append(f"{len(entries)} ladder entries for {len(rows)} rows")
        for i, row in enumerate(rows):
            pair = entries[i * per_pair : (i + 1) * per_pair]
            errors = [abs(float(final[0]) - exact) for _, _, _, final, _ in pair]
            expected = min(row["sweeps"], 2 * row["num_nodes"] - 2)
            problems = [
                f"{row['num_nodes']} nodes, {row['sweeps']} sweeps: {m}"
                for m in checks.convergence_order(self.dts, errors, expected)
            ]
            if (pair[0][1], pair[0][2]) != (num_nodes, row["sweeps"]):
                problems.append(f"ladder entry order differs at row {i}")
            for seconds, _, _, final, traces in pair:
                ops.append(Op(
                    kind="sdc_fixed", seconds=seconds, sweeps=sum(t.sweeps_taken for t in traces),
                    steps_traced=len(traces), hooked=False, digest=final.tobytes(),
                    failures=list(problems),
                ))
        return ops, failures

    def run_pass(self):
        c = self.api.campaign
        ops, failures = [], []
        ladders = {kind: [] for kind in self.ladders}

        for rung, num_nodes in enumerate(self.nodes):
            entries = []

            def record(seconds, args, result):
                trajectory, traces = result
                entries.append((seconds, args[4].num_nodes, int(args[6]), trajectory[-1][1],
                                traces))

            with recording(c, "integrate", record):
                rows = c.convergence_study("linear", self.dts, [num_nodes], self.sweeps,
                                           t_end=self.t_end)
            study_ops, problems = self._study_ops(num_nodes, rows, entries)
            ops += study_ops
            failures += problems
            for kind, (dts, _) in self.ladders.items():
                cfg = c.RunConfig(problem="linear", integrator=kind, dt=dts[rung],
                                  t_end=self.t_end)
                report, seconds = timed(c.run_single, cfg)
                op = op_from_report(report, seconds)
                if report.status == "aborted":
                    op.failures.append(f"{kind} run aborted: {report.error}")
                ladders[kind].append((report, op))
                ops.append(op)

        exact = math.exp(self.t_end)
        for kind, runs in ladders.items():
            dts, order = self.ladders[kind]
            errors = [abs(report.metrics["final_y"] - exact) for report, _ in runs]
            problems = [f"{kind} ladder: {m}" for m in checks.convergence_order(dts, errors, order)]
            for _, op in runs:
                op.failures += problems
        return Pass(ops=ops, failures=failures)


WORKLOADS = {w.name: w for w in (Ignite, CampaignTypeB, ConvergeLinear)}
