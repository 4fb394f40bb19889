"""Experiment drivers: single runs, Monte Carlo fault campaigns, kernel
sensitivity sweeps, and timestep convergence studies.

The type of a run's one fault source, ``RunConfig.fault``, picks its
kernel hook.  This module writes every artifact file the package makes: CSV
in the excel dialect with ``repr`` floats (``_write_csv``), JSON indented by
two spaces (``_write_json``) and JSON lines (``_write_jsonl``, the event log
of ``FaultEvent.to_record()`` records).  Other modules do no file output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace, asdict
from typing import Optional, Union

import numpy as np

from .errors import IntegrationError
from .faults import FaultConfig, FaultInjector, KernelHook, OneShotPerturbation, OneShotSpec
from .problems import KERNEL_IDS, IgnitionSurrogate, LinearProblem, ignition_metrics
from .quadrature import lobatto_rule
from .resilience import ControllerConfig, integrate_resilient
from .rk import rk_integrate
from .sdc import check_sweep_count, integrate, step_times

__all__ = [
    "RunConfig",
    "RunReport",
    "CampaignSummary",
    "run_single",
    "run_campaign",
    "summarize",
    "sensitivity_sweep",
    "convergence_study",
    "DEFAULT_IGNITION_T_END",
    "PROBLEMS",
    "INTEGRATORS",
]

PROBLEMS = ("linear", "ignition")
INTEGRATORS = ("rk", "sdc_fixed", "sdc_resilient")

# End time for default ignition runs: past the baseline runaway onset but on
# the still-steep part of the temperature history, where corrupted runs
# separate most clearly from the reference (calibrated against the default
# IgnitionSurrogate parameters).
DEFAULT_IGNITION_T_END = 9.0e-3


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one integration run, which starts at t = 0.

    ``fault``, the run's one fault source, is a windowed ``FaultConfig``
    (mode ``off`` by default) or a ``OneShotSpec``.  A config checks itself
    when built, as the configs it holds do, so one that exists is valid and
    ``dataclasses.replace`` re-checks every derived config.  The time grid
    is checked by ``step_count``, that is by ``sdc.step_times``; a one-shot
    fault must name a kernel of the problem, an offset inside that kernel's
    array and a (step, sweep, node) the integrator evaluates.
    """

    problem: str = "ignition"
    integrator: str = "sdc_resilient"
    num_nodes: int = 3
    sweeps: int = 4  # fixed-sweep SDC only
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    dt: Optional[float] = None
    t_end: Optional[float] = None
    fault: Union[FaultConfig, OneShotSpec] = field(default_factory=FaultConfig)
    surrogate: IgnitionSurrogate = field(default_factory=IgnitionSurrogate)
    run_id: int = 0
    output_dir: Optional[str] = None  # None writes nothing; "" names no directory

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        lobatto_rule(self.num_nodes)  # raises for a node count without an exact rule
        check_sweep_count(self.sweeps)
        if self.run_id < 0:
            raise ValueError(f"run_id must be >= 0, got {self.run_id}")
        if self.output_dir == "":
            raise ValueError("output_dir must not be empty")
        steps = self.step_count()  # raises for a dt or t_end step_times refuses
        if not isinstance(self.fault, (FaultConfig, OneShotSpec)):
            raise ValueError(f"fault must be a FaultConfig or a OneShotSpec, got {self.fault!r}")
        if isinstance(self.fault, OneShotSpec):
            offset, kernel = self.fault.offset, self.fault.kernel_id
            if offset == "max_T" and self.problem == "linear":
                raise ValueError("one-shot offset max_T names the hottest ignition grid point; "
                                 "the linear problem has none")
            model = self.model()
            if kernel not in model.kernel_ids:
                raise ValueError(
                    f"one-shot kernel must be one of {model.kernel_ids} for the {self.problem} "
                    f"problem, got {kernel!r}"
                )
            # the last sweep and the node count the integrator evaluates
            last_sweep, nodes = {
                "rk": (1, 4),  # one pass over the four RK4 stages
                "sdc_fixed": (self.sweeps, self.num_nodes),
                "sdc_resilient": (self.controller.max_sweeps, self.num_nodes),
            }[self.integrator]
            step, sweep, node = self.fault.step_index, self.fault.sweep_index, self.fault.node_index
            if step >= steps:
                raise ValueError(f"one-shot step_index must be < {steps} for a {steps}-step run, "
                                 f"got {step}")
            where = f"for {self.integrator}, got sweep_index {sweep}, node_index {node}"
            if sweep > last_sweep:
                raise ValueError(f"one-shot sweep_index must be <= {last_sweep} {where}")
            if node >= nodes:
                raise ValueError(f"one-shot node_index must be < {nodes} {where}")
            if node == 0 and sweep >= 2:
                raise ValueError(f"one-shot node 0 is evaluated only in sweep 1 {where}")
            size = model.kernel_size(kernel)
            if offset != "max_T" and offset >= size:
                raise ValueError(f"one-shot offset {offset} is past the end of kernel {kernel}'s "
                                 f"{size}-element array")

    def model(self):
        """The problem the run integrates: its rhs, kernels and initial state."""
        return LinearProblem() if self.problem == "linear" else self.surrogate

    def resolved_dt(self):
        if self.dt is not None:
            return self.dt
        return 0.1 if self.problem == "linear" else self.surrogate.default_dt()

    def resolved_t_end(self):
        if self.t_end is not None:
            return self.t_end
        return 1.0 if self.problem == "linear" else DEFAULT_IGNITION_T_END

    def step_count(self):
        """Number of steps the run takes, the final truncated one included."""
        return len(step_times(0.0, self.resolved_t_end(), self.resolved_dt())) - 1


@dataclass
class RunReport:
    """Outcome of one run: trajectory, diagnostics, scalar metrics, and
    ``one_shot_fired``, read off ``events`` (None for a run without a one-shot)."""

    config: RunConfig
    status: str  # clean | capped | aborted
    trajectory: list
    traces: list
    events: list
    metrics: dict
    error: Optional[str] = None

    @property
    def one_shot_fired(self):
        return bool(self.events) if isinstance(self.config.fault, OneShotSpec) else None


@dataclass
class CampaignSummary:
    """Statistics of the per-run scalar over completed runs."""

    runs: int
    mean: float
    minimum: float
    maximum: float
    span: float
    variance: float
    crash_count: int = 0
    restart_count: int = 0
    scalars: list = field(default_factory=list)


def summarize(values, *, runs=None, crash_count=0, restart_count=0):
    """Campaign statistics from per-run scalars (order independent).

    The unbiased sample variance is used; a single completed run has
    variance zero by convention.
    """
    ordered = sorted(float(v) for v in values)
    mean = minimum = maximum = variance = math.nan  # no completed run
    if ordered:
        mean, minimum, maximum = float(np.mean(ordered)), ordered[0], ordered[-1]
        variance = float(np.var(ordered, ddof=1)) if len(ordered) > 1 else 0.0
    return CampaignSummary(
        runs=runs if runs is not None else len(ordered),
        mean=mean,
        minimum=minimum,
        maximum=maximum,
        span=maximum - minimum,
        variance=variance,
        crash_count=crash_count,
        restart_count=restart_count,
        scalars=ordered,
    )


def _build_hook(cfg):
    if isinstance(cfg.fault, OneShotSpec):
        return OneShotPerturbation(cfg.fault, run_id=cfg.run_id)
    if cfg.fault.mode == "off":
        # A disarmed injector only counts kernel calls, as the base hook does.
        return KernelHook(run_id=cfg.run_id)
    return FaultInjector(cfg.fault, run_id=cfg.run_id)


def run_single(cfg):
    """Execute one configured run and, when ``cfg.output_dir`` is set, write
    its artifacts there: ``events.jsonl``, ``residuals.csv``,
    ``trajectory.csv``, ``metrics.json``, and the ignition problem's
    ``state_initial.csv`` and ``state_final.csv``.

    The one run driver: no other code in the package calls an integrator,
    so campaigns, sensitivity sweeps and convergence studies all run here.
    ``cfg`` checked itself when it was built, so nothing is checked again.
    Returns a RunReport; integration failures are reported with status
    ``aborted`` rather than raised, so campaign accounting stays simple.
    An output directory that cannot be made fails before the run.
    """
    _make_output_dir(cfg)
    hook = _build_hook(cfg)
    problem = cfg.model()
    sys, phi0 = problem.system(hook), problem.initial_state()
    dt = cfg.resolved_dt()
    t_end = cfg.resolved_t_end()
    rule = lobatto_rule(cfg.num_nodes)

    trajectory, traces = [], []
    status, error, aborted = "clean", None, None
    try:
        if cfg.integrator == "rk":
            trajectory = rk_integrate(phi0, 0.0, t_end, dt, sys)
        elif cfg.integrator == "sdc_fixed":
            trajectory, traces = integrate(phi0, 0.0, t_end, dt, rule, sys, cfg.sweeps)
        else:
            trajectory, traces = integrate_resilient(
                phi0, 0.0, t_end, dt, rule, sys, cfg.controller
            )
    except IntegrationError as exc:
        # An aborted run keeps the traces of the steps it completed.
        status, error, aborted, traces = "aborted", str(exc), exc, exc.traces

    if status != "aborted" and any(trace.capped for trace in traces):
        status = "capped"

    metrics = _collect_metrics(cfg, problem, trajectory, traces, hook, status, dt)
    if aborted is not None:
        metrics["steps"] = aborted.step_index
        # The restarts of the step that failed are in no trace.
        metrics["restarts"] += aborted.restarts
    report = RunReport(
        config=cfg,
        status=status,
        trajectory=trajectory,
        traces=traces,
        events=hook.events,
        metrics=metrics,
        error=error,
    )
    if cfg.output_dir is not None:
        _write_run_artifacts(report)
    return report


def _collect_metrics(cfg, problem, trajectory, traces, hook, status, dt):
    metrics = {
        "status": status,
        "steps": max(len(trajectory) - 1, 0),
        "dt": dt,
        "total_sweeps": int(sum(t.sweeps_taken for t in traces)),
        "restarts": int(sum(t.restarts for t in traces)),
        "fault_events": len(hook.events),
        "kernel_calls": hook.call_count,
    }
    if not trajectory:
        if cfg.problem == "ignition":
            metrics.update({"final_peak_T": math.nan, "ignition_delay": math.nan})
        else:
            metrics.update({"final_y": math.nan, "abs_error": math.nan})
        return metrics
    if cfg.problem == "ignition":
        metrics.update(ignition_metrics(trajectory))
    else:
        final_y = float(trajectory[-1][1][0])
        exact = problem.exact(trajectory[-1][0])
        metrics.update(
            {"final_y": final_y, "exact": exact, "abs_error": abs(final_y - exact)}
        )
    return metrics


def _make_output_dir(cfg):
    """Make ``cfg.output_dir``, if set; one that cannot be made is a ValueError."""
    if cfg.output_dir is None:
        return
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output_dir {cfg.output_dir!r} is unusable: {exc.strerror}") from None


def _write_run_artifacts(report):
    cfg = report.config
    out = cfg.output_dir
    records = [event.to_record() for event in report.events]
    if report.one_shot_fired is False:
        records.append({"warning": "one-shot schedule never reached"})
    _write_jsonl(os.path.join(out, "events.jsonl"), records)

    residual_rows = [
        f"{step},{sweep},{norm!r}\r\n"
        for step, trace in enumerate(report.traces)
        for sweep, norm in enumerate(trace.residual_maxnorms, start=1)
    ]
    _write_csv(os.path.join(out, "residuals.csv"), "step,sweep,residual_maxnorm", residual_rows)

    trajectory = report.trajectory
    trajectory_rows = []
    if trajectory:
        states = np.array([state for _, state in trajectory])
        if cfg.problem == "ignition":
            values = states[:, : cfg.surrogate.n_grid].max(axis=1)
        else:
            values = states[:, 0]
        trajectory_rows = [
            f"{t!r},{value!r}\r\n" for (t, _), value in zip(trajectory, values.tolist())
        ]
    header = "time,peak_T" if cfg.problem == "ignition" else "time,y"
    _write_csv(os.path.join(out, "trajectory.csv"), header, trajectory_rows)

    if cfg.problem == "ignition" and trajectory:
        n = cfg.surrogate.n_grid
        xs = [f"{x!r}," for x in cfg.surrogate.grid().tolist()]
        for name, (_, state) in (("state_initial.csv", trajectory[0]),
                                 ("state_final.csv", trajectory[-1])):
            snapshot_rows = [
                f"{x}{temperature!r},{fuel!r}\r\n"
                for x, temperature, fuel in zip(xs, state[:n].tolist(), state[n:].tolist())
            ]
            _write_csv(os.path.join(out, name), "x,T,Y", snapshot_rows)

    _write_json(os.path.join(out, "metrics.json"), report.metrics)


def _write_csv(path, header, rows):
    """Write a header and rows already formatted with their CRLF line ends,
    in one write: the bytes a ``csv.writer`` (excel dialect) writes for
    unquoted fields, as a float's ``repr`` holds no comma, quote or line
    break."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "".join(rows))


def _write_json(path, record):
    """Write ``record`` as JSON with sorted keys, indented by two spaces."""
    with open(path, "w") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path, records):
    """Write one JSON line per record, keys sorted.  Event records carry
    their floats as exact hex bit patterns too, so the log round-trips."""
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(record, sort_keys=True) + "\n" for record in records))


def _report_scalar(report):
    if report.config.problem == "ignition":
        return report.metrics["final_peak_T"]
    return report.metrics["final_y"]


def _campaign_worker(cfg):
    """Run one member's config; returns its ``runs.csv`` row as a dict."""
    report = run_single(cfg)
    return {
        "run_id": cfg.run_id,
        "scalar": _report_scalar(report),
        "status": report.status,
        "restarts": report.metrics["restarts"],
        "fault_events": report.metrics["fault_events"],
        "total_sweeps": report.metrics["total_sweeps"],
    }


def run_campaign(cfg, n_runs, base_seed, *, workers=1):
    """Monte Carlo campaign of independent runs with derived seeds.

    Run ``i`` is ``cfg`` with run id ``i``.  A windowed fault takes seed
    ``base_seed`` too, so run ``i`` draws the injection stream keyed by
    (base_seed, i), bit for bit the same for any worker count; a
    ``OneShotSpec`` repeats in every member.  A negative ``base_seed``,
    whatever the fault source, or an unusable output directory fails before
    any run.  Statistics cover completed (non-aborted) runs; aborts are
    tallied in ``crash_count``.  ``workers`` processes run the members; 1
    runs them in this process.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    _make_output_dir(cfg)
    fault = replace(cfg.fault, seed=base_seed) if isinstance(cfg.fault, FaultConfig) else cfg.fault
    members = [replace(cfg, run_id=i, fault=fault, output_dir=None) for i in range(n_runs)]
    if workers > 1:
        # Imported here: concurrent.futures pulls in multiprocessing, which a
        # serial campaign never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_campaign_worker, members, chunksize=1))
    else:
        rows = [_campaign_worker(member) for member in members]

    completed = [row for row in rows if row["status"] != "aborted"]
    summary = summarize(
        [row["scalar"] for row in completed],
        runs=n_runs,
        crash_count=sum(1 for row in rows if row["status"] == "aborted"),
        restart_count=sum(row["restarts"] for row in completed),
    )
    if cfg.output_dir is not None:
        _write_campaign_artifacts(cfg, base_seed, rows, summary)
    return summary


def _write_campaign_artifacts(cfg, base_seed, rows, summary):
    out = cfg.output_dir
    run_rows = [
        f"{row['run_id']},{base_seed},{float(row['scalar'])!r},{row['status']},"
        f"{row['restarts']},{row['fault_events']},{row['total_sweeps']}\r\n"
        for row in rows
    ]
    _write_csv(
        os.path.join(out, "runs.csv"),
        "run_id,base_seed,scalar,status,restarts,fault_events,total_sweeps",
        run_rows,
    )

    record = asdict(summary)
    record["base_seed"] = base_seed
    record["integrator"] = cfg.integrator
    _write_json(os.path.join(out, "summary.json"), record)

    finite = [s for s in summary.scalars if math.isfinite(s)]
    histogram_rows = []
    if finite:
        counts, edges = np.histogram(finite, bins=min(20, max(5, len(finite) // 10)))
        edges = edges.tolist()
        histogram_rows = [
            f"{left!r},{right!r},{count}\r\n"
            for left, right, count in zip(edges, edges[1:], counts.tolist())
        ]
    _write_csv(os.path.join(out, "histogram.csv"), "bin_left,bin_right,count", histogram_rows)


def sensitivity_sweep(cfg, kernels=None, *, step_index=None, scale=OneShotSpec.scale):
    """Per-kernel one-shot amplification study against a fault-free baseline.

    The baseline runs ``cfg`` with ``FaultConfig()``; each requested kernel
    gets one run with a single type-A ``OneShotSpec`` of multiplier ``scale``
    applied to that kernel's return array at the hottest gridpoint, during
    the first rhs evaluation of the chosen step (default: a third of the
    way through the run).  Returns one row per kernel with the final-peak
    deviation, and writes the rows to ``sensitivity.csv`` in
    ``cfg.output_dir`` when it is set; the runs themselves write nothing.
    Every kernel's run config is built, and so checked, before the baseline
    runs, so an empty kernel list, an unknown kernel id, a step the run
    never reaches or an unusable output directory fails at once.
    """
    if cfg.problem != "ignition":
        raise ValueError("sensitivity_sweep is defined for the ignition surrogate")
    kernels = list(kernels) if kernels is not None else list(KERNEL_IDS)
    if not kernels:
        raise ValueError("need at least one kernel")
    if step_index is None:
        step_index = cfg.step_count() // 3

    base_cfg = replace(cfg, fault=FaultConfig(), output_dir=None)
    spec = OneShotSpec(step_index=step_index, offset="max_T", scale=scale)
    kernel_cfgs = [replace(base_cfg, fault=replace(spec, kernel_id=kernel)) for kernel in kernels]
    _make_output_dir(cfg)
    baseline = run_single(base_cfg)
    base_peak = baseline.metrics["final_peak_T"]

    rows = []
    for kernel, kernel_cfg in zip(kernels, kernel_cfgs):
        report = run_single(kernel_cfg)
        crashed = report.status == "aborted"
        peak = math.nan if crashed else report.metrics["final_peak_T"]
        rows.append({"kernel": kernel, "final_peak_T": peak, "deviation": peak - base_peak,
                     "status": "crashed" if crashed else "completed"})
    if cfg.output_dir is not None:
        lines = [
            f"{row['kernel']},{row['final_peak_T']!r},{row['deviation']!r},{row['status']}\r\n"
            for row in rows
        ]
        _write_csv(os.path.join(cfg.output_dir, "sensitivity.csv"),
                   "kernel,final_peak_T,deviation,status", lines)
    return rows


def convergence_study(problem, dt_list, node_counts, sweep_counts, *, t_end=1.0):
    """Observed-order table over a geometric ladder of timesteps.

    ``problem`` must be ``"linear"``.  Each (node count, sweep count) pair
    contributes one row: per timestep, the ``abs_error`` of one fixed-sweep
    ``run_single`` run against the exact solution of y' = lambda y, and the
    least-squares slope of log error versus log dt.  Each count iterable is
    read once.  Every run's config is built, and so checked, before the
    first run, so an empty or bad node or sweep count, a bad timestep or a
    bad ``t_end`` (not finite, or shorter than the largest timestep) runs
    nothing.  A run that aborts or whose error is 0.0 raises ValueError.
    """
    if problem != "linear":
        raise ValueError(f"convergence_study supports only the linear problem, got {problem!r}")
    dts = [float(dt) for dt in dt_list]
    if len(dts) < 3:
        raise ValueError("need at least three timesteps for an order estimate")
    if any(dt <= 0.0 for dt in dts):
        raise ValueError("timesteps must be positive")
    ratios = [dts[i] / dts[i + 1] for i in range(len(dts) - 1)]
    if any(abs(r - ratios[0]) > 1e-6 * ratios[0] for r in ratios):
        raise ValueError("timesteps must form a geometric ladder")
    if t_end < max(dts):
        raise ValueError(f"t_end must be at least the largest timestep {max(dts)!r}, got {t_end!r}")

    node_counts, sweep_counts = list(node_counts), list(sweep_counts)
    for name, counts in (("node", node_counts), ("sweep", sweep_counts)):
        if not counts:
            raise ValueError(f"need at least one {name} count")
    ladders = [
        [
            RunConfig(problem="linear", integrator="sdc_fixed", num_nodes=num_nodes,
                      sweeps=sweeps, dt=dt, t_end=t_end)
            for dt in dts
        ]
        for num_nodes in node_counts
        for sweeps in sweep_counts
    ]
    rows = []
    for ladder in ladders:
        errors = []
        for cfg in ladder:
            report = run_single(cfg)
            where = f"{cfg.num_nodes} nodes, {cfg.sweeps} sweeps, dt {cfg.dt!r}"
            if report.status == "aborted":
                raise ValueError(f"{where}: {report.error}")
            if report.metrics["abs_error"] == 0.0:
                raise ValueError(f"{where}: the error is exactly 0.0, so no order can be fit")
            errors.append(report.metrics["abs_error"])
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        rows.append(
            {
                "num_nodes": ladder[0].num_nodes,
                "sweeps": ladder[0].sweeps,
                "dts": dts,
                "errors": errors,
                "observed_order": float(slope),
            }
        )
    return rows
