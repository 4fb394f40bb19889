"""Experiment drivers: single runs, Monte Carlo fault campaigns, kernel
sensitivity sweeps, and timestep convergence studies."""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace, asdict
from typing import Optional

import numpy as np

from .errors import NonRealizableStateError, UnrecoverableStepError
from .faults import (
    FaultConfig,
    FaultInjector,
    KernelHook,
    OneShotPerturbation,
    OneShotSpec,
    write_event_log,
)
from .problems import (
    KERNEL_IDS,
    IgnitionSurrogate,
    LinearProblem,
    ignition_metrics,
    write_snapshot_csv,
)
from .quadrature import lobatto_rule
from .resilience import ControllerConfig, integrate_resilient, realizability_guard, residual_ratios
from .rk import classical_rk4, rk_integrate
from .sdc import integrate, step_times

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
]

logger = logging.getLogger(__name__)

_PROBLEMS = ("linear", "ignition")
_INTEGRATORS = ("rk", "sdc_fixed", "sdc_resilient")

# End time for default ignition runs: past the baseline runaway onset but on
# the still-steep part of the temperature history, where corrupted runs
# separate most clearly from the reference (calibrated against the default
# IgnitionSurrogate parameters).
DEFAULT_IGNITION_T_END = 9.0e-3


@dataclass
class RunConfig:
    """Everything needed to reproduce one integration run."""

    problem: str = "ignition"
    integrator: str = "sdc_resilient"
    num_nodes: int = 3
    sweeps: int = 4  # fixed-sweep SDC only
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    dt: Optional[float] = None
    t_start: float = 0.0
    t_end: Optional[float] = None
    fault: FaultConfig = field(default_factory=FaultConfig)
    one_shot: Optional[OneShotSpec] = None
    surrogate: IgnitionSurrogate = field(default_factory=IgnitionSurrogate)
    linear: LinearProblem = field(default_factory=LinearProblem)
    run_id: int = 0
    output_dir: Optional[str] = None
    output_every: int = 1

    def validate(self):
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got {self.problem!r}")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}"
            )
        if self.num_nodes < 2:
            raise ValueError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end is not None and self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        if self.output_every < 1:
            raise ValueError(f"output_every must be >= 1, got {self.output_every}")
        return self

    def resolved_dt(self):
        if self.dt is not None:
            return self.dt
        return 0.1 if self.problem == "linear" else self.surrogate.default_dt()

    def resolved_t_end(self):
        if self.t_end is not None:
            return self.t_end
        return 1.0 if self.problem == "linear" else DEFAULT_IGNITION_T_END


@dataclass
class RunReport:
    """Outcome of one run: trajectory, diagnostics, and scalar metrics."""

    config: RunConfig
    status: str  # clean | capped | aborted
    trajectory: list
    traces: list
    events: list
    metrics: dict
    error: Optional[str] = None
    one_shot_fired: Optional[bool] = None
    error_history: list = field(default_factory=list)


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
    if not ordered:
        nan = math.nan
        return CampaignSummary(
            runs=runs if runs is not None else 0,
            mean=nan,
            minimum=nan,
            maximum=nan,
            span=nan,
            variance=nan,
            crash_count=crash_count,
            restart_count=restart_count,
            scalars=[],
        )
    arr = np.array(ordered)
    variance = float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0
    return CampaignSummary(
        runs=runs if runs is not None else len(ordered),
        mean=float(np.mean(arr)),
        minimum=float(arr[0]),
        maximum=float(arr[-1]),
        span=float(arr[-1] - arr[0]),
        variance=variance,
        crash_count=crash_count,
        restart_count=restart_count,
        scalars=ordered,
    )


def _build_hook(cfg):
    if cfg.one_shot is not None:
        return OneShotPerturbation(cfg.one_shot, run_id=cfg.run_id)
    if cfg.fault.mode == "off":
        # A disarmed injector only counts kernel calls, as the base hook does.
        return KernelHook(run_id=cfg.run_id)
    return FaultInjector(cfg.fault, run_id=cfg.run_id)


def _build_system(cfg, hook):
    if cfg.problem == "linear":
        problem = cfg.linear
    else:
        problem = cfg.surrogate
    return problem, problem.system(hook), problem.initial_state()


def _trace_capped(trace, controller):
    if trace.sweeps_taken < controller.max_sweeps:
        return False
    r1, r_prev = residual_ratios(trace)
    satisfied = r1 == 0.0 or (r1 < controller.r1_tol and r_prev > controller.ratio_tol)
    return not satisfied


def run_single(cfg):
    """Execute one configured run and (optionally) write its artifacts.

    Returns a RunReport; integration failures are reported with status
    ``aborted`` rather than raised, so campaign accounting stays simple.
    """
    cfg.validate()
    hook = _build_hook(cfg)
    problem, sys, phi0 = _build_system(cfg, hook)
    dt = cfg.resolved_dt()
    t_end = cfg.resolved_t_end()
    rule = lobatto_rule(cfg.num_nodes)

    guard = None
    if cfg.problem == "ignition":
        guard = lambda state: realizability_guard(state, sys)  # noqa: E731

    error_history = []
    sweep_observer = None
    if cfg.problem == "linear" and cfg.integrator == "sdc_fixed":

        def sweep_observer(step, sweep, sol):
            t_node = float(sol.times[-1])
            err = abs(float(sol.node_states[-1][0]) - cfg.linear.exact(t_node - cfg.t_start))
            error_history.append((step, sweep, err))

    trajectory, traces = [], []
    status, error, aborted = "clean", None, None
    try:
        if cfg.integrator == "rk":
            trajectory = rk_integrate(
                phi0, cfg.t_start, t_end, dt, classical_rk4(), sys, state_check=guard
            )
        elif cfg.integrator == "sdc_fixed":
            trajectory, traces = integrate(
                phi0,
                cfg.t_start,
                t_end,
                dt,
                rule,
                sys,
                cfg.sweeps,
                state_check=guard,
                sweep_observer=sweep_observer,
            )
        else:
            trajectory, traces = integrate_resilient(
                phi0, cfg.t_start, t_end, dt, rule, sys, cfg.controller
            )
    except (NonRealizableStateError, UnrecoverableStepError) as exc:
        # An aborted run keeps the traces of the steps it completed.
        status, error, aborted, traces = "aborted", str(exc), exc, exc.traces

    if status != "aborted" and cfg.integrator == "sdc_resilient":
        if any(_trace_capped(trace, cfg.controller) for trace in traces):
            status = "capped"

    one_shot_fired = None
    if isinstance(hook, OneShotPerturbation):
        one_shot_fired = hook.warn_if_unfired()

    metrics = _collect_metrics(cfg, trajectory, traces, hook, status, dt)
    if aborted is not None:
        metrics["steps"] = aborted.step_index
        if isinstance(aborted, UnrecoverableStepError):
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
        one_shot_fired=one_shot_fired,
        error_history=error_history,
    )
    if cfg.output_dir is not None:
        _write_run_artifacts(report)
    return report


def _collect_metrics(cfg, trajectory, traces, hook, status, dt):
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
        exact = cfg.linear.exact(trajectory[-1][0] - cfg.t_start)
        metrics.update(
            {"final_y": final_y, "exact": exact, "abs_error": abs(final_y - exact)}
        )
    return metrics


def _write_run_artifacts(report):
    cfg = report.config
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)

    write_event_log(
        os.path.join(out, "events.jsonl"),
        report.events,
        unfired_warning=report.one_shot_fired is False,
    )

    residual_rows = [
        f"{step},{sweep},{norm!r}\r\n"
        for step, trace in enumerate(report.traces)
        for sweep, norm in enumerate(trace.residual_maxnorms, start=1)
    ]
    _write_csv(os.path.join(out, "residuals.csv"), "step,sweep,residual_maxnorm", residual_rows)

    trajectory = report.trajectory
    last = len(trajectory) - 1
    sampled = [
        pair for i, pair in enumerate(trajectory) if i % cfg.output_every == 0 or i == last
    ]
    trajectory_rows = []
    if sampled:
        states = np.array([state for _, state in sampled])
        if cfg.problem == "ignition":
            values = states[:, : cfg.surrogate.n_grid].max(axis=1)
        else:
            values = states[:, 0]
        trajectory_rows = [
            f"{t!r},{value!r}\r\n" for (t, _), value in zip(sampled, values.tolist())
        ]
    header = "time,peak_T" if cfg.problem == "ignition" else "time,y"
    _write_csv(os.path.join(out, "trajectory.csv"), header, trajectory_rows)

    if cfg.problem == "ignition" and trajectory:
        write_snapshot_csv(os.path.join(out, "state_initial.csv"), cfg.surrogate, trajectory[0][1])
        write_snapshot_csv(os.path.join(out, "state_final.csv"), cfg.surrogate, trajectory[-1][1])

    if report.error_history:
        error_rows = [f"{step},{sweep},{err!r}\r\n" for step, sweep, err in report.error_history]
        _write_csv(os.path.join(out, "error_history.csv"), "step,sweep,abs_error", error_rows)

    with open(os.path.join(out, "metrics.json"), "w") as fh:
        json.dump(report.metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """Write a header and rows already formatted with their CRLF line ends,
    in one write: the bytes a ``csv.writer`` (excel dialect) writes for
    unquoted fields."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "".join(rows))


def _campaign_member_config(cfg, run_index, base_seed):
    fault = replace(cfg.fault, seed=base_seed)
    return replace(cfg, run_id=run_index, fault=fault, output_dir=None)


def _report_scalar(report):
    if report.config.problem == "ignition":
        return report.metrics.get("final_peak_T", math.nan)
    return report.metrics.get("final_y", math.nan)


def _campaign_worker(args):
    cfg, run_index, base_seed = args
    report = run_single(_campaign_member_config(cfg, run_index, base_seed))
    return {
        "run_id": run_index,
        "scalar": _report_scalar(report),
        "status": report.status,
        "restarts": report.metrics["restarts"],
        "fault_events": report.metrics["fault_events"],
        "total_sweeps": report.metrics["total_sweeps"],
    }


def run_campaign(cfg, n_runs, base_seed, *, workers=1):
    """Monte Carlo campaign of independent runs with derived seeds.

    Run ``i`` uses the injection stream keyed by (base_seed, i), so the
    campaign is reproducible bit for bit regardless of worker count.
    Statistics cover completed (non-aborted) runs; aborts are tallied in
    ``crash_count``.
    """
    cfg.validate()
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    jobs = [(cfg, i, base_seed) for i in range(n_runs)]
    if workers > 1:
        # Imported here: concurrent.futures pulls in multiprocessing, which a
        # serial campaign never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_campaign_worker, jobs, chunksize=1))
    else:
        rows = [_campaign_worker(job) for job in jobs]
    rows.sort(key=lambda row: row["run_id"])

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
    os.makedirs(out, exist_ok=True)

    with open(os.path.join(out, "runs.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "base_seed", "scalar", "status", "restarts", "fault_events", "total_sweeps"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["run_id"],
                    base_seed,
                    repr(float(row["scalar"])),
                    row["status"],
                    row["restarts"],
                    row["fault_events"],
                    row["total_sweeps"],
                ]
            )

    record = asdict(summary)
    record["base_seed"] = base_seed
    record["integrator"] = cfg.integrator
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    finite = [s for s in summary.scalars if math.isfinite(s)]
    with open(os.path.join(out, "histogram.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        if finite:
            counts, edges = np.histogram(finite, bins=min(20, max(5, len(finite) // 10)))
            for i, count in enumerate(counts):
                writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(count)])


def sensitivity_sweep(cfg, kernels=None, *, step_index=None):
    """Per-kernel one-shot amplification study against a fault-free baseline.

    Each requested kernel gets one run with a single type-A fault (the
    configured scale, default 1e4) applied to that kernel's return array at
    the hottest gridpoint, during the first rhs evaluation of the chosen
    step.  Returns one row per kernel with the final-peak deviation; a
    kernel whose hook never fires is reported with zero deviation and a
    logged warning.
    """
    cfg.validate()
    if cfg.problem != "ignition":
        raise ValueError("sensitivity_sweep is defined for the ignition surrogate")
    kernels = list(kernels) if kernels is not None else list(KERNEL_IDS)
    if step_index is None:
        n_steps = len(step_times(cfg.t_start, cfg.resolved_t_end(), cfg.resolved_dt())) - 1
        step_index = max(n_steps // 3, 0)

    base_cfg = replace(cfg, one_shot=None, fault=replace(cfg.fault, mode="off"), output_dir=None)
    baseline = run_single(base_cfg)
    base_peak = baseline.metrics["final_peak_T"]

    rows = []
    for kernel in kernels:
        spec = OneShotSpec(
            step_index=step_index,
            sweep_index=1,
            node_index=0,
            kernel_id=kernel,
            offset="max_T",
            mode="type_a",
            scale=cfg.fault.scale,
        )
        report = run_single(replace(base_cfg, one_shot=spec))
        if report.status == "aborted":
            rows.append(
                {
                    "kernel": kernel,
                    "final_peak_T": math.nan,
                    "deviation": math.nan,
                    "status": "crashed",
                }
            )
            continue
        deviation = report.metrics["final_peak_T"] - base_peak
        if report.one_shot_fired is False:
            deviation = 0.0
        rows.append(
            {
                "kernel": kernel,
                "final_peak_T": report.metrics["final_peak_T"],
                "deviation": deviation,
                "status": "completed",
            }
        )
    return rows


def convergence_study(problem, dt_list, node_counts, sweep_counts, *, t_end=1.0):
    """Observed-order table over a geometric ladder of timesteps.

    ``problem`` is ``"linear"`` (errors against the exact solution) or an
    IgnitionSurrogate / ``"ignition"`` (errors against a Richardson
    reference computed at a quarter of the finest dt).  Each (node count,
    sweep count) pair contributes one row with the least-squares slope of
    log error versus log dt.
    """
    dts = [float(dt) for dt in dt_list]
    if len(dts) < 3:
        raise ValueError("need at least three timesteps for an order estimate")
    if any(dt <= 0.0 for dt in dts):
        raise ValueError("timesteps must be positive")
    ratios = [dts[i] / dts[i + 1] for i in range(len(dts) - 1)]
    if any(abs(r - ratios[0]) > 1e-6 * ratios[0] for r in ratios):
        raise ValueError("timesteps must form a geometric ladder")

    if problem == "linear":
        problem_obj = LinearProblem()
    elif problem == "ignition":
        problem_obj = IgnitionSurrogate()
    else:
        problem_obj = problem

    rows = []
    for num_nodes in node_counts:
        rule = lobatto_rule(num_nodes)
        for sweeps in sweep_counts:
            reference = None
            if isinstance(problem_obj, IgnitionSurrogate):
                ref_traj, _ = integrate(
                    problem_obj.initial_state(),
                    0.0,
                    t_end,
                    min(dts) / 4.0,
                    rule,
                    problem_obj.system(),
                    sweeps,
                )
                reference = ref_traj[-1][1]
            errors = []
            for dt in dts:
                trajectory, _ = integrate(
                    problem_obj.initial_state(), 0.0, t_end, dt, rule, problem_obj.system(), sweeps
                )
                final = trajectory[-1][1]
                if reference is None:
                    errors.append(abs(float(final[0]) - problem_obj.exact(t_end)))
                else:
                    errors.append(float(np.max(np.abs(final - reference))))
            slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
            rows.append(
                {
                    "num_nodes": num_nodes,
                    "sweeps": sweeps,
                    "dts": dts,
                    "errors": errors,
                    "observed_order": float(slope),
                }
            )
    return rows
