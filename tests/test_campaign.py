"""Run orchestration: single runs, campaigns, artifacts, and studies."""

import csv
import json
import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

import resilient_sdc.campaign as campaign_module
from resilient_sdc.campaign import (
    RunConfig,
    convergence_study,
    run_campaign,
    run_single,
    sensitivity_sweep,
    summarize,
)
from resilient_sdc.faults import FaultConfig, OneShotSpec
from resilient_sdc.problems import KERNEL_IDS, LINEAR_KERNEL_ID, IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.sdc import integrate as sdc_integrate

_DT = RunConfig(problem="ignition").surrogate.default_dt()


def _ignition_cfg(**overrides):
    base = dict(
        problem="ignition",
        integrator="sdc_resilient",
        fault=FaultConfig(mode="off"),
        t_end=40 * _DT,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# summary statistics


def test_summary_of_hand_checked_scalars():
    summary = summarize([1.0, 2.0, 3.0])
    assert summary.runs == 3
    assert summary.mean == 2.0
    assert summary.span == 2.0
    assert summary.variance == 1.0
    assert summary.minimum == 1.0 and summary.maximum == 3.0


def test_summary_of_a_single_run():
    summary = summarize([5.5])
    assert summary.runs == 1
    assert summary.variance == 0.0
    assert summary.span == 0.0
    assert summary.mean == summary.minimum == summary.maximum == 5.5


def test_summary_is_order_independent():
    a, b = summarize([3.0, 1.0, 2.0]), summarize([1.0, 2.0, 3.0])
    assert (a.mean, a.variance, a.span, a.scalars) == (b.mean, b.variance, b.span, b.scalars)


def test_summary_of_no_completed_runs():
    summary = summarize([], runs=4, crash_count=4)
    assert summary.runs == 4
    assert math.isnan(summary.mean)
    assert summary.crash_count == 4


# ---------------------------------------------------------------------------
# configuration validation


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(problem="navier_stokes")
    with pytest.raises(ValueError):
        RunConfig(integrator="leapfrog")
    with pytest.raises(ValueError):
        RunConfig(num_nodes=1)
    RunConfig(num_nodes=8)
    with pytest.raises(ValueError, match="exact only up to 8 nodes, got 9"):
        RunConfig(num_nodes=9)
    with pytest.raises(ValueError):
        RunConfig(dt=-0.1)
    with pytest.raises(ValueError, match="^t_end must not precede t0 0.0, got -1.0$"):
        RunConfig(t_end=-1.0)
    with pytest.raises(ValueError, match="^run_id must be >= 0, got -3$"):
        RunConfig(run_id=-3)
    for name in ("dt", "t_end"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                RunConfig(**{name: value})
    # a one-shot fault names a kernel of the run's problem
    for kernel in KERNEL_IDS:
        RunConfig(fault=OneShotSpec(kernel_id=kernel))
    RunConfig(problem="linear", fault=OneShotSpec(kernel_id=LINEAR_KERNEL_ID))
    for problem, kernel in (("ignition", LINEAR_KERNEL_ID), ("ignition", "no_such_kernel"),
                            ("linear", "assembly")):
        with pytest.raises(ValueError, match=f"one-shot kernel must be one of .* got '{kernel}'"):
            RunConfig(problem=problem, fault=OneShotSpec(kernel_id=kernel))
    # max_T reads the ignition state's temperatures, which the linear problem lacks
    RunConfig(fault=OneShotSpec(offset="max_T"))
    with pytest.raises(ValueError, match="max_T names the hottest ignition grid point"):
        RunConfig(problem="linear",
                  fault=OneShotSpec(kernel_id=LINEAR_KERNEL_ID, offset="max_T"))


def test_a_fault_of_neither_config_type_is_a_config_error(monkeypatch):
    """A run's one fault source is a windowed ``FaultConfig`` or a
    ``OneShotSpec``; anything else fails when the config is built."""
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    message = "^fault must be a FaultConfig or a OneShotSpec, got {}$"
    with pytest.raises(ValueError, match=message.format("None")):
        run_single(RunConfig(fault=None, t_end=1e-6))
    with pytest.raises(ValueError, match=message.format("'type_b'")):
        run_campaign(RunConfig(fault="type_b", t_end=1e-6), 2, 0)
    assert runs == []


def test_one_shot_positions_the_integrator_never_evaluates_are_config_errors():
    """RK4 makes one pass over four stages; SDC sweeps up to its fixed count
    or the controller's cap, over ``num_nodes`` nodes, and only the
    predictor (sweep 1) evaluates node 0."""
    reachable = [
        ("rk", dict(sweep_index=1, node_index=3)),
        ("sdc_fixed", dict(sweep_index=4, node_index=2)),
        ("sdc_resilient", dict(sweep_index=8, node_index=2)),
        ("sdc_resilient", dict(sweep_index=1, node_index=0)),
    ]
    for integrator, position in reachable:
        RunConfig(integrator=integrator, fault=OneShotSpec(**position))
    unreachable = [
        ("rk", dict(node_index=4), "node_index must be < 4 for rk"),
        ("rk", dict(sweep_index=2, node_index=1), "sweep_index must be <= 1 for rk"),
        ("sdc_fixed", dict(node_index=3), "node_index must be < 3 for sdc_fixed"),
        ("sdc_fixed", dict(sweep_index=5, node_index=1), "sweep_index must be <= 4 for sdc_fixed"),
        ("sdc_resilient", dict(sweep_index=9, node_index=1),
         "sweep_index must be <= 8 for sdc_resilient"),
        ("sdc_resilient", dict(sweep_index=2, node_index=0), "node 0 is evaluated only in sweep 1"),
        ("sdc_fixed", dict(sweep_index=3, node_index=0), "node 0 is evaluated only in sweep 1"),
    ]
    for integrator, position, message in unreachable:
        with pytest.raises(ValueError, match=f"^one-shot {message}"):
            RunConfig(integrator=integrator, fault=OneShotSpec(**position))
    # the bounds follow the run's own node and sweep counts
    RunConfig(integrator="sdc_fixed", num_nodes=5, sweeps=6,
              fault=OneShotSpec(sweep_index=6, node_index=4))
    # and its step count: the last step of a 21-step run is step 20
    for integrator in ("rk", "sdc_fixed", "sdc_resilient"):
        cfg = RunConfig(integrator=integrator, t_end=1.6e-4)
        assert cfg.step_count() == 21
        replace(cfg, fault=OneShotSpec(step_index=20))
        with pytest.raises(ValueError, match="^one-shot step_index must be < 21 for a 21-step run, "
                                             "got 21$"):
            replace(cfg, fault=OneShotSpec(step_index=21))
    with pytest.raises(ValueError, match="^one-shot step_index must be < 0 for a 0-step run"):
        RunConfig(t_end=0.0, fault=OneShotSpec())


def _config_dataclasses(obj):
    """``obj`` and every dataclass instance its fields hold, depth first."""
    found = [obj]
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            found += _config_dataclasses(value)
    return found


def test_every_config_dataclass_is_frozen():
    """A config is checked when it is built, so none may change after."""
    configs = [config for fault in (FaultConfig(), OneShotSpec())
               for config in _config_dataclasses(RunConfig(fault=fault))]
    assert {type(c).__name__ for c in configs} == {
        "RunConfig", "ControllerConfig", "FaultConfig", "OneShotSpec", "IgnitionSurrogate"}
    for config in configs:
        for f in fields(config):
            with pytest.raises(FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))


def test_replace_rechecks_the_derived_config():
    cfg = RunConfig(integrator="sdc_fixed", t_end=1.6e-4, fault=OneShotSpec(step_index=20))
    for changes, message in (
        (dict(dt=-0.1), "dt must be positive, got -0.1"),
        (dict(fault=OneShotSpec(step_index=21)),
         "one-shot step_index must be < 21 for a 21-step run, got 21"),
        (dict(fault=None), "fault must be a FaultConfig or a OneShotSpec, got None"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(cfg, **changes)


def test_step_count_is_the_number_of_steps_a_run_takes():
    """The count a ``RunConfig`` bounds one-shot steps with, the truncated final
    step included, is the number of steps ``run_single`` reports."""
    for cfg in (RunConfig(problem="linear", integrator="rk"),
                RunConfig(problem="linear", integrator="sdc_fixed", dt=0.3),
                RunConfig(problem="linear", integrator="sdc_resilient", t_end=0.0),
                _ignition_cfg(integrator="rk", t_end=5.5 * _DT)):
        assert run_single(cfg).metrics["steps"] == cfg.step_count()


def test_sensitivity_sweep_checks_its_kernels_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    with pytest.raises(ValueError, match="no_such_kernel"):
        sensitivity_sweep(_ignition_cfg(), kernels=["assembly", "no_such_kernel"], step_index=1)
    with pytest.raises(ValueError, match="step_index"):
        sensitivity_sweep(_ignition_cfg(), kernels=["assembly"], step_index=-1)
    with pytest.raises(ValueError, match="^need at least one kernel$"):
        sensitivity_sweep(_ignition_cfg(), kernels=[], step_index=1)
    assert runs == []


def test_sensitivity_sweep_replaces_the_fault_source_with_its_own(monkeypatch):
    """The baseline runs with ``FaultConfig()`` and each kernel with a
    one-shot of the sweep's ``scale``, whatever fault ``cfg`` holds."""
    configs = []

    def record(cfg):
        configs.append(cfg)
        return run_single(cfg)

    monkeypatch.setattr(campaign_module, "run_single", record)
    cfg = _ignition_cfg(t_end=3 * _DT, fault=FaultConfig(mode="type_b", scale=3.0))
    sensitivity_sweep(cfg, kernels=["assembly"], step_index=1, scale=2.0)
    assert [c.fault for c in configs] == [
        FaultConfig(), OneShotSpec(step_index=1, kernel_id="assembly", offset="max_T", scale=2.0)]
    assert configs[1] == replace(cfg, fault=configs[1].fault)


def test_campaign_rejects_empty_run_count():
    with pytest.raises(ValueError):
        run_campaign(_ignition_cfg(), 0, base_seed=1)


def test_campaign_rejects_fewer_than_one_worker(monkeypatch):
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", lambda cfg: runs.append(cfg))
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
            run_campaign(_ignition_cfg(), 2, base_seed=1, workers=workers)
    assert runs == []


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_rejects_a_negative_base_seed_before_any_run(monkeypatch, workers):
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -2$"):
        run_campaign(_ignition_cfg(fault=FaultConfig(mode="type_b")), 3, base_seed=-2,
                     workers=workers)
    assert runs == []


def test_campaign_rejects_a_negative_base_seed_whatever_the_fault_source(tmp_path, monkeypatch):
    """A one-shot draws nothing from the base seed, but a negative one is
    still an error, before any run and before any artifact is written."""
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    out = tmp_path / "c"
    cfg = RunConfig(integrator="sdc_fixed", t_end=2e-4, output_dir=str(out),
                    fault=OneShotSpec(step_index=1, kernel_id="reaction_rate"))
    with pytest.raises(ValueError, match="^seed must be >= 0, got -2$"):
        run_campaign(cfg, 2, -2)
    assert runs == []
    assert not out.exists()


def test_an_empty_output_dir_is_a_config_error_when_built(monkeypatch):
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    with pytest.raises(ValueError, match="^output_dir must not be empty$"):
        run_single(RunConfig(output_dir=""))
    with pytest.raises(ValueError, match="^output_dir must not be empty$"):
        replace(_ignition_cfg(), output_dir="")
    assert runs == []


def test_an_offset_past_the_kernel_array_is_a_config_error_before_any_run(monkeypatch):
    """The problem gives each kernel's array length: ``assembly`` holds both
    ignition fields, every other ignition kernel one, the linear
    ``derivative`` one element.  An integer offset past it fails when the
    config is built."""
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    message = "one-shot offset 500 is past the end of kernel reaction_rate's 120-element array"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_campaign(RunConfig(integrator="sdc_fixed", t_end=2e-4, fault=OneShotSpec(
            step_index=1, kernel_id="reaction_rate", offset=500)), 3, 0)
    assert runs == []
    for problem, kernel, size in (("ignition", "assembly", 240), ("ignition", "gradient_T", 120),
                                  ("linear", LINEAR_KERNEL_ID, 1)):
        RunConfig(problem=problem, fault=OneShotSpec(kernel_id=kernel, offset=size - 1))
        message = f"one-shot offset {size} is past the end of kernel {kernel}'s {size}-element array"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(problem=problem, fault=OneShotSpec(kernel_id=kernel, offset=size))


# ---------------------------------------------------------------------------
# single runs


def test_linear_fixed_run_reports_error_metrics():
    cfg = RunConfig(problem="linear", integrator="sdc_fixed", sweeps=4, t_end=1.0)
    report = run_single(cfg)
    assert report.status == "clean"
    assert report.metrics["abs_error"] < 2e-6


def test_one_shot_fired_is_read_off_the_events():
    """None without a one-shot; with one, whether it logged its event."""
    cfg = RunConfig(integrator="sdc_fixed", t_end=2e-4)
    assert run_single(cfg).one_shot_fired is None
    fired = run_single(replace(cfg, fault=OneShotSpec(step_index=1, kernel_id="reaction_rate")))
    assert fired.one_shot_fired is True and len(fired.events) == 1
    # step 400 converges before the controller's sweep 8
    unfired = run_single(RunConfig(t_end=3.1e-3, fault=OneShotSpec(
        step_index=400, sweep_index=8, node_index=1, kernel_id="reaction_rate")))
    assert unfired.one_shot_fired is False and unfired.events == []


def test_same_config_reruns_bitwise_identically():
    cfg = _ignition_cfg(fault=FaultConfig(mode="type_b", window=400, seed=3))
    first, second = run_single(cfg), run_single(cfg)
    assert first.metrics == second.metrics
    assert [e.to_record() for e in first.events] == [e.to_record() for e in second.events]


def test_rk_crashes_on_a_non_finite_one_shot():
    cfg = _ignition_cfg(
        integrator="rk",
        fault=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
                             kernel_id="assembly", offset=0, scale=1e308),
    )
    report = run_single(cfg)
    assert report.status == "aborted"
    assert report.error is not None
    assert math.isnan(report.metrics["final_peak_T"])
    # the report names the step that aborted and counts the steps before it
    assert "(step 2, sweep 1, node 0)" in report.error
    assert report.metrics["steps"] == 2


def test_resilient_recovers_from_the_same_one_shot():
    cfg = _ignition_cfg(
        fault=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
                             kernel_id="assembly", offset=0, scale=1e308),
    )
    report = run_single(cfg)
    clean = run_single(_ignition_cfg())
    assert report.status != "aborted"
    assert report.metrics["restarts"] >= 1
    assert report.metrics["final_peak_T"] == clean.metrics["final_peak_T"]


def test_aborted_resilient_run_keeps_its_traces_and_restarts(tmp_path):
    """Member 0 of a type-B campaign (base seed 707, window 96, 20 steps)
    completes 8 steps in 64 sweeps, then fails step 8 after 3 restarts."""
    fault = FaultConfig(mode="type_b", window=96, seed=707)
    cfg = _ignition_cfg(t_end=20 * _DT, fault=fault, output_dir=str(tmp_path / "run"))
    report = run_single(cfg)
    assert report.status == "aborted"
    assert "at step 8 after 3 restarts" in report.error
    assert len(report.traces) == 8
    assert report.metrics["steps"] == 8
    assert report.metrics["restarts"] == 3
    assert report.metrics["total_sweeps"] == 64
    with open(tmp_path / "run" / "residuals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 64 and rows[-1][:2] == ["7", "8"]

    run_campaign(replace(cfg, output_dir=str(tmp_path / "campaign")), 1, base_seed=707)
    with open(tmp_path / "campaign" / "runs.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["restarts"], row["total_sweeps"]) == ("aborted", "3", "64")


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_statistics_and_determinism():
    cfg = _ignition_cfg(fault=FaultConfig(mode="type_b", window=400, seed=0))
    first = run_campaign(cfg, 4, base_seed=11)
    second = run_campaign(cfg, 4, base_seed=11)
    assert first.scalars == second.scalars
    assert first.crash_count == second.crash_count
    assert first.restart_count == second.restart_count
    assert first.runs == 4
    assert len(first.scalars) + first.crash_count == 4
    assert first.minimum <= first.mean <= first.maximum
    assert first.span == first.maximum - first.minimum


def test_campaign_members_use_independent_streams():
    cfg = _ignition_cfg(fault=FaultConfig(mode="type_b", window=400, seed=0))
    summary = run_campaign(cfg, 3, base_seed=5)
    assert len(set(summary.scalars)) > 1 or summary.crash_count > 0


def test_campaign_counts_universal_crashes():
    cfg = _ignition_cfg(
        integrator="rk",
        fault=OneShotSpec(step_index=1, sweep_index=1, node_index=0,
                             kernel_id="assembly", offset=0, scale=1e308),
    )
    summary = run_campaign(cfg, 3, base_seed=2)
    assert summary.crash_count == 3
    assert summary.scalars == []
    assert math.isnan(summary.mean)


def test_worker_pool_matches_serial_results():
    cfg = _ignition_cfg(t_end=20 * _DT, fault=FaultConfig(mode="type_b", window=400, seed=0))
    serial = run_campaign(cfg, 3, base_seed=7, workers=1)
    pooled = run_campaign(cfg, 3, base_seed=7, workers=2)
    assert serial.scalars == pooled.scalars
    assert serial.crash_count == pooled.crash_count


# ---------------------------------------------------------------------------
# artifacts


def test_single_run_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _ignition_cfg(
        output_dir=str(out),
        fault=FaultConfig(mode="type_b", window=400, seed=9),
    )
    report = run_single(cfg)

    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    assert len(events) == len(report.events)

    with open(out / "residuals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "sweep", "residual_maxnorm"]
    assert len(rows) - 1 == sum(t.sweeps_taken for t in report.traces)
    # exact round-trip of the recorded norms
    assert float(rows[1][2]) == report.traces[0].residual_maxnorms[0]

    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "peak_T"]
    assert len(rows) - 1 == len(report.trajectory)

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["final_peak_T"] == report.metrics["final_peak_T"]

    for name in ("state_initial.csv", "state_final.csv"):
        with open(out / name, newline="") as fh:
            assert next(csv.reader(fh)) == ["x", "T", "Y"]


def test_campaign_artifacts_recompute_to_the_summary(tmp_path):
    out = tmp_path / "campaign"
    cfg = _ignition_cfg(
        output_dir=str(out),
        fault=FaultConfig(mode="type_b", window=400, seed=0),
    )
    summary = run_campaign(cfg, 5, base_seed=3)

    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    scalars = [float(r["scalar"]) for r in rows if r["status"] != "aborted"]
    assert abs(float(np.mean(scalars)) - summary.mean) < 1e-12
    assert abs(float(np.var(scalars, ddof=1)) - summary.variance) < 1e-12
    assert sum(1 for r in rows if r["status"] == "aborted") == summary.crash_count

    record = json.loads((out / "summary.json").read_text())
    assert record["runs"] == 5
    assert record["mean"] == summary.mean
    assert record["base_seed"] == 3

    with open(out / "histogram.csv", newline="") as fh:
        hist_rows = list(csv.DictReader(fh))
    assert sum(int(r["count"]) for r in hist_rows) == len(scalars)


# ---------------------------------------------------------------------------
# kernel sensitivity


def test_sensitivity_covers_each_requested_kernel_once():
    cfg = _ignition_cfg(
        integrator="sdc_fixed",
        t_end=12 * _DT,
    )
    rows = sensitivity_sweep(cfg, step_index=5, scale=1.5)
    assert [r["kernel"] for r in rows] == list(KERNEL_IDS)
    assert all(r["status"] == "completed" for r in rows)
    by_kernel = {r["kernel"]: r["deviation"] for r in rows}
    assert by_kernel["reaction_rate"] != 0.0
    assert abs(by_kernel["reaction_rate"]) > abs(by_kernel["gradient_T"])


def test_sensitivity_deviation_vanishes_when_restarts_absorb_the_fault():
    # At the default 1e4 scale the reaction fault trips the realizability
    # guard; the resilient integrator restarts the step and ends bitwise
    # equal to the baseline, so the reported deviation is exactly zero.
    cfg = _ignition_cfg(t_end=12 * _DT)
    rows = sensitivity_sweep(cfg, kernels=["reaction_rate"], step_index=5)
    assert rows[0]["status"] == "completed"
    assert rows[0]["deviation"] == 0.0


def test_sensitivity_rejects_a_step_the_run_never_reaches(monkeypatch):
    runs = []
    monkeypatch.setattr(campaign_module, "run_single", runs.append)
    cfg = _ignition_cfg(t_end=6 * _DT)
    with pytest.raises(ValueError, match="step_index must be < 6 for a 6-step run, got 50"):
        sensitivity_sweep(cfg, kernels=["gradient_T"], step_index=50)
    with pytest.raises(ValueError, match="step_index must be < 6 for a 6-step run, got 6"):
        sensitivity_sweep(cfg, kernels=["gradient_T"], step_index=6)
    assert runs == []


def test_sensitivity_requires_the_surrogate():
    with pytest.raises(ValueError):
        sensitivity_sweep(RunConfig(problem="linear"))


# ---------------------------------------------------------------------------
# convergence studies


def test_convergence_study_orders():
    rows = convergence_study("linear", [0.2, 0.1, 0.05], [2], [2, 1])
    by_sweeps = {r["sweeps"]: r["observed_order"] for r in rows}
    assert 1.7 <= by_sweeps[2] <= 2.3
    assert 0.7 <= by_sweeps[1] <= 1.3


def test_convergence_study_at_roundoff_names_the_run_whose_error_is_zero():
    """An error of exactly 0.0 has no logarithm: the study says which run
    reached it instead of fitting an order to it."""
    message = "4 nodes, 8 sweeps, dt 0.005: the error is exactly 0.0, so no order can be fit"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        convergence_study("linear", [0.02, 0.01, 0.005], [4], [8], t_end=0.04)


def test_convergence_study_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        convergence_study("linear", [0.2, 0.1], [3], [4])
    with pytest.raises(ValueError):
        convergence_study("linear", [0.2, 0.1, 0.07], [3], [4])
    with pytest.raises(ValueError):
        convergence_study("linear", [0.2, -0.1, 0.05], [3], [4])
    # every node and sweep count is checked before the first integration
    calls = []
    monkeypatch.setattr(campaign_module, "integrate", lambda *args: calls.append(args))
    for node_counts in ([3, 9], [3, 1]):
        with pytest.raises(ValueError):
            convergence_study("linear", [0.2, 0.1, 0.05], node_counts, [4])
    with pytest.raises(ValueError, match="sweep count must be >= 1, got 0"):
        convergence_study("linear", [0.02, 0.01, 0.005], [3, 4], [30, 0])
    for node_counts, sweep_counts, name in (([], [4], "node"), ([3], [], "sweep")):
        with pytest.raises(ValueError, match=f"^need at least one {name} count$"):
            convergence_study("linear", [0.2, 0.1, 0.05], node_counts, sweep_counts)
    # so are t_end (finite, and at least the largest timestep) and every timestep
    for t_end in (0.0, 0.01, 0.19, -1.0):
        with pytest.raises(ValueError, match="t_end must be at least the largest timestep 0.2"):
            convergence_study("linear", [0.2, 0.1, 0.05], [3], [4], t_end=t_end)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be finite"):
            convergence_study("linear", [0.2, 0.1, 0.05], [3], [4], t_end=t_end)
    with pytest.raises(ValueError, match="dt must be finite"):
        convergence_study("linear", [math.inf, math.inf, math.inf], [3], [4], t_end=math.inf)
    assert calls == []
    # a ladder run that aborts raises with its error, here at the first entry
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^3 nodes, 4 sweeps, dt 1\.0: non-finite "):
        convergence_study("linear", [1.0, 0.5, 0.25], [3], [4], t_end=800.0)


@pytest.mark.parametrize(
    "integrator, error",
    [
        ("rk", "non-finite state (step 712, sweep 1, node 1)"),
        ("sdc_fixed", "non-finite state (step 712, sweep 1, node 1)"),
        ("sdc_resilient",
         "step failed realizability after retries: non-finite state at step 710 after 3 restarts"),
    ],
)
def test_overflowing_linear_run_aborts_without_a_floating_point_warning(integrator, error):
    """y' = y overflows past t = 709; the run reports it through its status
    and error alone, and the caller's numpy error settings stay as they were."""
    settings = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_single(RunConfig(problem="linear", integrator=integrator, t_end=800.0,
                                      dt=1.0))
    assert (report.status, report.error) == ("aborted", error)
    assert np.geterr() == settings


def test_convergence_study_runs_each_ladder_entry_through_run_single(monkeypatch):
    """Rows equal, bit for bit, a ladder of direct ``integrate`` calls, and
    the study makes one ``run_single`` call per nodes x sweeps x dts entry."""
    dts, node_counts, sweep_counts, t_end = [0.4, 0.2, 0.1], [2, 3], [1, 3], 2.0
    linear = LinearProblem()
    expected = []
    for num_nodes in node_counts:
        for sweeps in sweep_counts:
            errors = []
            for dt in dts:
                trajectory, _ = sdc_integrate(linear.initial_state(), 0.0, t_end, dt,
                                              lobatto_rule(num_nodes), linear.system(), sweeps)
                errors.append(abs(float(trajectory[-1][1][0]) - linear.exact(t_end)))
            expected.append((num_nodes, sweeps, errors))

    runs = []

    def counting_run_single(cfg):
        runs.append((cfg.num_nodes, cfg.sweeps, cfg.dt))
        return run_single(cfg)

    monkeypatch.setattr(campaign_module, "run_single", counting_run_single)
    rows = convergence_study("linear", dts, node_counts, sweep_counts, t_end=t_end)
    assert [(r["num_nodes"], r["sweeps"], r["errors"]) for r in rows] == expected
    assert all(r["dts"] == dts for r in rows)
    assert runs == [(n, s, dt) for n in node_counts for s in sweep_counts for dt in dts]
    # each count iterable is read once, so one-shot iterables give the same rows
    generated = convergence_study("linear", dts, iter(node_counts),
                                  (s for s in sweep_counts), t_end=t_end)
    assert len(generated) == 4 and generated == rows


def test_convergence_study_supports_only_the_linear_problem(monkeypatch):
    calls = []
    monkeypatch.setattr(campaign_module, "integrate", lambda *args: calls.append(args))
    for problem in ("ignition", IgnitionSurrogate(), "Linear"):
        with pytest.raises(ValueError, match="only the linear problem"):
            convergence_study(problem, [0.2, 0.1, 0.05], [3], [4])
    assert calls == []
