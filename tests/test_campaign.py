"""Run orchestration: single runs, campaigns, artifacts, and studies."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from resilient_sdc.campaign import (
    RunConfig,
    convergence_study,
    run_campaign,
    run_single,
    sensitivity_sweep,
    summarize,
)
from resilient_sdc.faults import FaultConfig, OneShotSpec
from resilient_sdc.problems import KERNEL_IDS

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

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
        RunConfig(problem="navier_stokes").validate()
    with pytest.raises(ValueError):
        RunConfig(integrator="leapfrog").validate()
    with pytest.raises(ValueError):
        RunConfig(num_nodes=1).validate()
    with pytest.raises(ValueError):
        RunConfig(dt=-0.1).validate()
    with pytest.raises(ValueError):
        RunConfig(t_end=-1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(output_every=0).validate()


def test_campaign_rejects_empty_run_count():
    with pytest.raises(ValueError):
        run_campaign(_ignition_cfg(), 0, base_seed=1)


# ---------------------------------------------------------------------------
# single runs


def test_linear_fixed_run_reports_error_metrics():
    cfg = RunConfig(problem="linear", integrator="sdc_fixed", sweeps=4, t_end=1.0)
    report = run_single(cfg)
    assert report.status == "clean"
    assert report.metrics["abs_error"] < 2e-6
    assert report.error_history  # per-sweep error trail for the decay figure
    errors_last_step = [e for step, _, e in report.error_history if step == 9]
    assert errors_last_step == sorted(errors_last_step, reverse=True)


def test_same_config_reruns_bitwise_identically():
    cfg = _ignition_cfg(fault=FaultConfig(mode="type_b", window=400, seed=3))
    first, second = run_single(cfg), run_single(cfg)
    assert first.metrics == second.metrics
    assert [e.to_record() for e in first.events] == [e.to_record() for e in second.events]


def test_rk_crashes_on_a_non_finite_one_shot():
    cfg = _ignition_cfg(
        integrator="rk",
        one_shot=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
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
        one_shot=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
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
        one_shot=OneShotSpec(step_index=1, sweep_index=1, node_index=0,
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
        fault=FaultConfig(mode="off", scale=1.5),
        t_end=12 * _DT,
    )
    rows = sensitivity_sweep(cfg, step_index=5)
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


def test_sensitivity_reports_unreachable_kernel_as_zero(caplog):
    cfg = _ignition_cfg(t_end=6 * _DT)
    with caplog.at_level("WARNING"):
        rows = sensitivity_sweep(cfg, kernels=["gradient_T"], step_index=50)
    assert rows == [
        {"kernel": "gradient_T", "final_peak_T": rows[0]["final_peak_T"],
         "deviation": 0.0, "status": "completed"}
    ]
    assert any("never fired" in rec.message for rec in caplog.records)


def test_sensitivity_default_step_counts_from_a_late_start(caplog):
    """The default fault step is a third of the steps the run actually
    takes, counted from t_start, so it falls inside a late-starting run."""
    cfg = _ignition_cfg(
        integrator="sdc_fixed",
        fault=FaultConfig(mode="off", scale=1.5),
        t_start=45 * _DT,
        t_end=60 * _DT,
    )
    with caplog.at_level("WARNING"):
        rows = sensitivity_sweep(cfg, kernels=["reaction_rate"])
    assert not any("never fired" in rec.message for rec in caplog.records)
    assert rows[0]["status"] == "completed"
    assert rows[0]["deviation"] != 0.0


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


def test_convergence_study_input_validation():
    with pytest.raises(ValueError):
        convergence_study("linear", [0.2, 0.1], [3], [4])
    with pytest.raises(ValueError):
        convergence_study("linear", [0.2, 0.1, 0.07], [3], [4])
    with pytest.raises(ValueError):
        convergence_study("linear", [0.2, -0.1, 0.05], [3], [4])
