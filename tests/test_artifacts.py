"""Per-run and campaign artifact files, byte for byte against a
``csv.writer`` reference.

The package formats its CSV files itself, one f-string per row and one
write per file.  The reference writers below are the ``csv.writer``
form those files were first written with (excel dialect: CRLF line ends,
minimal quoting); every file must keep its bytes.
"""

import csv
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from resilient_sdc import campaign, cli
from resilient_sdc.campaign import RunConfig, RunReport, run_campaign, run_single
from resilient_sdc.faults import FaultConfig, OneShotSpec
from resilient_sdc.problems import IgnitionSurrogate

_DT = IgnitionSurrogate().default_dt()
_LOG_FILES = ["events.jsonl", "metrics.json"]  # JSON files, hashed by tools/fingerprint.py


def reference_snapshot_csv(path, cfg, state):
    n = cfg.n_grid
    x = cfg.grid()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "T", "Y"])
        for i in range(n):
            writer.writerow([repr(float(x[i])), repr(float(state[i])), repr(float(state[n + i]))])


def reference_run_csvs(report, out):
    """The per-run CSV files of ``report``, written into ``out``."""
    cfg = report.config
    os.makedirs(out, exist_ok=True)

    with open(os.path.join(out, "residuals.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "sweep", "residual_maxnorm"])
        for step, trace in enumerate(report.traces):
            for sweep, norm in enumerate(trace.residual_maxnorms, start=1):
                writer.writerow([step, sweep, repr(norm)])

    with open(os.path.join(out, "trajectory.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        if cfg.problem == "ignition":
            writer.writerow(["time", "peak_T"])
            n = cfg.surrogate.n_grid
            for t, state in report.trajectory:
                writer.writerow([repr(float(t)), repr(float(np.max(state[:n])))])
        else:
            writer.writerow(["time", "y"])
            for t, state in report.trajectory:
                writer.writerow([repr(float(t)), repr(float(state[0]))])

    if cfg.problem == "ignition" and report.trajectory:
        reference_snapshot_csv(
            os.path.join(out, "state_initial.csv"), cfg.surrogate, report.trajectory[0][1]
        )
        reference_snapshot_csv(
            os.path.join(out, "state_final.csv"), cfg.surrogate, report.trajectory[-1][1]
        )


def _run_and_compare(tmp_path, cfg):
    """Run ``cfg`` with artifacts and compare its CSV files with the
    reference's; returns the report and the names of the files written."""
    out, ref = tmp_path / "run", tmp_path / "reference"
    report = run_single(replace(cfg, output_dir=str(out)))
    reference_run_csvs(report, str(ref))
    written = sorted(os.listdir(out))
    assert written == sorted(os.listdir(ref) + _LOG_FILES)
    for name in os.listdir(ref):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    return report, written


@pytest.mark.parametrize("integrator", ["rk", "sdc_fixed", "sdc_resilient"])
def test_faulty_ignition_run_artifacts_match_the_reference(tmp_path, integrator):
    cfg = RunConfig(
        integrator=integrator,
        t_end=8 * _DT,
        fault=FaultConfig(mode="type_b", window=24, seed=2),
    )
    report, written = _run_and_compare(tmp_path, cfg)
    assert report.status != "aborted"
    assert report.events
    assert "state_final.csv" in written


def test_trajectory_keeps_every_step_and_matches_the_reference(tmp_path):
    cfg = RunConfig(integrator="rk", t_end=10 * _DT)
    _run_and_compare(tmp_path, cfg)
    lines = (tmp_path / "run" / "trajectory.csv").read_bytes().split(b"\r\n")
    # header, steps 0 to 10, and the empty tail
    assert len(lines) == 13 and lines[-1] == b""


def test_linear_fixed_run_artifacts_match_the_reference(tmp_path):
    cfg = RunConfig(problem="linear", integrator="sdc_fixed", sweeps=4, t_end=1.0)
    report, written = _run_and_compare(tmp_path, cfg)
    assert report.status == "clean"
    # the four files every run writes, and no per-sweep error file
    assert written == ["events.jsonl", "metrics.json", "residuals.csv", "trajectory.csv"]
    assert (tmp_path / "run" / "trajectory.csv").read_bytes().startswith(b"time,y\r\n")


def test_aborted_rk_run_artifacts_match_the_reference(tmp_path):
    cfg = RunConfig(
        integrator="rk",
        t_end=6 * _DT,
        fault=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
                             kernel_id="assembly", offset=0, scale=1e308),
    )
    report, written = _run_and_compare(tmp_path, cfg)
    assert report.status == "aborted"
    assert written == ["events.jsonl", "metrics.json", "residuals.csv", "trajectory.csv"]
    assert (tmp_path / "run" / "trajectory.csv").read_bytes() == b"time,peak_T\r\n"


def test_snapshot_of_special_values_matches_the_reference(tmp_path):
    """Both snapshots of a run, which share one formatted ``x`` column."""
    cfg = IgnitionSurrogate(n_grid=9)
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1e-300, -1e300, 0.1]
    state = np.array(specials + specials[::-1])
    final = state[::-1].copy()
    out = tmp_path / "run"
    campaign._write_run_artifacts(RunReport(
        config=RunConfig(surrogate=cfg, output_dir=str(out)), status="clean",
        trajectory=[(0.0, state), (1.0, final)], traces=[], events=[], metrics={},
    ))
    for name, snapshot in (("state_initial.csv", state), ("state_final.csv", final)):
        reference_snapshot_csv(tmp_path / name, cfg, snapshot)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    written = (out / "state_initial.csv").read_bytes()
    assert b",-0.0,0.1\r\n" in written and b",nan,-1e+300\r\n" in written
    assert b",inf,1e-300\r\n" in written and b",5e-324,5e-324\r\n" in written


def reference_campaign_csvs(base_seed, rows, summary, out):
    """The ``runs.csv`` and ``histogram.csv`` of a campaign, written into ``out``."""
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

    finite = [s for s in summary.scalars if math.isfinite(s)]
    with open(os.path.join(out, "histogram.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        if finite:
            counts, edges = np.histogram(finite, bins=min(20, max(5, len(finite) // 10)))
            for i, count in enumerate(counts):
                writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(count)])


def _run_campaign_and_compare(tmp_path, monkeypatch, cfg, n_runs, base_seed):
    """Run a campaign with artifacts and compare its CSV files with the
    reference's, written from the same rows and summary; returns the rows."""
    seen = []
    write = campaign._write_campaign_artifacts

    def capture(cfg, base_seed, rows, summary):
        seen.append((rows, summary))
        write(cfg, base_seed, rows, summary)

    monkeypatch.setattr(campaign, "_write_campaign_artifacts", capture)
    out, ref = tmp_path / "campaign", tmp_path / "reference"
    run_campaign(replace(cfg, output_dir=str(out)), n_runs, base_seed)
    (rows, summary), = seen
    reference_campaign_csvs(base_seed, rows, summary, str(ref))
    for name in ("runs.csv", "histogram.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    return rows


def test_campaign_with_an_aborted_member_matches_the_reference(tmp_path, monkeypatch):
    cfg = RunConfig(
        integrator="rk",
        t_end=20 * _DT,
        fault=FaultConfig(mode="type_b", window=96),
    )
    rows = _run_campaign_and_compare(tmp_path, monkeypatch, cfg, 8, 101)
    statuses = [row["status"] for row in rows]
    assert "aborted" in statuses and statuses.count("aborted") < len(statuses)
    assert b",nan,aborted," in (tmp_path / "campaign" / "runs.csv").read_bytes()
    histogram = (tmp_path / "campaign" / "histogram.csv").read_bytes().split(b"\r\n")
    assert len(histogram) == 7  # header, 5 bins and the empty tail


def test_all_aborted_campaign_matches_the_reference(tmp_path, monkeypatch):
    cfg = RunConfig(
        integrator="rk",
        t_end=6 * _DT,
        fault=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
                             kernel_id="assembly", offset=0, scale=1e308),
    )
    rows = _run_campaign_and_compare(tmp_path, monkeypatch, cfg, 2, 5)
    assert [row["status"] for row in rows] == ["aborted", "aborted"]
    histogram = (tmp_path / "campaign" / "histogram.csv").read_bytes()
    assert histogram == b"bin_left,bin_right,count\r\n"


def reference_sensitivity_csv(rows, out):
    """The ``sensitivity.csv`` of ``resilient-sdc sense``, written into ``out``."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "sensitivity.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "final_peak_T", "deviation", "status"])
        for row in rows:
            writer.writerow(
                [row["kernel"], repr(row["final_peak_T"]), repr(row["deviation"]), row["status"]]
            )


def test_sensitivity_table_matches_the_reference(tmp_path, monkeypatch):
    seen = []
    sweep = cli.sensitivity_sweep

    def capture(*args, **kwargs):
        seen.append(sweep(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "sensitivity_sweep", capture)
    out, ref = tmp_path / "sense", tmp_path / "reference"
    rc = cli.main([
        "--output-dir", str(out),
        "sense", "--integrator", "sdc_fixed", "--t-end", repr(8 * _DT), "--step", "2",
        "--kernels", "gradient_T,diffusive_flux_T,assembly",
    ])
    assert rc == cli.EXIT_OK
    (rows,) = seen
    reference_sensitivity_csv(rows, str(ref))
    written = (out / "sensitivity.csv").read_bytes()
    assert written == (ref / "sensitivity.csv").read_bytes()
    # at the default scale 1e4 one of these kernels crashes the run
    assert b"\r\ndiffusive_flux_T,nan,nan,crashed\r\n" in written
    assert written.count(b",completed\r\n") == 2
