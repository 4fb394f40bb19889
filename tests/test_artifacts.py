"""Per-run artifact files, byte for byte against a ``csv.writer`` reference.

The package formats its per-run CSV files itself, one f-string per row and
one write per file.  The reference writers below are the ``csv.writer``
form those files were first written with (excel dialect: CRLF line ends,
minimal quoting); every file must keep its bytes.
"""

import csv
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from resilient_sdc.campaign import RunConfig, run_single
from resilient_sdc.faults import FaultConfig, OneShotSpec
from resilient_sdc.problems import IgnitionSurrogate, write_snapshot_csv

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

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
            for i, (t, state) in enumerate(report.trajectory):
                if i % cfg.output_every == 0 or i == len(report.trajectory) - 1:
                    writer.writerow([repr(float(t)), repr(float(np.max(state[:n])))])
        else:
            writer.writerow(["time", "y"])
            for i, (t, state) in enumerate(report.trajectory):
                if i % cfg.output_every == 0 or i == len(report.trajectory) - 1:
                    writer.writerow([repr(float(t)), repr(float(state[0]))])

    if cfg.problem == "ignition" and report.trajectory:
        reference_snapshot_csv(
            os.path.join(out, "state_initial.csv"), cfg.surrogate, report.trajectory[0][1]
        )
        reference_snapshot_csv(
            os.path.join(out, "state_final.csv"), cfg.surrogate, report.trajectory[-1][1]
        )

    if report.error_history:
        with open(os.path.join(out, "error_history.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "sweep", "abs_error"])
            for step, sweep, err in report.error_history:
                writer.writerow([step, sweep, repr(err)])


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


def test_sampled_trajectory_matches_the_reference(tmp_path):
    cfg = RunConfig(integrator="rk", t_end=10 * _DT, output_every=3)
    _run_and_compare(tmp_path, cfg)
    lines = (tmp_path / "run" / "trajectory.csv").read_bytes().split(b"\r\n")
    # header, steps 0, 3, 6, 9, the last step (10), and the empty tail
    assert len(lines) == 7 and lines[-1] == b""


def test_linear_fixed_run_artifacts_match_the_reference(tmp_path):
    cfg = RunConfig(problem="linear", integrator="sdc_fixed", sweeps=4, t_end=1.0)
    report, written = _run_and_compare(tmp_path, cfg)
    assert report.error_history
    assert "error_history.csv" in written
    assert (tmp_path / "run" / "trajectory.csv").read_bytes().startswith(b"time,y\r\n")


def test_aborted_rk_run_artifacts_match_the_reference(tmp_path):
    cfg = RunConfig(
        integrator="rk",
        t_end=6 * _DT,
        one_shot=OneShotSpec(step_index=2, sweep_index=1, node_index=0,
                             kernel_id="assembly", offset=0, scale=1e308),
    )
    report, written = _run_and_compare(tmp_path, cfg)
    assert report.status == "aborted"
    assert written == ["events.jsonl", "metrics.json", "residuals.csv", "trajectory.csv"]
    assert (tmp_path / "run" / "trajectory.csv").read_bytes() == b"time,peak_T\r\n"


def test_snapshot_of_special_values_matches_the_reference(tmp_path):
    cfg = IgnitionSurrogate(n_grid=9)
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1e-300, -1e300, 0.1]
    state = np.array(specials + specials[::-1])
    path, ref = tmp_path / "state.csv", tmp_path / "reference.csv"
    write_snapshot_csv(path, cfg, state)
    reference_snapshot_csv(ref, cfg, state)
    assert path.read_bytes() == ref.read_bytes()
    written = path.read_bytes()
    assert b",-0.0,0.1\r\n" in written and b",nan,-1e+300\r\n" in written
    assert b",inf,1e-300\r\n" in written and b",5e-324,5e-324\r\n" in written
