"""The demo scripts run as a reader would run them.

Demos 01-04 take about a second and a half together, so each runs here in
a fresh interpreter and must exit 0 with nothing on stderr.  Demo 05 runs a
full fault campaign (about 13 s), the campaign acceptance criterion 6 runs
at scale, so it stays a manual check: ``python demos/05_fault_campaign.py``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
RUN_HERE = [
    "01_collocation_convergence.py",
    "02_perturbed_sweep_damping.py",
    "03_hotspot_ignition.py",
    "04_residual_spike.py",
]
MANUAL = ["05_fault_campaign.py"]


def test_every_demo_is_run_here_or_named_a_manual_check():
    assert sorted(name for name in os.listdir(DEMOS) if name.endswith(".py")) == RUN_HERE + MANUAL


@pytest.mark.parametrize("demo", RUN_HERE)
def test_demo_exits_cleanly_with_empty_stderr(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
