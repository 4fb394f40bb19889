"""What a fresh process loads: the package root imports no submodule, the
integrators load no ``resilient_sdc.resilience``, and setting up a run loads
neither ``numpy.ma`` nor the standard-library modules that only the artifact
writers and the campaign tooling use.

Each check runs in a new interpreter, so ``sys.modules`` starts clean.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The steps of perfbench/run.py's set-up probe, with rules of 2 to 6 nodes.
SETUP_STEPS = """
import resilient_sdc
from resilient_sdc.faults import FaultConfig, FaultInjector
from resilient_sdc.problems import IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
for num_nodes in range(2, 7):
    lobatto_rule(num_nodes)
problem = IgnitionSurrogate()
system = problem.system(FaultInjector(FaultConfig()))
phi0 = problem.initial_state()
"""


def _modules_added_by(code):
    """Names of the modules that running ``code`` adds to ``sys.modules``."""
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\nbefore = set(sys.modules)\n{code}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return set(out.split())


def test_package_root_imports_no_submodule():
    added = _modules_added_by("import resilient_sdc")
    assert "resilient_sdc" in added
    assert sorted(m for m in added if m.startswith("resilient_sdc.")) == []


def test_integrators_load_no_resilience_module():
    for module in ("resilient_sdc.sdc", "resilient_sdc.rk"):
        added = _modules_added_by(f"import {module}")
        assert module in added
        assert "resilient_sdc.resilience" not in added


def test_run_setup_loads_only_what_a_run_uses():
    added = _modules_added_by(SETUP_STEPS)
    assert {"resilient_sdc.faults", "resilient_sdc.problems", "resilient_sdc.quadrature"} <= added
    unwanted = {"numpy.ma", "json", "logging", "csv", "resilient_sdc.campaign"}
    assert sorted(added & unwanted) == []
