"""What a fresh process loads: the package root imports no submodule, the
integrators load no ``resilient_sdc.resilience``, and setting up a run loads
neither ``numpy.ma`` nor the standard-library modules that only the artifact
writers and the campaign tooling use, nor ``numpy.random``, which only an
armed injector draws from.

Each of those checks runs in a new interpreter, so ``sys.modules`` starts
clean.  The last checks read the source: no module imports a name it never
uses, only ``campaign`` opens a file for writing, no package module
imports another's underscore name, only ``campaign.run_single`` calls an
integrator, and only ``sdc.march`` sets numpy's floating-point error state.
"""

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The directories whose modules the unused-import check reads.
LINTED_DIRS = ("src", "tests", "tools", "demos")

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
    # a disarmed injector draws nothing, so nothing loads numpy.random
    unwanted = {"numpy.ma", "numpy.random", "json", "logging", "csv", "resilient_sdc.campaign"}
    assert sorted(added & unwanted) == []


def _imported_names(tree):
    """(line, bound name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _used_names(tree):
    """Names the module reads, plus the strings listed in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return used


def unused_imports(path):
    """``file:line: name`` for each imported name the module never uses."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = _used_names(tree)
    where = os.path.relpath(path, ROOT)
    return [f"{where}:{line}: {name}" for line, name in _imported_names(tree) if name not in used]


def test_unused_imports_helper_names_each_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, nan as not_a_number\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(os.sep, inf)\n"
    )
    where = os.path.relpath(str(module), ROOT)
    assert unused_imports(str(module)) == [f"{where}:3: np", f"{where}:4: not_a_number"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(
        os.path.join(folder, name)
        for top in LINTED_DIRS
        for folder, _, names in os.walk(os.path.join(ROOT, top))
        for name in names
        if name.endswith(".py")
    )
    assert len(paths) > 20
    found = [entry for path in paths for entry in unused_imports(path)]
    assert found == [], "unused imports:\n" + "\n".join(found)


# The one package module that writes files: every run, campaign and
# sensitivity artifact goes through its writers.
WRITER_MODULE = "campaign.py"


def _opens_for_writing(call):
    """Whether ``call`` is ``open(...)`` with a mode that writes, appends or
    creates; a mode that is not a literal counts as writing."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return False
    (mode,) = modes
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def structure_faults(path):
    """``file:line: fault`` for each write-mode ``open`` outside the writer
    module and each underscore name imported from another package module."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    where = os.path.relpath(path, ROOT)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _opens_for_writing(node)
                and os.path.basename(path) != WRITER_MODULE):
            found.append(f"{where}:{node.lineno}: opens a file for writing")
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "resilient_sdc"):
            found += [f"{where}:{node.lineno}: imports {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_structure_faults_helper_names_each_fault(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .campaign import _write_csv, run_single\n"
        "from resilient_sdc.faults import _MODES\n"
        "from numpy import _private\n"
        "from . import __version__\n"
        "open('a.csv', 'w', newline='')\n"
        "open('b.log', mode='a')\n"
        "open('c.json')\n"
        "open('d.json', 'rb')\n"
        "open('e.bin', 'r+b')\n"
        "open('f.txt', chosen)\n"
    )
    where = os.path.relpath(str(module), ROOT)
    assert structure_faults(str(module)) == [
        f"{where}:1: imports _write_csv",
        f"{where}:2: imports _MODES",
        f"{where}:5: opens a file for writing",
        f"{where}:6: opens a file for writing",
        f"{where}:9: opens a file for writing",
        f"{where}:10: opens a file for writing",
    ]


def test_only_campaign_writes_files_and_no_module_imports_a_private_name():
    folder = os.path.join(SRC, "resilient_sdc")
    paths = [os.path.join(folder, name) for name in sorted(os.listdir(folder))
             if name.endswith(".py")]
    assert len(paths) > 8
    found = [entry for path in paths for entry in structure_faults(path)]
    assert found == [], "structure faults:\n" + "\n".join(found)


# The integrators, and the one run driver allowed to call them: every run
# the package makes (campaign member, sensitivity kernel, convergence
# ladder entry) goes through it.
INTEGRATORS = ("integrate", "integrate_resilient", "rk_integrate")
RUN_DRIVER = ("campaign.py", "run_single")


def integrator_calls(path):
    """``file:line: calls name in owner`` for each call of an integrator,
    by bare name or as an attribute, outside the run driver; the owner is
    the module-level function or class the call sits in."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    where = os.path.relpath(path, ROOT)
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        if (os.path.basename(path), owner) == RUN_DRIVER:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in INTEGRATORS:
                found.append(f"{where}:{node.lineno}: calls {name} in {owner or 'the module'}")
    return found


def test_integrator_calls_helper_names_each_call_outside_the_run_driver(tmp_path):
    driver = tmp_path / "campaign.py"
    driver.write_text(
        "def run_single(cfg):\n"
        "    def nested():\n"
        "        return rk_integrate(1)\n"
        "    return integrate(1), nested()\n"
        "def convergence_study():\n"
        "    return integrate(2)\n"
        "class Study:\n"
        "    def run(self):\n"
        "        return sdc.integrate_resilient(3)\n"
        "integrate_step(4)\n"
        "rk_integrate(5)\n"
    )
    other = tmp_path / "sdc.py"
    other.write_text("def run_single(cfg):\n    return integrate(1)\n")
    where, elsewhere = (os.path.relpath(str(p), ROOT) for p in (driver, other))
    assert integrator_calls(str(driver)) == [
        f"{where}:6: calls integrate in convergence_study",
        f"{where}:9: calls integrate_resilient in Study",
        f"{where}:11: calls rk_integrate in the module",
    ]
    assert integrator_calls(str(other)) == [f"{elsewhere}:2: calls integrate in run_single"]


def test_only_run_single_calls_an_integrator():
    folder = os.path.join(SRC, "resilient_sdc")
    paths = [os.path.join(folder, name) for name in sorted(os.listdir(folder))
             if name.endswith(".py")]
    assert len(paths) > 8
    found = [entry for path in paths for entry in integrator_calls(path)]
    assert found == [], "integrator calls outside campaign.run_single:\n" + "\n".join(found)


# The one owner of numpy's floating-point error state: every integration
# runs its steps under the policy ``march`` sets, so no kernel, sweep or
# caller in the package sets its own or filters warnings.
FLOAT_POLICY_OWNER = ("sdc.py", "march")
ERROR_STATE_NAMES = ("errstate", "seterr")


def float_policy_faults(path):
    """``file:line: fault`` for each use of ``errstate`` or ``seterr``
    outside ``sdc.march``, and each import of ``warnings``, in line order;
    the owner named is the module-level function or class the use sits in."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    where = os.path.relpath(path, ROOT)
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if (name in ERROR_STATE_NAMES
                    and (os.path.basename(path), owner) != FLOAT_POLICY_OWNER):
                found.append((node.lineno, f"uses {name} in {owner or 'the module'}"))
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(module.split(".")[0] == "warnings" for module in modules):
                found.append((node.lineno, "imports warnings"))
    return [f"{where}:{line}: {fault}" for line, fault in sorted(found)]


def test_float_policy_faults_helper_names_each_fault(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os, warnings\n"
        "import numpy as np\n"
        "from warnings import catch_warnings\n"
        "@np.errstate(over='ignore')\n"
        "def kernel(x):\n"
        "    return x\n"
        "def march(x):\n"
        "    with np.errstate(all='ignore'):\n"
        "        np.seterr(all='ignore')\n"
        "class Stepper:\n"
        "    def run(self):\n"
        "        with errstate(all='ignore'):\n"
        "            pass\n"
        "state = np.geterr()\n"
    )
    owner = tmp_path / "sdc.py"
    owner.write_text(
        "import numpy as np\n"
        "def march(x):\n"
        "    with np.errstate(all='ignore'):\n"
        "        return x\n"
        "np.seterr(all='ignore')\n"
    )
    where, elsewhere = (os.path.relpath(str(p), ROOT) for p in (module, owner))
    assert float_policy_faults(str(module)) == [
        f"{where}:1: imports warnings",
        f"{where}:3: imports warnings",
        f"{where}:4: uses errstate in kernel",
        f"{where}:8: uses errstate in march",
        f"{where}:9: uses seterr in march",
        f"{where}:12: uses errstate in Stepper",
    ]
    assert float_policy_faults(str(owner)) == [f"{elsewhere}:5: uses seterr in the module"]


def test_only_march_sets_the_floating_point_policy():
    folder = os.path.join(SRC, "resilient_sdc")
    paths = [os.path.join(folder, name) for name in sorted(os.listdir(folder))
             if name.endswith(".py")]
    assert len(paths) > 8
    found = [entry for path in paths for entry in float_policy_faults(path)]
    assert found == [], "floating-point policy outside sdc.march:\n" + "\n".join(found)
