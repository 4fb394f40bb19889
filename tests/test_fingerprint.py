"""The bitwise-identity fingerprint of ``tools/fingerprint.py``."""

import importlib.util
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The digest of the full run set, taken under numpy 2.4.6.  The bits of a
# run depend on the numpy build (its BLAS kernels among them), so the digest
# is compared only under that version.  A change that should leave every
# result bitwise identical leaves this digest as it is.
FINGERPRINT = "6899cdf875efba4e90adc962dc684aa1fbe6c09ab7df0e60987a562680f1c3de"
FINGERPRINT_NUMPY = "2.4.6"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "fingerprint_tool", os.path.join(ROOT, "tools", "fingerprint.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_repeats_within_one_process():
    tool = _load_tool()
    wanted = ("type_b seed 101 rk member 1", "type_b seed 101 sdc_resilient member 1")
    runs = [(label, thunk) for label, thunk in tool.run_set() if label in wanted]
    assert [label for label, _ in runs] == list(wanted)
    first = tool.fingerprint(runs)
    assert len(first) == 64
    assert tool.fingerprint(runs) == first
    assert tool.fingerprint(runs[:1]) != first


def test_fingerprint_covers_artifact_files():
    tool = _load_tool()
    (thunk,) = [thunk for label, thunk in tool.run_set() if label == "linear sdc_fixed"]
    parts = list(thunk())
    heads = {
        "events.jsonl": b"",
        "metrics.json": b"{",
        "residuals.csv": b"step,sweep,residual_maxnorm\r\n",
        "trajectory.csv": b"time,y\r\n",
    }
    for name, head in heads.items():
        assert parts[parts.index(name.encode()) + 1].startswith(head)


@pytest.mark.skipif(
    np.__version__ != FINGERPRINT_NUMPY,
    reason=f"fingerprint taken under numpy {FINGERPRINT_NUMPY}, not {np.__version__}",
)
def test_full_run_set_matches_the_recorded_fingerprint():
    tool = _load_tool()
    assert tool.fingerprint(tool.run_set()) == FINGERPRINT
