"""The bitwise-identity fingerprint of ``tools/fingerprint.py``."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
