"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper that records a
span (name, start, end, parent) in flat in-memory arrays, in every module that
holds the function under its name -- a name imported with ``from ... import``
is looked up in the importing module, so e.g. ``resilience.integrate_step``
and ``campaign.realizability_guard`` are wrapped too.  Methods are wrapped on
their class.  ``uninstall`` puts every original back.  Spans are only written
out by ``dump``; per-name totals and self times are computed from the arrays.
"""

import importlib
import time
from array import array

import numpy as np

# span name -> (module, attribute); "Class.method" names a method.
TRACED = {
    "quadrature.lobatto_rule": ("quadrature", "lobatto_rule"),
    "problems.derivative_operator": ("problems", "derivative_operator"),
    "problems.surrogate_rhs": ("problems", "surrogate_rhs"),
    "problems.realizability": ("problems", "IgnitionSurrogate.realizability"),
    "sdc.predictor": ("sdc", "predictor"),
    "sdc.sdc_sweep": ("sdc", "sdc_sweep"),
    "sdc.residual_max_norm": ("sdc", "residual_max_norm"),
    "sdc.integrate_step": ("sdc", "integrate_step"),
    "sdc.integrate": ("sdc", "integrate"),
    "resilience.realizability_guard": ("resilience", "realizability_guard"),
    "resilience.checkpointed_step": ("resilience", "checkpointed_step"),
    "resilience.integrate_resilient": ("resilience", "integrate_resilient"),
    "rk.rk_step": ("rk", "rk_step"),
    "rk.rk_integrate": ("rk", "rk_integrate"),
    "faults.filter": ("faults", "FaultInjector.filter"),
    "campaign.run_single": ("campaign", "run_single"),
    "campaign.run_campaign": ("campaign", "run_campaign"),
    "campaign.convergence_study": ("campaign", "convergence_study"),
}

PACKAGE = "resilient_sdc"
MODULES = ("quadrature", "problems", "sdc", "resilience", "rk", "faults", "campaign")


def bindings(module, attr):
    """Every (owner, name) through which the package reaches one function."""
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [(getattr(mod, cls_name), meth)]
    func = getattr(mod, attr)
    owners = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    owners.append(importlib.import_module(PACKAGE))
    return [(owner, attr) for owner in owners if getattr(owner, attr, None) is func]


class Tracer:
    """Spans of every traced function while installed (``with tracer:``);
    spans accumulate over successive installs."""

    def __init__(self):
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._saved = []

    def _wrap(self, nid, func):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for nid, name in enumerate(self.names):
            found = bindings(*TRACED[name])
            owner, key = found[0]
            wrapper = self._wrap(nid, owner.__dict__[key])
            for owner, key in found:
                self._saved.append((owner, key, owner.__dict__[key]))
                setattr(owner, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        inclusive = np.bincount(ids, weights=duration, minlength=k)
        own = np.bincount(ids, weights=duration - child, minlength=k)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def dump(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
