"""Seedable soft-error injection into kernel return arrays.

Faults are injected only into the arrays returned by right-hand-side
kernels, never into checkpointed solution vectors, quadrature matrices, or
controller state, so corruption migrates up the call tree through return
values exactly as a transient hardware fault in a compute kernel would.

Two corruption models are supported: ``type_a`` multiplies one element by a
large scale factor, ``type_b`` flips one bit of the IEEE-754 binary64
representation of one element (bit 63 is the sign, 62..52 the exponent,
51..0 the mantissa).  A run's one fault source is a windowed ``FaultConfig``
or a ``OneShotSpec``.  The windowed injector fires exactly once per
completed window of kernel calls at a uniformly drawn call index, with all
randomness keyed by (seed, run, window) so that runs are exactly
reproducible and windows are independent.  A one-shot fault has no mode:
one with a ``bit`` flips it, one without multiplies by its ``scale``, and
whether it fired is whether it logged an event.  A hook learns the step
from ``sdc.march`` (``begin_step``) and, before each rhs evaluation, the
sweep, node and state from ``sdc.evaluate`` (``begin_node``); the
one-shot's ``max_T`` reads that state.  Both injectors corrupt through
``KernelHook.corrupt``, which stamps the hook's position on the event.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Union

import numpy as np

__all__ = [
    "FAULT_MODES",
    "FaultConfig",
    "FaultEvent",
    "OneShotSpec",
    "KernelHook",
    "FaultInjector",
    "OneShotPerturbation",
    "bit_flip",
]

FAULT_MODES = ("off", "type_a", "type_b")


def bit_flip(value, bit):
    """Flip one bit of the binary64 representation of ``value``.

    Bit 0 is the least significant mantissa bit, bit 63 the sign.  The
    result is returned as-is even when it is non-finite.
    """
    bit = int(bit)
    if not 0 <= bit <= 63:
        raise ValueError(f"bit index must be in [0, 63], got {bit}")
    pattern = np.float64(value).view(np.uint64)
    return float((pattern ^ np.uint64(1 << bit)).view(np.float64))


@dataclass(frozen=True)
class FaultConfig:
    """Windowed-injection settings.

    ``window`` is the number of kernel calls per injection window and
    ``scale`` the type-A multiplier; mode ``off`` injects nothing.  A run
    holds a ``OneShotSpec`` in its place for one deterministic fault.
    """

    mode: str = "off"
    window: int = 5580
    scale: float = 1.0e4
    seed: int = 0

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {self.mode!r}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FaultEvent:
    """One injected fault, with enough context to replay or audit it."""

    call_index: int
    kernel_id: str
    array_offset: int
    old_value: float
    new_value: float
    sim_time: float
    bit_index: Optional[int] = None
    scale: Optional[float] = None
    step_index: int = 0
    sweep_index: int = 0
    node_index: int = 0
    run_id: int = 0

    def to_record(self):
        """Serializable record; floats also carried as exact hex bit patterns."""
        record = asdict(self)
        record["old_bits"] = f"{np.float64(self.old_value).view(np.uint64):016x}"
        record["new_bits"] = f"{np.float64(self.new_value).view(np.uint64):016x}"
        return record


class KernelHook:
    """Base observer for kernelized rhs evaluations; injects nothing.

    Every ``ODESystem`` carries a hook, this one when it is given none.  It
    tracks the integrator position and counts kernel calls, and leaves every
    array untouched, so a disarmed run is bitwise identical to an
    uninstrumented one.
    """

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.step_index = 0
        self.sweep_index = 0
        self.node_index = 0
        self.sim_time = 0.0
        self.call_count = 0
        self.events = []
        self.node_state = None

    def begin_step(self, step_index, sim_time):
        self.step_index = step_index
        self.sim_time = sim_time

    def begin_node(self, sweep_index, node_index, state):
        """Enter a node (or RK stage) of a sweep whose rhs is evaluated at
        ``state``: the whole position of the kernel calls that follow."""
        self.sweep_index = sweep_index
        self.node_index = node_index
        self.node_state = state

    def position(self):
        return (self.step_index, self.sweep_index, self.node_index)

    def filter(self, kernel_id, array):
        """Pass one kernel return array through the hook (no-op here)."""
        self.call_count += 1

    def corrupt(self, kernel_id, array, offset, *, bit=None, scale=None):
        """Corrupt ``array[offset]`` of the kernel call counted last, in
        place, and log its FaultEvent; no other code builds one.

        Flips ``bit`` (type B) when given, else multiplies by ``scale``
        (type A).  The event takes its call index, step time, position and
        run id from the hook.
        """
        old = float(array[offset])
        if bit is not None:
            new, scale = bit_flip(old, bit), None
        else:
            new = old * scale
        array[offset] = new
        self.events.append(FaultEvent(
            call_index=self.call_count - 1, kernel_id=kernel_id, array_offset=offset,
            old_value=old, new_value=new, sim_time=self.sim_time, bit_index=bit, scale=scale,
            step_index=self.step_index, sweep_index=self.sweep_index,
            node_index=self.node_index, run_id=self.run_id,
        ))


class FaultInjector(KernelHook):
    """Windowed random injector: one fault per completed window.

    It holds ``due_call``, the absolute index of the next fault call, and
    that window's generator, keyed (seed, run_id, 0, window): the 0 is the
    slot of a stream index the injector once had, so every seed still draws
    the faults it always drew.  Mode ``off`` has no due call and no generator.
    """

    def __init__(self, cfg, run_id=0):
        super().__init__(run_id=run_id)
        self.cfg = cfg
        self.due_call = None if cfg.mode == "off" else self._draw(0)

    def _draw(self, window):
        """Key ``window``'s generator; returns its fault call's absolute index."""
        self.rng = np.random.default_rng((self.cfg.seed, self.run_id, 0, window))
        return window * self.cfg.window + int(self.rng.integers(0, self.cfg.window))

    def filter(self, kernel_id, array):
        """Count one kernel call; the due call corrupts ``array``, logs the
        event and draws the next window's fault call."""
        call_index = self.call_count
        self.call_count += 1
        if call_index != self.due_call:
            return
        offset = int(self.rng.integers(0, array.size))
        bit = int(self.rng.integers(0, 64)) if self.cfg.mode == "type_b" else None
        self.corrupt(kernel_id, array, offset, bit=bit, scale=self.cfg.scale)
        self.due_call = self._draw(call_index // self.cfg.window + 1)


@dataclass(frozen=True)
class OneShotSpec:
    """Schedule and corruption of a single deterministic fault.

    ``offset`` is a non-negative array index, or the string ``"max_T"`` for
    the hottest ignition grid point of the state the hook's ``begin_node`` got.
    A spec with a ``bit`` flips that bit (type B); one without multiplies by
    ``scale`` (type A).
    """

    step_index: int = 0
    sweep_index: int = 1
    node_index: int = 0
    kernel_id: str = "assembly"
    offset: Union[int, str] = 0
    scale: float = 1.0e4
    bit: Optional[int] = None

    def __post_init__(self):
        for name, lowest in (("step_index", 0), ("sweep_index", 1), ("node_index", 0)):
            value = getattr(self, name)
            if value < lowest:
                raise ValueError(f"one-shot {name} must be >= {lowest}, got {value}")
        if self.offset != "max_T" and not (isinstance(self.offset, int) and self.offset >= 0):
            raise ValueError(
                f"one-shot offset must be a non-negative int or 'max_T', got {self.offset!r}"
            )
        if self.bit is not None and not 0 <= self.bit <= 63:
            raise ValueError(f"one-shot bit must be in [0, 63], got {self.bit}")


class OneShotPerturbation(KernelHook):
    """Hook that corrupts exactly one kernel return at a scheduled position;
    it has fired once it holds its event.  The ``RunConfig`` holding the spec
    checked that an integer offset fits the kernel's array."""

    def __init__(self, spec, run_id=0):
        super().__init__(run_id=run_id)
        self.spec = spec

    def filter(self, kernel_id, array):
        self.call_count += 1
        spec = self.spec
        if (self.events or kernel_id != spec.kernel_id
                or self.position() != (spec.step_index, spec.sweep_index, spec.node_index)):
            return
        offset = spec.offset
        if offset == "max_T":
            offset = int(np.argmax(self.node_state[: self.node_state.size // 2]))
        self.corrupt(kernel_id, array, offset, bit=spec.bit, scale=spec.scale)
