"""Bit-level corruption primitives and the windowed/one-shot injectors."""

import json
import math
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
import pytest

from resilient_sdc.campaign import RunConfig, RunReport, _write_run_artifacts
from resilient_sdc.faults import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    KernelHook,
    OneShotPerturbation,
    OneShotSpec,
    bit_flip,
)
from resilient_sdc.problems import KERNEL_IDS

# ---------------------------------------------------------------------------
# bit_flip


def test_bit_flip_sign_and_leading_bits():
    assert bit_flip(1.0, 63) == -1.0
    assert bit_flip(-2.5, 63) == 2.5
    assert bit_flip(1.0, 52) == 0.5  # lowest exponent bit of 2^0
    assert bit_flip(1.0, 51) == 1.5  # highest mantissa bit
    assert math.copysign(1.0, bit_flip(0.0, 63)) == -1.0


def test_bit_flip_exponent_ladder():
    """Clearing exponent bit k of 1.0 scales by 2^-2^k; the top bit overflows."""
    for k in range(10):
        assert bit_flip(1.0, 52 + k) == 2.0 ** -(2**k)
    assert bit_flip(1.0, 62) == math.inf


def test_bit_flip_is_an_involution_on_random_pairs():
    rng = np.random.default_rng(99)
    values = rng.uniform(-1e6, 1e6, size=10_000)
    bits = rng.integers(0, 64, size=10_000)
    for value, bit in zip(values, bits):
        flipped = bit_flip(value, bit)
        assert bit_flip(flipped, bit) == value


def test_bit_flip_range_check():
    with pytest.raises(ValueError):
        bit_flip(1.0, 64)
    with pytest.raises(ValueError):
        bit_flip(1.0, -1)


def test_corrupt_flips_or_scales_in_place_and_records_the_event():
    """The hook stamps the event with its own call index (the call it
    counted last), step time, position and run id."""
    hook = KernelHook(run_id=9)
    hook.begin_step(3, 0.5)
    hook.begin_node(2, 1, np.ones(3))
    array = np.array([1.0, 3.0, 4.0])
    for _ in range(8):
        hook.filter("assembly", array)
    hook.corrupt("assembly", array, 1, scale=1e4)
    assert array.tolist() == [1.0, 3.0e4, 4.0]
    (event,) = hook.events
    assert (event.old_value, event.new_value, event.scale, event.bit_index) == (3.0, 3.0e4, 1e4, None)
    hook.corrupt("gradient_T", array, 2, bit=63, scale=1e4)
    assert array.tolist() == [1.0, 3.0e4, -4.0]
    assert len(hook.events) == 2
    event = hook.events[1]
    assert (event.old_value, event.new_value, event.scale, event.bit_index) == (4.0, -4.0, None, 63)
    assert (event.kernel_id, event.array_offset, event.call_index, event.sim_time) == (
        "gradient_T", 2, 7, 0.5
    )
    assert (event.step_index, event.sweep_index, event.node_index, event.run_id) == (3, 2, 1, 9)


# ---------------------------------------------------------------------------
# configuration validation


def test_fault_config_validation():
    with pytest.raises(ValueError):
        FaultConfig(mode="gamma_ray")
    with pytest.raises(ValueError):
        FaultConfig(window=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        FaultConfig(seed=-1)


def test_one_shot_spec_validation():
    # a spec says what it does by what it carries: a bit flips, else scale multiplies
    assert [f.name for f in fields(OneShotSpec)] == [
        "step_index", "sweep_index", "node_index", "kernel_id", "offset", "scale", "bit"]
    for offset in (-1, 2.0, "hottest", None):
        with pytest.raises(ValueError, match="non-negative int or 'max_T'"):
            OneShotSpec(offset=offset)
    # no kernel call happens at sweep 0: the predictor is sweep 1
    for field, value in (("step_index", -1), ("sweep_index", 0), ("node_index", -1)):
        with pytest.raises(ValueError, match=f"one-shot {field} must be >= "):
            OneShotSpec(**{field: value})
    # a bit outside the binary64 word fails when the spec is built, not when it fires
    for bit in (64, -1):
        with pytest.raises(ValueError, match=rf"^one-shot bit must be in \[0, 63\], got {bit}$"):
            OneShotSpec(bit=bit)
    OneShotSpec(bit=17)
    OneShotSpec(bit=0)
    OneShotSpec(bit=63)
    OneShotSpec(offset="max_T")


# ---------------------------------------------------------------------------
# windowed injection protocol


def _drive(hook, calls, size=8):
    for _ in range(calls):
        hook.filter("assembly", np.ones(size))


def test_exactly_one_fault_per_window():
    cfg = FaultConfig(mode="type_b", window=50, seed=7)
    hook = FaultInjector(cfg)
    n_windows = 25
    _drive(hook, 50 * n_windows)
    per_window = Counter(ev.call_index // 50 for ev in hook.events)
    assert per_window == {w: 1 for w in range(n_windows)}
    # any 10 consecutive windows therefore carry exactly 10 events
    for start in range(n_windows - 9):
        assert sum(per_window[w] for w in range(start, start + 10)) == 10


def test_off_mode_advances_the_window_counter_without_events():
    cfg_off = FaultConfig(mode="off", window=50, seed=7)
    hook = FaultInjector(cfg_off)
    assert hook.due_call is None  # and no generator is built
    _drive(hook, 50 * 4)
    assert hook.events == []
    assert hook.call_count == 200
    assert divmod(hook.call_count, 50) == (4, 0)


def test_off_and_armed_modes_share_call_accounting():
    """Arming injection must not shift the call/window bookkeeping."""
    armed = FaultInjector(FaultConfig(mode="type_b", window=50, seed=7))
    off = FaultInjector(FaultConfig(mode="off", window=50, seed=7))
    _drive(armed, 50 * 6)
    _drive(off, 50 * 6)
    assert divmod(armed.call_count, 50) == divmod(off.call_count, 50) == (6, 0)


def test_same_seed_reproduces_events_bit_for_bit():
    cfg = FaultConfig(mode="type_b", window=30, seed=21)
    first, second = FaultInjector(cfg), FaultInjector(cfg)
    _drive(first, 30 * 8)
    _drive(second, 30 * 8)
    assert [ev.to_record() for ev in first.events] == [
        ev.to_record() for ev in second.events
    ]


def test_different_run_ids_draw_independent_streams():
    cfg = FaultConfig(mode="type_b", window=30, seed=21)
    a, b = FaultInjector(cfg, run_id=0), FaultInjector(cfg, run_id=1)
    _drive(a, 30 * 12)
    _drive(b, 30 * 12)
    assert [ev.call_index for ev in a.events] != [ev.call_index for ev in b.events]


def test_type_a_event_records_scale_and_mutation():
    cfg = FaultConfig(mode="type_a", window=5, seed=11, scale=1e4)
    hook = FaultInjector(cfg)
    array = np.full(6, 2.0)
    for _ in range(5):
        hook.filter("assembly", array.copy())
    (event,) = hook.events
    assert event.scale == 1e4
    assert event.bit_index is None
    assert event.new_value == event.old_value * 1e4


# The windowed injector as it was when it carried one or more injection
# streams, reduced to one stream (stream slot 0 of the generator key): the
# reference ``FaultInjector.filter`` must match call by call.


@dataclass
class InjectionState:
    """Window state of one injection stream."""

    seed: int
    run_id: int
    stream_id: int
    counter: int = 0
    window_index: int = 0
    fault_call: int = 0
    rng: np.random.Generator = None

    @classmethod
    def start(cls, cfg, run_id=0, stream_id=0):
        state = cls(seed=cfg.seed, run_id=run_id, stream_id=stream_id)
        state.new_window(cfg)
        return state

    def new_window(self, cfg):
        self.rng = np.random.default_rng(
            (self.seed, self.run_id, self.stream_id, self.window_index)
        )
        self.fault_call = int(self.rng.integers(0, cfg.window))


def maybe_inject(array, kernel_id, state, cfg, *, call_index=0, sim_time=0.0, position=None):
    """Advance the stream by one kernel call, possibly corrupting ``array``;
    returns the FaultEvent or None."""
    fire = state.counter == state.fault_call
    state.counter += 1

    event = None
    if fire and cfg.mode != "off":
        offset = int(state.rng.integers(0, array.size))
        bit = None
        if cfg.mode == "type_b":
            bit = int(state.rng.integers(0, 64))
        old = float(array[offset])
        new = bit_flip(old, bit) if bit is not None else old * cfg.scale
        array[offset] = new
        step, sweep, node = position if position is not None else (0, 0, 0)
        event = FaultEvent(
            call_index=call_index, kernel_id=kernel_id, array_offset=offset, old_value=old,
            new_value=new, sim_time=sim_time, bit_index=bit,
            scale=None if bit is not None else cfg.scale, step_index=step, sweep_index=sweep,
            node_index=node, run_id=state.run_id,
        )

    if state.counter >= cfg.window:
        state.counter = 0
        state.window_index += 1
        state.new_window(cfg)
    return event


def test_maybe_inject_counter_walks_windows():
    """The reference and the injector both end 9 calls into 4-call windows
    at window 2, call 1."""
    cfg = FaultConfig(mode="off", window=4, seed=0)
    state = InjectionState.start(cfg)
    hook = FaultInjector(cfg)
    for call in range(9):
        maybe_inject(np.ones(3), "assembly", state, cfg, call_index=call)
        hook.filter("assembly", np.ones(3))
    assert (state.window_index, state.counter) == (2, 1)
    assert divmod(hook.call_count, cfg.window) == (2, 1)


def _event_records(events):
    return [json.dumps(event.to_record(), sort_keys=True) for event in events]


@pytest.mark.parametrize("window", [1, 2, 3, 96])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("mode", ["off", "type_a", "type_b"])
@pytest.mark.parametrize("ragged", [False, True])
def test_filter_matches_a_maybe_inject_loop_call_by_call(window, members, mode, ragged):
    """``filter`` leaves the events, arrays and window state of calling
    ``maybe_inject`` on every call.  ``members`` injectors with distinct
    run ids, as in a campaign, each see the same calls and each match their
    own reference.  ``ragged`` varies the kernel array size from call to
    call, down to one element, so the offset draws see every size.  Until
    a window's fault fires, an armed injector's one due call index is the
    reference's fault call in that window, as an absolute call index."""
    cfg = FaultConfig(mode=mode, window=window, seed=17)
    hooks = [FaultInjector(cfg, run_id=4 + m) for m in range(members)]
    reference = [InjectionState.start(cfg, run_id=4 + m) for m in range(members)]
    reference_events = [[] for _ in range(members)]
    rng = np.random.default_rng(window * 10 + members)
    for call in range(max(5 * window, 30) + 7):
        kernel = KERNEL_IDS[call % len(KERNEL_IDS)]
        values = rng.standard_normal(1 + call % 9 if ragged else 8)
        for hook, state, events in zip(hooks, reference, reference_events):
            hook.begin_step(call // 20, 0.5 * call)
            hook.begin_node(call % 5, call % 3, values)
            array, reference_array = values.copy(), values.copy()
            hook.filter(kernel, array)
            event = maybe_inject(
                reference_array,
                kernel,
                state,
                cfg,
                call_index=call,
                sim_time=hook.sim_time,
                position=hook.position(),
            )
            if event is not None:
                events.append(event)
            assert array.tobytes() == reference_array.tobytes()
            assert divmod(hook.call_count, window) == (state.window_index, state.counter)
            assert _event_records(hook.events) == _event_records(events)
            if mode != "off" and state.counter <= state.fault_call:
                assert hook.due_call == state.window_index * window + state.fault_call
    for hook in hooks:
        windows = hook.call_count // window
        assert windows >= 5
        if mode == "off":
            assert not hook.events
        else:
            # one event per window, the current window's if it fired
            assert windows <= len(hook.events) <= windows + 1


# ---------------------------------------------------------------------------
# one-shot perturbations


def _position_hook(hook, step, sweep, node):
    hook.begin_step(step, 0.25)
    hook.begin_node(sweep, node, np.ones(4))


def test_one_shot_fires_exactly_once_at_position():
    spec = OneShotSpec(
        step_index=2, sweep_index=3, node_index=1, kernel_id="assembly", offset=1, scale=10.0
    )
    hook = OneShotPerturbation(spec)
    array = np.array([1.0, 2.0, 3.0])

    _position_hook(hook, 0, 1, 0)
    hook.filter("assembly", array)
    assert hook.events == []

    _position_hook(hook, 2, 3, 1)
    hook.filter("gradient_T", array)  # wrong kernel
    assert hook.events == []
    hook.filter("assembly", array)
    assert len(hook.events) == 1
    assert array[1] == 20.0

    hook.filter("assembly", array)  # same position again: stays fired once
    assert array[1] == 20.0
    assert len(hook.events) == 1
    event = hook.events[0]
    assert (event.step_index, event.sweep_index, event.node_index) == (2, 3, 1)
    assert event.sim_time == 0.25


def test_one_shot_max_t_offset_targets_the_hottest_point():
    spec = OneShotSpec(
        step_index=0, sweep_index=1, node_index=0, kernel_id="reaction_rate", offset="max_T"
    )
    hook = OneShotPerturbation(spec)
    _position_hook(hook, 0, 1, 0)
    state = np.concatenate((np.array([300.0, 900.0, 400.0]), np.ones(3)))
    hook.begin_node(1, 0, state)
    array = np.array([1.0, 1.0, 1.0])
    hook.filter("reaction_rate", array)
    assert hook.events[0].array_offset == 1
    assert array[1] == 1e4


def test_one_shot_bit_mode_uses_bit_flip():
    """A spec with a bit flips it, leaving its (default) scale unused."""
    spec = OneShotSpec(
        step_index=0, sweep_index=1, node_index=0, kernel_id="assembly", offset=0, bit=63,
    )
    hook = OneShotPerturbation(spec)
    _position_hook(hook, 0, 1, 0)
    array = np.array([4.0])
    hook.filter("assembly", array)
    assert array[0] == -4.0
    assert (hook.events[0].bit_index, hook.events[0].scale) == (63, None)


# ---------------------------------------------------------------------------
# event logs


def test_event_log_round_trips_as_jsonl(tmp_path):
    """The run artifact writer logs each event's record as one JSON line."""
    cfg = FaultConfig(mode="type_b", window=20, seed=13)
    hook = FaultInjector(cfg)
    _drive(hook, 60)
    _write_run_artifacts(RunReport(config=RunConfig(output_dir=str(tmp_path)), status="clean",
                                   trajectory=[], traces=[], events=hook.events, metrics={}))
    path = tmp_path / "events.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(hook.events)
    for record, event in zip(records, hook.events):
        assert json.dumps(record, sort_keys=True) == json.dumps(event.to_record(), sort_keys=True)
        assert record["call_index"] == event.call_index
        assert record["old_bits"] == f"{np.float64(event.old_value).view(np.uint64):016x}"
        assert record["new_bits"] == f"{np.float64(event.new_value).view(np.uint64):016x}"


def test_event_record_carries_full_context():
    cfg = FaultConfig(mode="type_a", window=5, seed=1)
    hook = FaultInjector(cfg, run_id=6)
    hook.begin_step(4, 1.5)
    hook.begin_node(2, 1, np.ones(8))
    _drive(hook, 5)
    record = hook.events[0].to_record()
    expected_keys = {
        "call_index", "kernel_id", "array_offset", "old_value", "new_value",
        "sim_time", "bit_index", "scale", "step_index", "sweep_index",
        "node_index", "run_id", "old_bits", "new_bits",
    }
    assert set(record) == expected_keys
    assert record["run_id"] == 6
    assert record["step_index"] == 4
    assert record["sim_time"] == 1.5
