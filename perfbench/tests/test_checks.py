"""Each correctness check accepts a right input and rejects a wrong one."""

import dataclasses
import struct

import numpy as np

import checks
from resilient_sdc.campaign import summarize

N = 120
HEAT_RELEASE = 1500.0


def _state(rng):
    return np.concatenate((rng.uniform(300.0, 2500.0, N), rng.uniform(0.0, 1.0, N)))


def test_final_state_rejects_a_shift_of_a_millikelvin():
    rng = np.random.default_rng(0)
    reference = _state(rng)
    close = reference + 1e-7 * rng.standard_normal(2 * N) * np.r_[np.ones(N), 1e-3 * np.ones(N)]
    assert checks.final_state(close, reference, N) == []
    shifted = close.copy()
    shifted[:N] += 1e-3
    assert checks.final_state(shifted, reference, N)


def _conserving_states(rng, steps=50):
    states = [_state(rng)]
    for _ in range(steps):
        s = states[-1].copy()
        burned = 1e-3 * rng.uniform()
        s[N + rng.integers(N)] -= burned
        s[rng.integers(N)] += HEAT_RELEASE * burned
        states.append(s)
    return np.array(states)


def test_linear_invariant_rejects_a_broken_invariant():
    states = _conserving_states(np.random.default_rng(1))
    assert checks.linear_invariant(states, N, HEAT_RELEASE) == []
    broken = states.copy()
    broken[-1, 7] += 1e-3
    assert checks.linear_invariant(broken, N, HEAT_RELEASE)


def test_within_bounds_rejects_a_state_outside_the_box():
    states = _conserving_states(np.random.default_rng(2))
    assert checks.within_bounds(states, N, (290.0, 2750.0), (-0.1, 1.1)) == []
    low = states.copy()
    low[3, 4] = 289.0
    assert checks.within_bounds(low, N, (290.0, 2750.0), (-0.1, 1.1))
    fuel = states.copy()
    fuel[3, N + 4] = 1.2
    assert checks.within_bounds(fuel, N, (290.0, 2750.0), (-0.1, 1.1))


def _flip(value, bit):
    (pattern,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", pattern ^ (1 << bit)))[0]


def _events(window, windows, rng):
    events = []
    for w in range(windows):
        old, bit = float(rng.uniform(-5.0, 5.0)), int(rng.integers(64))
        events.append((w * window + int(rng.integers(window)), bit, old, _flip(old, bit)))
    return events


def test_fault_events_reject_a_misflipped_event():
    rng = np.random.default_rng(3)
    events = _events(100, 7, rng)
    assert checks.fault_events(events, 7 * 100 + 40, 100) == []
    call, bit, old, new = events[2]
    wrong = events[:2] + [(call, bit, old, _flip(old, (bit + 1) % 64))] + events[3:]
    assert checks.fault_events(wrong, 7 * 100 + 40, 100)


def test_fault_events_reject_a_missing_or_doubled_window():
    rng = np.random.default_rng(4)
    events = _events(100, 5, rng)
    assert checks.fault_events(events[:-1], 500, 100)
    doubled = events + [(events[0][0] + 1,) + events[0][1:]]
    assert checks.fault_events(doubled, 500, 100)
    # one event in the trailing partial window is allowed, two are not
    trailing = [(505, 3, 1.0, _flip(1.0, 3)), (510, 4, 1.0, _flip(1.0, 4))]
    assert checks.fault_events(events + trailing[:1], 560, 100) == []
    assert checks.fault_events(events + trailing, 560, 100)


def test_convergence_order_rejects_an_order_off_by_one():
    dts = [0.4, 0.2, 0.1, 0.05]
    errors = [3.0 * dt**4 for dt in dts]
    assert checks.convergence_order(dts, errors, 4) == []
    assert checks.convergence_order(dts, errors, 3)
    assert checks.convergence_order(dts, errors, 5)
    assert checks.convergence_order(dts, [errors[0], 0.0] + errors[2:], 4)


def test_campaign_summary_rejects_a_wrong_statistic():
    scalars = [2566.7, 2566.9, 2570.2]
    rows = [
        {"run_id": str(i), "scalar": repr(s), "status": "clean", "restarts": "1"}
        for i, s in enumerate(scalars)
    ] + [{"run_id": "3", "scalar": "nan", "status": "aborted", "restarts": "0"}]
    summary = dataclasses.asdict(summarize(scalars, runs=4, crash_count=1, restart_count=3))
    assert checks.campaign_summary(rows, summary) == []
    for key, value in (("mean", summary["mean"] + 1e-6), ("crash_count", 0), ("variance", 1.0)):
        assert checks.campaign_summary(rows, dict(summary, **{key: value}))


def test_campaign_summary_accepts_nearly_equal_scalars():
    # RK members whose bit flips all landed in low mantissa bits: the
    # variance is ~1e-19 and depends on summation order in its last digits.
    rng = np.random.default_rng(5)
    for _ in range(200):
        scalars = [2566.7682856695315 + 1e-9 * rng.standard_normal() for _ in range(16)]
        rows = [{"scalar": repr(s), "status": "clean", "restarts": "0"} for s in scalars]
        summary = dataclasses.asdict(summarize(scalars, runs=16))
        assert checks.campaign_summary(rows, summary) == []
        wrong = dict(summary, variance=summary["variance"] * 1.5 + 1e-12)
        assert checks.campaign_summary(rows, wrong)
