"""Correctness checks on the outputs of each workload.

Every check compares against an independent reference or a property of the
method, never against a stored copy of earlier output.  Each returns a list
of failure descriptions; an empty list means the check passed.
"""

import math
import struct

import numpy as np

# Gaps of the default runs to the DOP853 reference are about 1.0e-6 K (RK)
# and 1.4e-7 K (SDC) in temperature, 7e-10 in fuel fraction.
STATE_TOL_T = 1.0e-5
STATE_TOL_Y = 1.0e-8
# sum(T) + heat_release * sum(Y) drifts by at most ~1e-15 relative.
INVARIANT_RTOL = 1.0e-13
ORDER_TOL = 0.3


def final_state(state, reference, n_grid):
    """Final state within the tolerances of the independent reference."""
    gap_t = float(np.max(np.abs(state[:n_grid] - reference[:n_grid])))
    gap_y = float(np.max(np.abs(state[n_grid:] - reference[n_grid:])))
    failures = []
    if not gap_t <= STATE_TOL_T:
        failures.append(f"final temperature off the reference by {gap_t:.3e} K")
    if not gap_y <= STATE_TOL_Y:
        failures.append(f"final fuel fraction off the reference by {gap_y:.3e}")
    return failures


def linear_invariant(states, n_grid, heat_release):
    """sum(T) + heat_release * sum(Y) is conserved at every step.

    Periodic diffusion sums to zero and the reaction moves heat_release
    units of temperature per unit of fuel, so the sum is exact up to
    roundoff.  ``states`` has one state per row.
    """
    invariant = states[:, :n_grid].sum(axis=1) + heat_release * states[:, n_grid:].sum(axis=1)
    drift = float(np.max(np.abs(invariant - invariant[0])) / abs(invariant[0]))
    if not drift <= INVARIANT_RTOL:
        return [f"linear invariant drifts by {drift:.3e} relative"]
    return []


def within_bounds(states, n_grid, t_bounds, y_bounds):
    """Every state inside the realizability box."""
    temperature, fuel = states[:, :n_grid], states[:, n_grid:]
    failures = []
    if not (np.all(temperature >= t_bounds[0]) and np.all(temperature <= t_bounds[1])):
        failures.append(
            f"temperature leaves [{t_bounds[0]}, {t_bounds[1]}]: "
            f"{temperature.min()!r}..{temperature.max()!r}"
        )
    if not (np.all(fuel >= y_bounds[0]) and np.all(fuel <= y_bounds[1])):
        failures.append(
            f"fuel fraction leaves [{y_bounds[0]}, {y_bounds[1]}]: {fuel.min()!r}..{fuel.max()!r}"
        )
    return failures


def _bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def fault_events(events, call_count, window):
    """One type-B event per completed window, each a single-bit flip.

    ``events`` are (call_index, bit_index, old_value, new_value) tuples.
    A trailing, incomplete window may hold at most one event.
    """
    failures = []
    per_window = {}
    for call_index, bit, old, new in events:
        per_window[call_index // window] = per_window.get(call_index // window, 0) + 1
        if not 0 <= call_index < call_count:
            failures.append(f"event at call {call_index} outside {call_count} calls")
        if bit is None or not 0 <= bit <= 63 or _bits(new) != _bits(old) ^ (1 << bit):
            failures.append(f"event at call {call_index}: {old!r} -> {new!r} is not a flip of bit {bit}")
    completed = call_count // window
    for w in range(completed):
        if per_window.get(w, 0) != 1:
            failures.append(f"window {w} holds {per_window.get(w, 0)} events, expected 1")
    extra = {w: c for w, c in per_window.items() if w >= completed}
    if sum(extra.values()) > 1 or any(w > completed for w in extra):
        failures.append(f"events beyond the {completed} completed windows: {extra}")
    return failures


def campaign_summary(rows, summary):
    """Summary fields recomputed from the runs.csv rows.

    ``rows`` are dicts with string values as read by csv.DictReader;
    ``summary`` is the parsed summary.json.
    """
    completed = np.array(
        [float(r["scalar"]) for r in rows if r["status"] != "aborted"], dtype=float
    )
    expected = {
        "runs": len(rows),
        "crash_count": sum(1 for r in rows if r["status"] == "aborted"),
        "restart_count": sum(int(r["restarts"]) for r in rows if r["status"] != "aborted"),
    }
    failures = [
        f"summary {key} is {summary.get(key)!r}, rows give {value!r}"
        for key, value in expected.items()
        if summary.get(key) != value
    ]
    if completed.size:
        for key, statistic in (("mean", np.mean), ("minimum", np.min), ("maximum", np.max)):
            value, got = float(statistic(completed)), summary.get(key)
            if not (isinstance(got, float) and math.isclose(got, value, rel_tol=1e-12)):
                failures.append(f"summary {key} is {got!r}, rows give {value!r}")
        # Summation order moves the mean by a few ulps of the scalars, and the
        # standard deviation by as much: compare it on that scale.
        std = math.sqrt(np.var(completed, ddof=1)) if completed.size > 1 else 0.0
        ulps = 64 * np.finfo(float).eps * float(np.max(np.abs(completed)))
        got = summary.get("variance")
        if not (
            isinstance(got, float)
            and got >= 0.0
            and math.isclose(math.sqrt(got), std, rel_tol=1e-9, abs_tol=ulps)
        ):
            failures.append(f"summary variance is {got!r}, rows give {std * std!r}")
    return failures


def convergence_order(dts, errors, expected):
    """Observed order -- the least-squares slope of log(error) against
    log(dt) -- within ORDER_TOL of the method's order."""
    if any(not (e > 0.0 and math.isfinite(e)) for e in errors):
        return [f"errors {errors!r} are not all positive and finite"]
    order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    if not abs(order - expected) <= ORDER_TOL:
        return [f"observed order {order:.3f}, expected {expected}"]
    return []
