"""PASS/FAIL lines of the acceptance criteria, kept for the terminal summary.

A plain module rather than part of conftest.py, so that test_acceptance.py
imports it by a name no other conftest.py on the test path shadows.
"""

ACCEPTANCE_LINES = []


def record_criterion(number, title, passed, detail):
    """Register (and immediately print) one acceptance-criterion verdict."""
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number} [{verdict}] {title}: {detail}"
    ACCEPTANCE_LINES.append((number, line))
    print(line)
    return line
