"""Shared test plumbing.

The end-to-end suite in test_acceptance.py records one PASS/FAIL line per
criterion (see acceptance_log.py); the terminal-summary hook below repeats
those lines after the run so they are visible even when pytest captures
test output.
"""

from acceptance_log import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
