"""Shared pytest plumbing: a thread-leak guard, and one summary line per
acceptance criterion."""

import re
import threading

import pytest

_CRITERION_DETAILS: dict[int, str] = {}


def record_criterion(number: int, detail: str) -> None:
    """Stash measured values so the terminal summary can show them."""
    _CRITERION_DETAILS[number] = detail


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads running than it found."""
    before = set(threading.enumerate())
    yield
    after = threading.enumerate()
    if len(after) > len(before):
        names = sorted(t.name for t in after if t not in before)
        pytest.fail(f"test left {len(after) - len(before)} more thread(s) running: {names}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            found = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if found:
                results[int(found.group(1))] = label
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        line = f"criterion {number:2d}: {results[number]}"
        detail = _CRITERION_DETAILS.get(number)
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
