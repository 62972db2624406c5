"""Shared pytest plumbing: a thread-leak guard, one summary line per
acceptance criterion, and a node reducer that collects a whole pass."""

import re
import threading

import numpy as np
import pytest

_CRITERION_DETAILS: dict[int, str] = {}


def record_criterion(number: int, detail: str) -> None:
    """Stash measured values so the terminal summary can show them."""
    _CRITERION_DETAILS[number] = detail


class Collector:
    """A node reducer that copies every node and step a backward pass hands
    it into whole stores, one per problem: ``y[k]`` (N + 1, n, m), and
    ``z[k]`` (N, n, m, d) and ``u[k]`` (N, n, J, m).  It reads integrands
    unless built with ``integrands=False``; a problem whose integrands the
    pass did not fit has None in ``z`` and ``u``."""

    def __init__(self, integrands=True):
        self.reads_integrands = integrands
        self.y = self.z = self.u = None

    def __call__(self, i, ys, zs, us):
        if self.y is None:
            self.y = _stacks(i + 1, ys)
        _copy_into(self.y, i, ys)
        if zs is not None:
            if self.z is None:
                self.z, self.u = _stacks(i + 1, zs), _stacks(i + 1, us)
            _copy_into(self.z, i, zs)
            _copy_into(self.u, i, us)


def _stacks(length, blocks):
    return [None if b is None else np.empty((length, *b.shape), b.dtype) for b in blocks]


def _copy_into(stacks, i, blocks):
    for stack, block in zip(stacks, blocks):
        if stack is not None:
            stack[i] = block


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
