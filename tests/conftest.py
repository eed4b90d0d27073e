import sys

import pytest

from buildiff import tensor as T


@pytest.fixture
def recorded_ops(monkeypatch):
    """Counts the tape entries recorded while a test runs: ``recorded_ops()``
    is the count so far."""
    count = 0
    record = T.Tape.record

    def counting(self, *args):
        nonlocal count
        count += 1
        return record(self, *args)

    monkeypatch.setattr(T.Tape, "record", counting)
    return lambda: count


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the test summary so
    they survive output capture."""
    lines = []
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(mod, "VERDICT_LINES", [])
            if lines:
                break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
