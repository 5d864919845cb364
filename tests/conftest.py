"""Shared pytest wiring for the suite.

The acceptance tests record one line per criterion here; the hook below
replays them after the run so they stay visible despite output capture.
The factor_calls fixture records every argument handed to `factor`.
"""

import sys
from fractions import Fraction

import pytest

import quatsqrt.rationals as rationals

acceptance_lines = []


@pytest.fixture
def factor_calls(monkeypatch):
    """The arguments of every `factor` call, through every module's binding."""
    calls = []
    original = rationals.factor

    def counting(q):
        calls.append(Fraction(q))
        return original(q)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quatsqrt" and getattr(module, "factor", None) is original:
            monkeypatch.setattr(module, "factor", counting)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
