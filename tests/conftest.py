"""Shared pytest wiring for the suite.

The acceptance tests record one line per criterion here; the hook below
replays them after the run so they stay visible despite output capture.
The factor_calls fixture records every argument handed to `factor`, and
square_calls every quaternion that is squared: the receivers of
`Quaternion.square` and of the integer re-squaring check `_squares_to`, and
the roots that `quaternions._checked_root` checks on integer pairs.
"""

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quatsqrt.quaternions as quaternions
import quatsqrt.rationals as rationals
from quatsqrt.quaternions import Quaternion

acceptance_lines = []

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """Let `python -m quatsqrt.cli` subprocesses import this checkout's package,
    as pyproject's `pythonpath` does for the suite itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield


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


@pytest.fixture
def square_calls(monkeypatch):
    """The receivers of every `Quaternion.square` and `Quaternion._squares_to` call,
    and the root of every `_checked_root` call."""
    calls = []

    def counting(method):
        def wrapper(q, *args):
            calls.append(q)
            return method(q, *args)
        return wrapper

    def checked(*args):
        root = checked_root(*args)
        calls.append(root)
        return root

    for name in ("square", "_squares_to"):
        monkeypatch.setattr(Quaternion, name, counting(getattr(Quaternion, name)))
    checked_root = quaternions._checked_root
    monkeypatch.setattr(quaternions, "_checked_root", checked)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
