"""The value-class contract: the package's six immutable classes compare,
hash, print, copy and refuse mutation by their fields, and importing the
package loads neither `dataclasses` nor `inspect`."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from quatsqrt import (
    DiagonalForm,
    Factorization,
    GF2System,
    Place,
    Quaternion,
    QuaternionAlgebra,
)

F = Fraction
ALGEBRA_REPR = "QuaternionAlgebra(alpha=Fraction(-1, 1), beta=Fraction(3, 2))"

# (build, field names, field values, repr)
CASES = {
    "Factorization": (
        lambda: Factorization(-1, ((2, 2), (3, 1), (5, -1), (7, -1))),
        ("sign", "factors"),
        (-1, ((2, 2), (3, 1), (5, -1), (7, -1))),
        "Factorization(sign=-1, factors=((2, 2), (3, 1), (5, -1), (7, -1)))",
    ),
    "Place": (lambda: Place(3), ("prime",), (3,), "Place(prime=3)"),
    "Place-real": (lambda: Place(), ("prime",), (None,), "Place(prime=None)"),
    "DiagonalForm": (
        lambda: DiagonalForm((1, F(-2, 3))),
        ("entries",),
        ((F(1), F(-2, 3)),),
        "DiagonalForm(entries=(Fraction(1, 1), Fraction(-2, 3)))",
    ),
    "GF2System": (
        lambda: GF2System((1, 3), (0, 1), 2),
        ("rows", "rhs", "ncols"),
        ((1, 3), (0, 1), 2),
        "GF2System(rows=(1, 3), rhs=(0, 1), ncols=2)",
    ),
    "QuaternionAlgebra": (
        lambda: QuaternionAlgebra(-1, F(3, 2)),
        ("alpha", "beta"),
        (F(-1), F(3, 2)),
        ALGEBRA_REPR,
    ),
    "Quaternion": (
        lambda: QuaternionAlgebra(-1, F(3, 2)).quaternion(1, F(1, 2), 0, -3),
        ("algebra", "q0", "q1", "q2", "q3"),
        (QuaternionAlgebra(-1, F(3, 2)), F(1), F(1, 2), F(0), F(-3)),
        f"Quaternion(algebra={ALGEBRA_REPR}, q0=Fraction(1, 1), q1=Fraction(1, 2), "
        "q2=Fraction(0, 1), q3=Fraction(-3, 1))",
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_fields_equality_and_hash(case):
    build, names, values, _ = case
    x, y = build(), build()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(values)
    assert tuple(getattr(x, name) for name in names) == values
    assert type(x).__match_args__ == names


def test_other_classes_never_equal(case):
    build, names, values, _ = case
    x = build()
    twin = type("Twin", (), dict(zip(names, values)))()
    assert x.__eq__(twin) is NotImplemented and x != twin
    assert x.__eq__(values) is NotImplemented and x != values


def test_fields_cannot_be_assigned_or_deleted(case):
    build, names, values, _ = case
    x = build()
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, name) for name in names) == values


def test_repr(case):
    build, _, _, shown = case
    assert repr(build()) == shown


def test_copies_and_pickles_are_equal(case):
    x = case[0]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)


def test_lists_handed_in_are_stored_as_tuples():
    # The value hashes, equals the one built from tuples, and changing the lists
    # afterwards, which would also bypass validation, does not reach it.
    pair, rows, rhs = [2, 1], [1], [0]
    factors = [pair]
    built = [(Factorization(1, factors), Factorization(1, ((2, 1),))),
             (GF2System(rows, rhs, 1), GF2System((1,), (0,), 1))]
    pair[1] = 0
    factors.append((4, 1))
    rows.append(8)
    rhs.append(2)
    for value, expected in built:
        assert value == expected and hash(value) == hash(expected)
        assert repr(value) == repr(expected)


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; bare = set(sys.modules); import quatsqrt; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    added = set(proc.stdout.split())
    assert "quatsqrt" in added
    assert not added & {"dataclasses", "inspect"}
