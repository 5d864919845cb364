"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Lines are echoed to the real stderr and replayed in the terminal summary so
they stay visible under pytest's capture. Every random criterion uses a
fixed seed; nothing here depends on wall-clock state except the two explicit
runtime budgets.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from quatsqrt.forms import (
    DiagonalForm,
    is_isotropic,
    isotropic_vector,
    represents,
    solve_conic,
)
from quatsqrt.hilbert import hilbert_symbol
from quatsqrt.places import REAL, Place, support_places
from quatsqrt.quaternions import QuaternionAlgebra, sqrt
from quatsqrt.rationals import is_square, squarefree_part
from quatsqrt.sqclasses import common_value
from quatsqrt.cli import run as cli_run

from conftest import acceptance_lines
from oracles import hilbert_oracle_finite, hilbert_oracle_real, ternary_zero_search


class _criterion:
    """Prints 'PASS/FAIL criterion N: label' when the block exits."""

    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        line = f"{status} criterion {self.number}: {self.label}{extra}"
        acceptance_lines.append(line)
        print(line, file=sys.__stderr__, flush=True)
        return False


def _random_fraction(rng: random.Random, num_bound: int, den_bound: int) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _random_squarefree(rng: random.Random, bound: int = 30) -> Fraction:
    while True:
        n = rng.randint(-bound, bound)
        if n != 0:
            s, _ = squarefree_part(n)
            return Fraction(s)


def _random_algebra(rng: random.Random) -> QuaternionAlgebra:
    return QuaternionAlgebra(_random_squarefree(rng), _random_squarefree(rng))


def test_criterion_1_round_trip_noncentral():
    with _criterion(1, "1000 random square round-trips across 20 algebras") as c:
        rng = random.Random(101)
        algebras = [_random_algebra(rng) for _ in range(20)]
        start = time.monotonic()
        for k in range(1000):
            algebra = algebras[k % len(algebras)]
            r = algebra.quaternion(
                *(_random_fraction(rng, 20, 20) for _ in range(4))
            )
            q = r.square()
            s = sqrt(q)
            assert s is not None, (algebra, r)
            assert s.square() == q, (algebra, r, s)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
        c.detail = f"{elapsed:.1f}s"


def test_criterion_2_round_trip_central():
    with _criterion(2, "500 pure-quaternion central round-trips, both kinds") as c:
        rng = random.Random(202)
        algebras = [_random_algebra(rng) for _ in range(24)]
        split_seen = nonsplit_seen = 0
        for k in range(500):
            algebra = algebras[k % len(algebras)]
            r = algebra.quaternion(
                0, *(_random_fraction(rng, 20, 20) for _ in range(3))
            )
            a = r.square()
            assert a.is_central
            s = sqrt(a)
            assert s is not None, (algebra, r)
            assert s.square() == a, (algebra, r, s)
            if algebra.is_split():
                split_seen += 1
            else:
                nonsplit_seen += 1
        assert split_seen > 0 and nonsplit_seen > 0
        c.detail = f"{split_seen} split, {nonsplit_seen} non-split"


def test_criterion_3_failure_soundness():
    with _criterion(3, "200 non-split central failures are provably rootless") as c:
        rng = random.Random(303)
        failures = 0
        attempts = 0
        while failures < 200:
            attempts += 1
            assert attempts < 20000, "failure cases too rare under the sampler"
            algebra = _random_algebra(rng)
            if algebra.is_split():
                continue
            a = _random_fraction(rng, 50, 50)
            if a == 0:
                continue
            root = sqrt(algebra.scalar(a))
            if root is not None:
                continue
            failures += 1
            alpha, beta = algebra.alpha, algebra.beta
            assert is_square(a) is None
            assert is_square(a * alpha) is None
            assert is_square(a * beta) is None
            assert not is_isotropic(
                DiagonalForm((a, -alpha, -beta, alpha * beta))
            ), (algebra, a)
        c.detail = f"{failures} failures in {attempts} samples"


def test_criterion_4_reciprocity_at_scale():
    with _criterion(4, "10000 reciprocity products equal +1") as c:
        rng = random.Random(404)
        start = time.monotonic()
        for _ in range(10000):
            a = Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4))
            b = Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4))
            symbols = [hilbert_symbol(a, b, v) for v in support_places((a, b))]
            assert math.prod(symbols) == 1, (a, b)
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"
        c.detail = f"{elapsed:.1f}s"


def test_criterion_5_symbol_oracle_equivalence():
    with _criterion(5, "exhaustive symbol box vs congruence oracle") as c:
        finite = [Place.finite(p) for p in (2, 3, 5, 7, 11, 13)]
        checked = 0
        for a in range(-30, 31):
            if a == 0:
                continue
            for b in range(-30, 31):
                if b == 0:
                    continue
                assert hilbert_symbol(a, b, REAL) == hilbert_oracle_real(a, b), (a, b)
                for v in finite:
                    got = hilbert_symbol(a, b, v)
                    want = hilbert_oracle_finite(a, b, v.prime)
                    assert got == want, (a, b, v.prime, got, want)
                checked += 7
        c.detail = f"{checked} symbol evaluations"


def test_criterion_6_isotropy_certificates():
    with _criterion(6, "ternary isotropy certified both ways") as c:
        classes = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10]
        isotropic_count = anisotropic_count = 0
        for entries in itertools.product(classes, repeat=3):
            form = DiagonalForm(entries)
            if is_isotropic(form):
                isotropic_count += 1
                vec = isotropic_vector(form)
                assert vec is not None, entries
                assert form(vec) == 0 and any(x != 0 for x in vec), entries
            else:
                anisotropic_count += 1
                a, b, cc = (Fraction(e) for e in entries)
                obstructed = any(
                    hilbert_symbol(-b / a, -cc / a, v) == -1
                    for v in support_places((-b / a, -cc / a))
                )
                assert obstructed, entries
                assert ternary_zero_search(form.entries, 50) is None, entries
        c.detail = f"{isotropic_count} isotropic, {anisotropic_count} anisotropic"


def test_criterion_7_conic_solver():
    with _criterion(7, "1000 random conics: exact or locally obstructed") as c:
        rng = random.Random(707)
        solved = empty = 0
        for _ in range(1000):
            alpha = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            cval = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            sol = solve_conic(alpha, cval)
            places = support_places((alpha, cval))
            if sol is None:
                empty += 1
                assert any(
                    hilbert_symbol(alpha, cval, v) == -1 for v in places
                ), (alpha, cval)
            else:
                solved += 1
                x, y = sol
                assert x * x - alpha * y * y == cval, (alpha, cval, sol)
                assert all(
                    hilbert_symbol(alpha, cval, v) == 1 for v in places
                ), (alpha, cval)
        c.detail = f"{solved} solved, {empty} empty"


def test_criterion_8_common_value_desk_cases():
    with _criterion(8, "common-value desk reproduction with certificates"):
        xi = DiagonalForm((-2, 1))
        zeta = DiagonalForm((-1, -1))
        d = common_value(xi, zeta)
        assert d == -1
        u, v = represents(xi, d)
        assert -2 * u * u + v * v == d
        u, v = represents(zeta, d)
        assert -(u * u) - v * v == d

        assert common_value(DiagonalForm((1, 1)), DiagonalForm((-1, -1))) is None

        # -x0*x1 square: xi is isotropic, z0 comes straight back
        assert common_value(DiagonalForm((1, -1)), DiagonalForm((3, 5))) == 3
        assert common_value(DiagonalForm((2, -2)), DiagonalForm((-7, 11))) == -7


# (algebra params, root coordinates): every root lies in the symmetric part
# of the box so that r and -r are both candidates; all algebras are division
# algebras, so a non-central square has no roots beyond the pair.
_TWO_ROOT_INSTANCES = [
    ((-1, -1), (1, 1, 0, 0)),
    ((-1, -1), (1, 1, 1, 1)),
    ((-1, -1), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
    ((-1, -1), (Fraction(3, 2), 1, Fraction(1, 2), 0)),
    ((2, 5), (1, 1, 0, 0)),
    ((2, 5), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0)),
    ((-1, -3), (1, 0, 1, 0)),
    ((-1, -3), (Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2))),
    ((-2, -5), (1, Fraction(1, 2), 0, Fraction(1, 2))),
    ((-1, -7), (Fraction(3, 2), 0, Fraction(1, 2), 0)),
]

_BOX = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
    Fraction(3, 2),
    Fraction(-3, 2),
    Fraction(2),
)


def test_criterion_9_two_root_boxes():
    with _criterion(9, "10 fixed non-central squares have exactly two box roots") as c:
        total_candidates = 0
        for (alpha, beta), coords in _TWO_ROOT_INSTANCES:
            algebra = QuaternionAlgebra(Fraction(alpha), Fraction(beta))
            assert not algebra.is_split()
            r = algebra.quaternion(*coords)
            q = r.square()
            assert not q.is_central
            assert all(x in _BOX for x in r.coords)
            found = set()
            for cand in itertools.product(_BOX, repeat=4):
                s = algebra.quaternion(*cand)
                total_candidates += 1
                if s.square() == q:
                    found.add(s.coords)
            assert found == {r.coords, (-r).coords}, (alpha, beta, coords, found)
            direct = sqrt(q)
            assert direct is not None and direct.coords in found
        c.detail = f"{total_candidates} candidates examined"


def test_criterion_10_cli_golden():
    with _criterion(10, "CLI goldens byte-identical with exit codes"):
        cases = [
            (
                ["sqrt", "--alpha", "-1", "--beta", "-1", "--q", "0,2,0,0"],
                0,
                '{"status":"ok","root":["1","1","0","0"],"verified":true}',
            ),
            (
                ["hilbert", "--a", "-1", "--b", "-1", "--place", "inf"],
                0,
                '{"symbol":-1}',
            ),
            (
                ["sqrt", "--alpha", "-1", "--beta", "-1", "--q", "2,0,0,0"],
                1,
                '{"status":"not_a_square"}',
            ),
        ]
        for argv, want_code, want_line in cases:
            code, out = cli_run(argv)
            assert (code, out) == (want_code, want_line), argv
            proc = subprocess.run(
                [sys.executable, "-m", "quatsqrt.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == want_code, argv
            assert proc.stdout == want_line + "\n", argv
            assert proc.stderr == ""
