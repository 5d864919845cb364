"""Places, valuations, and local square tests, checked against residue scans."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatsqrt.places as places
from quatsqrt.places import (
    REAL,
    Place,
    is_local_square,
    iter_primes,
    nth_prime,
    parse_place,
    sign_at_real,
    support_places,
    valuation,
)

from oracles import local_square_oracle

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

nonzero_rationals = st.fractions(
    min_value=-500, max_value=500, max_denominator=100
).filter(lambda q: q != 0)


class TestPlace:
    def test_real(self):
        assert REAL.is_real
        assert REAL.prime is None
        assert str(REAL) == "inf"
        assert Place.real() == REAL

    def test_finite(self):
        p = Place.finite(7)
        assert not p.is_real
        assert p.prime == 7
        assert str(p) == "7"

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            Place.finite(4)
        with pytest.raises(ValueError):
            Place(15)

    def test_parse(self):
        assert parse_place("inf") == REAL
        assert parse_place("13") == Place.finite(13)
        for bad in ("4", "abc", "-3", "2.0", ""):
            with pytest.raises(ValueError):
                parse_place(bad)


class TestValuation:
    def test_examples(self):
        assert valuation(Fraction(5, 9), 3) == -2
        assert valuation(12, 2) == 2
        assert valuation(12, 3) == 1
        assert valuation(12, 5) == 0
        assert valuation(Fraction(-8, 3), Place.finite(2)) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            valuation(0, 2)
        with pytest.raises(ValueError):
            valuation(1, REAL)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_unit_part(self, q, p):
        v = valuation(q, p)
        u = q / Fraction(p) ** v
        assert valuation(u, p) == 0
        assert u.numerator % p != 0 and u.denominator % p != 0

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_additive(self, a, b, p):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


class TestSignAtReal:
    def test_basic(self):
        assert sign_at_real(Fraction(3, 7)) == 1
        assert sign_at_real(-2) == -1
        with pytest.raises(ValueError):
            sign_at_real(0)


class TestIsLocalSquare:
    def test_real(self):
        assert is_local_square(2, REAL)
        assert not is_local_square(-2, REAL)

    def test_known_values(self):
        two = Place.finite(2)
        assert is_local_square(17, two)  # 17 = 1 mod 8
        assert not is_local_square(3, two)
        assert not is_local_square(2, two)
        assert is_local_square(4, two)
        assert is_local_square(-1, Place.finite(5))  # 5 = 1 mod 4
        assert not is_local_square(-1, Place.finite(7))
        assert is_local_square(Fraction(1, 2), two) == is_local_square(2, two)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_local_square(0, REAL)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_against_residue_scan(self, q, p):
        assert is_local_square(q, Place.finite(p)) == local_square_oracle(q, p)

    def test_exhaustive_small_integers(self):
        for p in SMALL_PRIMES:
            v = Place.finite(p)
            for n in range(-200, 201):
                if n == 0:
                    continue
                assert is_local_square(n, v) == local_square_oracle(Fraction(n), p), (n, p)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_squares_are_squares(self, q, p):
        assert is_local_square(q * q, Place.finite(p))
        assert is_local_square(q * q, REAL)


class TestPrimes:
    def test_nth(self):
        assert nth_prime(1) == 2
        assert nth_prime(4) == 7
        assert nth_prime(10) == 29
        with pytest.raises(ValueError):
            nth_prime(0)

    def test_iter_matches_known_list(self):
        import itertools

        first = list(itertools.islice(iter_primes(), 15))
        assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestSupportPlaces:
    def test_always_has_real_and_two(self):
        places = support_places([Fraction(9)])
        assert places == [REAL, Place.finite(2)]  # 9 has even valuation everywhere

    def test_odd_valuation_primes_present(self):
        places = support_places([Fraction(3, 5), Fraction(7)])
        assert places == [
            REAL,
            Place.finite(2),
            Place.finite(3),
            Place.finite(5),
            Place.finite(7),
        ]

    def test_primes_from_factor_not_tested_again(self, monkeypatch):
        expected = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7)]
        calls = []
        monkeypatch.setattr(places, "is_prime", lambda n: calls.append(n) or True)
        assert support_places([Fraction(3, 5), Fraction(7)]) == expected
        assert calls == []
        # The public constructors still test
        Place.finite(11)
        parse_place("13")
        assert calls == [11, 13]
