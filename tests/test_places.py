"""Places and local square tests, checked against residue scans."""

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
    parse_place,
    support_places,
)
from quatsqrt.rationals import factor

from oracles import local_square_oracle, trial_division

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

nonzero_rationals = st.fractions(
    min_value=-500, max_value=500, max_denominator=100
).filter(lambda q: q != 0)


class TestPlace:
    def test_real(self):
        assert REAL.is_real
        assert REAL.prime is None
        assert str(REAL) == "inf"
        assert Place() == REAL

    def test_finite(self):
        p = Place(7)
        assert not p.is_real
        assert p.prime == 7
        assert str(p) == "7"

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            Place(4)
        with pytest.raises(ValueError):
            Place(15)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Place(5.0)

    def test_parse(self):
        assert parse_place("inf") == REAL
        assert parse_place("13") == Place(13)
        for bad in ("4", "abc", "-3", "2.0", ""):
            with pytest.raises(ValueError):
                parse_place(bad)


def valuation(q, p):
    """The README's replacement for the deleted `valuation`, read off `factor`."""
    return dict(factor(q).factors).get(p, 0)


class TestValuation:
    """Valuations read off `factor`, and the check on the prime that the local
    tests strip from a value: a `Place` holds only a prime."""

    def test_examples(self):
        assert valuation(Fraction(5, 9), 3) == -2
        assert valuation(12, 2) == 2
        assert valuation(12, 3) == 1
        assert valuation(12, 5) == 0
        assert valuation(Fraction(-8, 3), 2) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            valuation(0, 2)

    def test_float_p_rejected(self):
        with pytest.raises(TypeError):
            Place(2.5)

    @pytest.mark.parametrize("p", [1, -1, 0, -2])
    def test_p_below_two_rejected(self, p):
        # p = +-1 divides every integer, so stripping it would never end.
        with pytest.raises(ValueError):
            Place(p)

    @pytest.mark.parametrize("p", [4, 6, 9, 1001])
    def test_composite_p_rejected(self, p):
        # Stripping 4 from 16 would read 2, and 6 from 1/8 would read 0: neither is a valuation.
        with pytest.raises(ValueError, match=f"not a prime: {p}"):
            Place(p)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_unit_part(self, q, p):
        v = valuation(q, p)
        u = q / Fraction(p) ** v
        assert valuation(u, p) == 0
        assert u.numerator % p != 0 and u.denominator % p != 0

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_additive(self, a, b, p):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


class TestIsLocalSquare:
    def test_real(self):
        assert is_local_square(2, REAL)
        assert not is_local_square(-2, REAL)

    def test_known_values(self):
        two = Place(2)
        assert is_local_square(17, two)  # 17 = 1 mod 8
        assert not is_local_square(3, two)
        assert not is_local_square(2, two)
        assert is_local_square(4, two)
        assert is_local_square(-1, Place(5))  # 5 = 1 mod 4
        assert not is_local_square(-1, Place(7))
        assert is_local_square(Fraction(1, 2), two) == is_local_square(2, two)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_local_square(0, REAL)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_against_residue_scan(self, q, p):
        assert is_local_square(q, Place(p)) == local_square_oracle(q, p)

    def test_exhaustive_small_integers(self):
        for p in SMALL_PRIMES:
            v = Place(p)
            for n in range(-200, 201):
                if n == 0:
                    continue
                assert is_local_square(n, v) == local_square_oracle(Fraction(n), p), (n, p)

    @pytest.mark.parametrize("p", SMALL_PRIMES + (None,))
    def test_integer_kernel_against_residue_scan(self, p):
        # q = p^k * w/s for valuations k in -6..6, every unit class w mod 16 (p = 2) or
        # mod p, and unit denominators s; u = num(q)*den(q) is in q's square class.
        # At the real place (p None) the oracle is the sign, over powers of 3.
        v, base = (REAL, 3) if p is None else (Place(p), p)
        units = [w for w in range(-16, 17) if w % base]
        for k in range(-6, 7):
            for w in units:
                for s in (1, base + 1, 4 * base + 1):
                    q = Fraction(base) ** k * Fraction(w, s)
                    u = q.numerator * q.denominator
                    expected = q > 0 if p is None else local_square_oracle(q, p)
                    assert places._local_square(u, v) == expected, (q, p)
                    assert is_local_square(q, v) == expected, (q, p)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES + (None,)))
    def test_public_test_reads_the_integer_kernel(self, q, p):
        v = REAL if p is None else Place(p)
        assert is_local_square(q, v) == places._local_square(q.numerator * q.denominator, v)

    @given(nonzero_rationals, st.sampled_from(SMALL_PRIMES))
    def test_squares_are_squares(self, q, p):
        assert is_local_square(q * q, Place(p))
        assert is_local_square(q * q, REAL)


class TestPrimes:
    def test_iter_matches_known_list(self):
        import itertools

        first = list(itertools.islice(iter_primes(), 15))
        assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    def test_iter_past_the_prime_table(self):
        import itertools

        # 1229 primes lie below 10^4; the next ones come from is_prime.
        around = list(itertools.islice(iter_primes(), 1225, 1235))
        assert around == [p for p in range(9940, 10100) if local_is_prime(p)][:10]


class TestSupportPlaces:
    def test_always_has_real_and_two(self):
        places = support_places([Fraction(9)])
        assert places == [REAL, Place(2)]  # 9 has even valuation everywhere

    def test_odd_valuation_primes_present(self):
        places = support_places([Fraction(3, 5), Fraction(7)])
        assert places == [
            REAL,
            Place(2),
            Place(3),
            Place(5),
            Place(7),
        ]

    def test_primes_from_factor_not_tested_again(self, monkeypatch):
        expected = [REAL] + [Place(p) for p in (2, 3, 5, 7)]
        calls = []
        monkeypatch.setattr(places, "is_prime", lambda n: calls.append(n) or True)
        assert support_places([Fraction(3, 5), Fraction(7)]) == expected
        assert calls == []
        # The public constructors still test
        Place(11)
        parse_place("13")
        assert calls == [11, 13]

    def test_factors_each_value_once(self, factor_calls):
        values = [Fraction(3, 5), Fraction(7), Fraction(-12), Fraction(1, 49)]
        support_places(values)
        assert factor_calls == values


def local_is_prime(n):
    return trial_division(n) == {n: 1}
