"""Exact arithmetic: parsing, factorization, squarefree parts, square roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatsqrt.rationals as rationals
from quatsqrt.rationals import (
    _MR_PSI,
    Factorization,
    as_fraction,
    factor,
    format_rational,
    is_prime,
    is_square,
    parse_rational,
    squarefree_part,
)

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
).filter(lambda q: q != 0)


def near_psi(limit):
    """Integers within 10^4 of each psi_k below limit: psi_k is the least
    strong pseudoprime to the first k prime bases, where a missing
    Miller-Rabin base would first show."""
    psis = [psi for psi in _MR_PSI if psi < limit]
    return st.sampled_from(psis).flatmap(lambda psi: st.integers(max(1, psi - 10**4), psi + 10**4))


class TestParsing:
    def test_integer(self):
        assert parse_rational("42") == 42
        assert parse_rational("-7") == -7
        assert parse_rational("0") == 0

    def test_fraction_reduces(self):
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational("10/4") == Fraction(5, 2)

    @pytest.mark.parametrize(
        "bad", ["", "1/0", "a", "1.5", "1/-2", "--1", "+1", " 1", "1 ", "1//2", "2/"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(5) == "5"

    @given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**9))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_as_fraction_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestIsPrime:
    def test_small_values_match_sieve(self):
        sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-3, 50):
            assert is_prime(n) == (n in sieve)

    def test_carmichael_and_large(self):
        assert not is_prime(561)  # Carmichael
        assert not is_prime(341)
        assert is_prime(2**61 - 1)  # Mersenne
        assert not is_prime(2**61 + 1)

    @pytest.mark.parametrize(
        "psi",
        [
            2047,
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            318665857834031151167461,
        ],
    )
    def test_strong_pseudoprimes_to_the_first_k_prime_bases(self, psi):
        # psi_1..psi_12 (psi_7 = psi_8, psi_9 = psi_10 = psi_11): psi_k is the
        # smallest strong pseudoprime to the first k prime bases.
        assert not is_prime(psi)

    def test_psi_13_fails_the_fourteenth_base(self):
        # psi_13 is a strong pseudoprime to all thirteen prime bases 2..41.
        assert not is_prime(3317044064679887385961981)

    @given(st.one_of(near_psi(10**25), st.integers(-10, 10**24)))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert is_prime(n) == sympy.isprime(n)


class TestFactor:
    def test_strong_pseudoprime_factor(self):
        # psi_12 passes Miller-Rabin to all twelve prime bases 2..37.
        f = factor(4 * 318665857834031151167461)
        assert f.factors == ((2, 2), (399165290221, 1), (798330580441, 1))

    def test_contract_example(self):
        f = factor(Fraction(-5, 8))
        assert f.sign == -1
        assert f.factors == ((2, -3), (5, 1))
        assert f.value() == Fraction(-5, 8)

    def test_unit_values(self):
        assert factor(1).factors == ()
        assert factor(-1) == Factorization(-1, ())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_needs_rho_beyond_trial_division(self):
        n = 10007 * 10009  # both factors above the trial-division bound
        f = factor(n)
        assert f.factors == ((10007, 1), (10009, 1))
        f = factor(10007 * 10007)
        assert f.factors == ((10007, 2),)

    @given(nonzero_rationals)
    def test_value_round_trip(self, q):
        f = factor(q)
        assert f.value() == q
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(e != 0 for _, e in f.factors)

    # Not near psi_12 and psi_13: splitting two 12- or 13-digit primes takes
    # Pollard rho about a second; the primality they rest on is tested above.
    @given(st.one_of(near_psi(10**20), st.integers(1, 10**18)))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert dict(factor(n).factors) == sympy.factorint(n)

    def test_proven_primes_not_tested_again(self, monkeypatch):
        calls = []
        original = rationals.is_prime
        monkeypatch.setattr(rationals, "is_prime", lambda n: calls.append(n) or original(n))
        # trial division proves the small primes; rho's cofactors are tested once
        assert factor(30030 * 10007 * 10009).factors == (
            (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (10007, 1), (10009, 1)
        )
        assert sorted(calls) == [10007, 10009, 10007 * 10009]

    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(0, ())
        with pytest.raises(ValueError):
            Factorization(1, ((3, 1), (2, 1)))  # not increasing
        with pytest.raises(ValueError):
            Factorization(1, ((2, 0),))  # zero exponent
        with pytest.raises(ValueError):
            Factorization(1, ((4, 1),))  # composite


class TestSquarefreePart:
    def test_contract_examples(self):
        assert squarefree_part(Fraction(5, 8)) == (10, Fraction(1, 4))
        assert squarefree_part(Fraction(-4, 9)) == (-1, Fraction(2, 3))
        assert squarefree_part(12) == (3, 2)
        assert squarefree_part(1) == (1, 1)
        assert squarefree_part(-1) == (-1, 1)

    @given(nonzero_rationals)
    def test_decomposition(self, q):
        s, t = squarefree_part(q)
        assert s * t * t == q
        assert t > 0
        assert (s > 0) == (q > 0)
        # s is a squarefree integer
        assert all(e == 1 for _, e in factor(s).factors) or abs(s) == 1


class TestIsSquare:
    def test_contract_examples(self):
        assert is_square(Fraction(49, 4)) == Fraction(7, 2)
        assert is_square(0) == 0
        assert is_square(8) is None
        assert is_square(-4) is None
        assert is_square(Fraction(1, 9)) == Fraction(1, 3)

    @given(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4))
    def test_recognizes_squares(self, q):
        assert is_square(q * q) == abs(q)

    @given(nonzero_rationals)
    def test_result_squares_back(self, q):
        r = is_square(q)
        if r is not None:
            assert r * r == q
            assert r >= 0
        else:
            s, _ = squarefree_part(q)
            assert s != 1
