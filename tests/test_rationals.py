"""Exact arithmetic: parsing, factorization, squarefree parts, square roots."""

import math
import random
import subprocess
import sys
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
    is_prime,
    is_square,
    parse_rational,
    squarefree_part,
)

from oracles import trial_division

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

    @given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**9))
    def test_round_trip(self, q):
        # The CLI prints a rational as str(q): "n", or "n/d" in lowest terms.
        assert parse_rational(str(q)) == q

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

    @pytest.mark.parametrize("n", [7.0, Fraction(7)])
    def test_non_int_rejected(self, n):
        with pytest.raises(TypeError):
            is_prime(n)

    def test_psi_13_fails_the_lucas_step(self):
        # psi_13 is a strong pseudoprime to all thirteen prime bases 2..41;
        # from psi_13 on, is_prime is BPSW, and its Lucas step rejects it.
        psi_13 = 3317044064679887385961981
        assert pow(2, psi_13 - 1, psi_13) == 1
        assert not rationals._strong_lucas(psi_13)
        assert not is_prime(psi_13)

    @pytest.mark.parametrize("n", [5459, 5777, 10877])
    def test_strong_lucas_pseudoprimes_fail_is_prime(self, n):
        # The three smallest strong Lucas pseudoprimes (Selfridge's parameters).
        assert rationals._strong_lucas(n)
        assert not is_prime(n)

    def test_lucas_step_only_from_psi_13_on(self, monkeypatch):
        calls = []
        lucas = rationals._strong_lucas

        def counting(n):
            calls.append(n)
            return lucas(n)

        monkeypatch.setattr(rationals, "_strong_lucas", counting)
        m89, m107 = 2**89 - 1, 2**107 - 1  # Mersenne primes, both past psi_13
        assert is_prime(m89) and is_prime(m107) and not is_prime(m89 * m107)
        assert is_prime(2**61 - 1) and not is_prime(_MR_PSI[-2])
        assert calls == [m89, m107]  # m89*m107 already fails base 2

    @given(st.one_of(st.integers(3, 10**6), st.integers(10**20, 10**40)).map(lambda n: n | 1))
    @settings(max_examples=300, deadline=None)
    def test_strong_lucas_matches_sympy(self, n):
        primetest = pytest.importorskip("sympy.ntheory.primetest")
        assert rationals._strong_lucas(n) == primetest.is_strong_lucas_prp(n)

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
        n = 10007 * 10009  # both factors past the primes to 43 divided out
        f = factor(n)
        assert f.factors == ((10007, 1), (10009, 1))
        f = factor(10007 * 10007)
        assert f.factors == ((10007, 2),)

    def test_rho_retries_with_the_next_constant(self):
        # With c = 1 the cycle closes on gcd = n itself, so the factor comes
        # from the c += 1 retry.
        n = 10007 * 10099
        assert rationals._pollard_rho(n) in (10007, 10099)
        assert factor(n).factors == ((10007, 1), (10099, 1))

    def test_prime_powers_go_to_rho(self):
        # Primes from 47 to 10^4 are stripped by gcds with their block products.
        for p in filter(is_prime, range(47, 2000)):
            assert factor(p**2).factors == ((p, 2),)
            assert factor(p**3).factors == ((p, 3),)

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
        # Dividing out the primes to 43 proves them. Rho splits 10007*10009 into
        # parts with no prime factor below 10^4, so each part below 10^8 is prime:
        # one is_prime call, on the composite.
        assert factor(30030 * 10007 * 10009).factors == (
            (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (10007, 1), (10009, 1)
        )
        assert calls == [10007 * 10009]

    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(0, ())
        with pytest.raises(ValueError):
            Factorization(1, ((3, 1), (2, 1)))  # not increasing
        with pytest.raises(ValueError):
            Factorization(1, ((2, 0),))  # zero exponent
        with pytest.raises(ValueError):
            Factorization(1, ((4, 1),))  # composite


PRIMES_47_TO_10K = [p for p in range(48, 10**4) if trial_division(p) == {p: 1}]


class TestFactorSmallPrimes:
    """The primes in (47, 10^4) are stripped by gcds against block products,
    and the factorizations match trial division."""

    @given(st.lists(st.sampled_from(PRIMES_47_TO_10K), min_size=1, max_size=5),
           st.integers(1, 30030))
    def test_products_of_primes_below_ten_thousand(self, primes, small):
        for n in (math.prod(primes) * small, math.prod(primes) ** 2):
            assert rationals._factor_int(n) == trial_division(n)

    @given(st.integers(10**6, 10**11 - 1))
    @settings(max_examples=60, deadline=None)
    def test_seven_to_eleven_digits(self, n):
        assert rationals._factor_int(n) == trial_division(n)

    def test_cofactor_below_ten_to_the_eight_is_not_tested(self, monkeypatch):
        calls = []
        original = rationals.is_prime
        monkeypatch.setattr(rationals, "is_prime", lambda n: calls.append(n) or original(n))
        assert rationals._factor_int(47 * 9973 * 99990001) == {47: 1, 9973: 1, 99990001: 1}
        assert calls == []

    def test_prime_table_is_built_on_first_use(self):
        code = ("import quatsqrt, quatsqrt.cli; "
                "print(quatsqrt.rationals._small_primes.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "0\n")


# The blocks of 32 primes from 47 on that one gcd against their running product reads.
BLOCKS = [[47, *PRIMES_47_TO_10K][i:i + 32] for i in range(0, len(PRIMES_47_TO_10K) + 1, 32)]


def _random_prime(rng, low, high):
    while True:
        p = rng.randrange(low, high)
        if trial_division(p) == {p: 1}:
            return p


class TestFactorGcdSizedToTheInput:
    """Below 10^8 the gcd reads the primes up to the block holding sqrt(n):
    the factorizations at the blocks' edges and around 10^8 match trial division."""

    def test_every_n_below_two_hundred_thousand(self):
        limit = 2 * 10**5
        spf = list(range(limit))  # smallest prime factor, by a sieve
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for m in range(p * p, limit, p):
                    if spf[m] == m:
                        spf[m] = p
        for n in range(1, limit):
            expected, m = {}, n
            while m > 1:
                expected[spf[m]] = expected.get(spf[m], 0) + 1
                m //= spf[m]
            assert rationals._factor_int(n) == expected, n

    def test_block_edges(self):
        # p, the last prime of a block, and q, the first of the next (10007 past the last).
        firsts = [block[0] for block in BLOCKS[1:]] + [10007]
        for p, q in zip((block[-1] for block in BLOCKS), firsts):
            for n, expected in ((p * p, {p: 2}), (p * q, {p: 1, q: 1}), (q * q, {q: 2}),
                                (p * q - 2, None), (p * p * q, {p: 2, q: 1})):
                assert rationals._factor_int(n) == (expected or trial_division(n)), n

    def test_from_9973_squared_to_ten_to_the_eight(self):
        rng, low = random.Random(9973), 9973**2
        ns = [*range(low, low + 300), *range(10**8 - 300, 10**8),
              *(rng.randrange(low, 10**8) for _ in range(300))]
        for n in ns:
            assert rationals._factor_int(n) == trial_division(n), n

    def test_semiprimes_from_ten_to_the_eight_to_ten_to_the_eighteen(self):
        rng = random.Random(10**8)
        for _ in range(40):
            p, q = (_random_prime(rng, 10**4, 10**9) for _ in range(2))
            assert 10**8 <= p * q <= 10**18
            assert rationals._factor_int(p * q) == ({p: 2} if p == q else {p: 1, q: 1})

    @pytest.mark.parametrize("d", [1, 2, 9, 1001, 9973**2, 99990001])
    def test_factor_of_fractions(self, d):
        rng = random.Random(d)
        for _ in range(200):
            n = rng.choice((-1, 1)) * rng.randrange(1, 10**9)
            q = Fraction(n, d)
            exps = trial_division(abs(q.numerator))
            exps.update((p, -e) for p, e in trial_division(q.denominator).items())
            assert factor(q) == Factorization(1 if n > 0 else -1, tuple(sorted(exps.items())))


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
