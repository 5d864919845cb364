"""Hilbert symbols against the congruence oracle, plus algebraic identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsqrt.forms import DiagonalForm, _isotropic_at
from quatsqrt.hilbert import hasse_invariant, hilbert_symbol
from quatsqrt.places import REAL, Place, _local_classes, is_local_square, support_places
from quatsqrt.rationals import squarefree_part

from oracles import hilbert_oracle_finite, hilbert_oracle_real, local_square_oracle

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PLACES = (REAL,) + tuple(Place(p) for p in SMALL_PRIMES)

nonzero_ints = st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0)
nonzero_rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).filter(lambda q: q != 0)


class TestKnownValues:
    def test_classics(self):
        two = Place(2)
        assert hilbert_symbol(-1, -1, REAL) == -1
        assert hilbert_symbol(-1, -1, two) == -1
        assert hilbert_symbol(-1, -1, Place(3)) == 1
        assert hilbert_symbol(2, 3, two) == -1
        assert hilbert_symbol(2, 3, Place(3)) == -1
        assert hilbert_symbol(2, 3, Place(5)) == 1
        assert hilbert_symbol(1, 1, REAL) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 1, REAL)
        with pytest.raises(ValueError):
            hilbert_symbol(1, 0, REAL)

    def test_factors_each_argument_once(self, factor_calls):
        # A symbol at one place reads each argument's class there: no factoring.
        hilbert_symbol(Fraction(-15, 7), Fraction(9, 22), Place(7))
        assert factor_calls == []

    def test_square_class_invariance(self):
        v = Place(3)
        assert hilbert_symbol(Fraction(8, 9), 15, v) == hilbert_symbol(2, 15, v)
        assert hilbert_symbol(Fraction(-1, 2), 5, v) == hilbert_symbol(-2, 5, v)


class TestAgainstOracle:
    def test_moderate_box(self):
        # The acceptance suite runs the full |a|,|b| <= 30 box; keep a fast slice here.
        for a in range(-12, 13):
            for b in range(-12, 13):
                if a == 0 or b == 0:
                    continue
                assert hilbert_symbol(a, b, REAL) == hilbert_oracle_real(a, b), (a, b)
                for p in (2, 3, 5):
                    got = hilbert_symbol(a, b, Place(p))
                    want = hilbert_oracle_finite(a, b, p)
                    assert got == want, (a, b, p)

    @given(nonzero_ints, nonzero_ints, st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=60)
    def test_random_against_oracle(self, a, b, p):
        assert hilbert_symbol(a, b, Place(p)) == hilbert_oracle_finite(a, b, p)


class TestIdentities:
    @given(nonzero_rationals, nonzero_rationals, st.sampled_from(PLACES))
    def test_symmetry_and_values(self, a, b, v):
        s = hilbert_symbol(a, b, v)
        assert s in (-1, 1)
        assert s == hilbert_symbol(b, a, v)
        assert s * s == 1  # the symbol is its own inverse

    @given(
        nonzero_rationals, nonzero_rationals, nonzero_rationals, st.sampled_from(PLACES)
    )
    def test_bimultiplicative(self, a, b, c, v):
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(
            b, c, v
        )

    @given(nonzero_rationals, st.sampled_from(PLACES))
    def test_norm_identities(self, a, v):
        assert hilbert_symbol(a, -a, v) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 1
        assert hilbert_symbol(a, a * a, v) == 1


class TestHasseInvariant:
    def test_low_dimensions(self):
        assert hasse_invariant([], REAL) == 1
        assert hasse_invariant([Fraction(-7)], Place(2)) == 1

    def test_matches_pair_product(self):
        entries = [Fraction(2), Fraction(-3), Fraction(5, 7)]
        for v in PLACES:
            expected = (
                hilbert_symbol(entries[0], entries[1], v)
                * hilbert_symbol(entries[0], entries[2], v)
                * hilbert_symbol(entries[1], entries[2], v)
            )
            assert hasse_invariant(entries, v) == expected

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            hasse_invariant([1, 0], REAL)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_factors_each_entry_once(self, n, factor_calls):
        entries = [Fraction(-3, 4), Fraction(10), Fraction(7, 3), Fraction(-2), Fraction(9)][:n]
        hasse_invariant(entries, Place(3))
        assert factor_calls == []


class TestOnePlace:
    # N = 1000000000000037 * 1000000000000091: factoring it is out of reach
    # of Pollard rho in seconds, but one place reads only its class there.
    N = 1000000000000037 * 1000000000000091

    @pytest.mark.parametrize("b, p", [(5, 3), (5, 5), (7, 7), (3, 2), (-1, 2)])
    def test_large_semiprime_at_one_place(self, b, p):
        v = Place(p)
        symbol = hilbert_symbol(self.N, b, v)
        assert symbol == hilbert_oracle_finite(self.N, b, p)
        assert hasse_invariant([self.N, b], v) == symbol
        assert is_local_square(self.N, v) == local_square_oracle(Fraction(self.N), p)
        # <a, b, c> is isotropic at v iff z^2 = (-a/c)x^2 + (-b/c)y^2 is, iff (-ac, -bc)_v = 1.
        isotropic = hilbert_oracle_finite(7 * self.N, 7 * b, p) == 1
        form = DiagonalForm((self.N, b, -7))
        assert _isotropic_at(_local_classes(form, v), v) is isotropic

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: hilbert_symbol(2, 3, 5), id="hilbert_symbol"),
            pytest.param(lambda: is_local_square(2, 5), id="is_local_square"),
            pytest.param(lambda: hasse_invariant([1, 2, 3], 5), id="hasse_invariant"),
            pytest.param(lambda: hasse_invariant([], 5), id="hasse_invariant-no-entries"),
        ],
    )
    def test_place_must_be_a_place(self, call):
        with pytest.raises(TypeError, match="expected a Place"):
            call()


def symbol_product(a, b):
    """(a, b)_v over the real place, 2 and the primes of odd valuation in a or b:
    every other symbol is +1, so the product formula says this is +1."""
    return math.prod(hilbert_symbol(a, b, v) for v in support_places((a, b)))


class TestReciprocity:
    def test_examples(self):
        assert symbol_product(2, 3) == 1
        assert symbol_product(-1, -1) == 1
        assert symbol_product(Fraction(-15, 7), Fraction(9, 22)) == 1

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=200)
    def test_random(self, a, b):
        assert symbol_product(a, b) == 1

    def test_product_really_needs_every_place(self):
        # (2,3) is -1 at 2 and 3 and +1 elsewhere; dropping a place breaks it.
        sa, _ = squarefree_part(2)
        sb, _ = squarefree_part(3)
        symbols = [hilbert_symbol(2, 3, v) for v in PLACES]
        assert symbols.count(-1) == 2
