"""Square classes, GF(2) systems, and the common-represented-value search."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsqrt.forms import DiagonalForm, is_isotropic, represents
from quatsqrt.rationals import factor, is_square
from quatsqrt.sqclasses import (
    GF2System,
    SquareClass,
    _common_value,
    common_value,
    singular_basis,
    solve_gf2,
)

nonzero_small = st.integers(min_value=-15, max_value=15).filter(lambda n: n != 0)


class TestSquareClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            SquareClass(0)
        with pytest.raises(ValueError):
            SquareClass(12)
        SquareClass(-30)  # fine

    def test_of(self):
        assert SquareClass.of(Fraction(8, 9)) == SquareClass(2)
        assert SquareClass.of(-4) == SquareClass(-1)
        assert SquareClass.of(Fraction(1, 2)) == SquareClass(2)

    def test_group_law(self):
        assert SquareClass(2) * SquareClass(6) == SquareClass(3)
        assert SquareClass(-1) * SquareClass(-1) == SquareClass(1)

    def test_singular(self):
        assert SquareClass(6).is_singular_for((2, 3))
        assert not SquareClass(6).is_singular_for((2, 5))
        assert SquareClass(-1).is_singular_for(())


class TestSingularBasis:
    def test_structure(self):
        basis = singular_basis((5, 2))
        assert basis.primes == (2, 5)
        assert basis.classes == (SquareClass(-1), SquareClass(2), SquareClass(5))
        assert basis.dim == 3

    def test_empty(self):
        assert singular_basis(()).classes == (SquareClass(-1),)

    def test_errors(self):
        with pytest.raises(ValueError):
            singular_basis((2, 2))
        with pytest.raises(ValueError):
            singular_basis((4,))

    def test_spanned(self):
        basis = singular_basis((2, 5))
        assert basis.spanned((1, 0, 1)) == -5
        assert basis.spanned((0, 0, 0)) == 1
        with pytest.raises(ValueError):
            basis.spanned((1, 0))

    def test_members_are_singular_and_independent(self):
        basis = singular_basis((2, 3, 7))
        for cls in basis.classes:
            assert cls.is_singular_for(basis.primes)
        # F2-independence: no nonempty subproduct is the trivial class
        import itertools

        for r in range(1, basis.dim + 1):
            for subset in itertools.combinations(basis.classes, r):
                prod = SquareClass(1)
                for cls in subset:
                    prod = prod * cls
                assert prod != SquareClass(1)


class TestSolveGF2:
    def test_contract_examples(self):
        # identity matrix, rhs (1, 0)
        assert solve_gf2(GF2System((0b01, 0b10), (1, 0), 2)) == (1, 0)
        # single row x0 + x1 = 1 picks the free variable zero
        assert solve_gf2(GF2System((0b11,), (1,), 2)) == (1, 0)
        # inconsistent: same row, different rhs
        assert solve_gf2(GF2System((0b01, 0b01), (0, 1), 2)) is None

    def test_free_variables_zero(self):
        sol = solve_gf2(GF2System((0b110,), (1,), 3))
        assert sol == (0, 1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GF2System((1,), (1, 0), 1)
        with pytest.raises(ValueError):
            GF2System((4,), (1,), 2)
        with pytest.raises(ValueError):
            GF2System((1,), (2,), 1)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 2**n - 1), min_size=0, max_size=8),
                st.just(n),
            )
        ),
        st.data(),
    )
    @settings(max_examples=150)
    def test_against_exhaustive_search(self, rows_n, data):
        rows, n = rows_n
        rhs = [data.draw(st.integers(0, 1)) for _ in rows]
        system = GF2System(tuple(rows), tuple(rhs), n)
        sol = solve_gf2(system)
        brute = [
            x
            for x in range(2**n)
            if all(
                (bin(row & x).count("1") % 2) == bit for row, bit in zip(rows, rhs)
            )
        ]
        if sol is None:
            assert brute == []
        else:
            packed = sum(b << k for k, b in enumerate(sol))
            assert packed in brute


class TestCommonValue:
    def test_worked_example(self):
        xi = DiagonalForm((-2, 1))
        zeta = DiagonalForm((-1, -1))
        d = common_value(xi, zeta)
        assert d == -1
        assert represents(xi, d) is not None
        assert represents(zeta, d) is not None

    def test_empty_intersection(self):
        assert common_value(DiagonalForm((1, 1)), DiagonalForm((-1, -1))) is None

    def test_isotropic_shortcut(self):
        # -x0*x1 a square: xi is universal, so z0 itself is returned
        assert common_value(DiagonalForm((1, -1)), DiagonalForm((3, 5))) == 3
        assert common_value(DiagonalForm((2, -2)), DiagonalForm((-7, 11))) == -7
        # zeta isotropic instead
        assert common_value(DiagonalForm((3, 5)), DiagonalForm((1, -4))) == 3

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            common_value(DiagonalForm((1, 1, 1)), DiagonalForm((1, 1)))

    def test_prime_appending_regressions(self):
        # these inputs need extra primes beyond the entries' support
        for (x0, x1), (z0, z1) in [((13, -11), (-6, -2)), ((3, 1), (11, 10))]:
            xi, zeta = DiagonalForm((x0, x1)), DiagonalForm((z0, z1))
            d = common_value(xi, zeta)
            assert d is not None
            assert represents(xi, d) is not None
            assert represents(zeta, d) is not None

    @pytest.mark.parametrize(
        "xi, zeta, d",
        [
            ((13, -11), (-6, -2), -806),
            ((3, 1), (11, 10), 21),
            ((5, -3), (-7, 2), 2),
            ((Fraction(-7, 3), 1), (-1, -1), -5),
            ((Fraction(-11, 2), 3), (-7, -21), -13),
            ((1, 2), (3, 5), 2),
            ((-3, -5), (-2, -7), -2),
            ((1, 1), (7, 11), 2),
        ],
    )
    def test_pinned_values(self, xi, zeta, d):
        # Values as returned before the search worked on squarefree integers.
        found = common_value(DiagonalForm(xi), DiagonalForm(zeta))
        assert (type(found), found) == (Fraction, d)

    @pytest.mark.parametrize(
        "xi, zeta, found",
        [
            (
                (Fraction(-11, 2), 3),
                (-7, -21),
                (-13, (Fraction(16, 5), Fraction(-19, 5)), (Fraction(-19, 14), Fraction(1, 14))),
            ),
            ((13, -11), (-6, -2), (-806, (9, 13), (Fraction(19, 2), Fraction(23, 2)))),
        ],
    )
    def test_factors_each_value_once(self, xi, zeta, found, factor_calls):
        # The search and both certificate conics included; results as pinned
        # before the entries' classes were taken once. Each conic's descent
        # may end at the unit 1, which has nothing to factor.
        assert _common_value(DiagonalForm(xi), DiagonalForm(zeta)) == found
        assert max(Counter(q for q in factor_calls if q != 1).values()) == 1
        assert all(factor_calls.count(q) == 1 for q in xi + zeta)

    @given(nonzero_small, nonzero_small, nonzero_small, nonzero_small)
    @settings(max_examples=120, deadline=None)
    def test_certified_or_provably_empty(self, x0, x1, z0, z1):
        xi, zeta = DiagonalForm((x0, x1)), DiagonalForm((z0, z1))
        d = common_value(xi, zeta)
        if d is None:
            assert not is_isotropic(DiagonalForm((x0, x1, -z0, -z1)))
        else:
            assert d != 0
            assert represents(xi, d) is not None
            assert represents(zeta, d) is not None
            if is_square(Fraction(-x0 * x1)) is None and is_square(Fraction(-z0 * z1)) is None:
                # the search path returns a squarefree integer representative
                assert d.denominator == 1
                assert all(e == 1 for _, e in factor(d).factors)

    @given(nonzero_small, nonzero_small, nonzero_small, nonzero_small)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, x0, x1, z0, z1):
        xi, zeta = DiagonalForm((x0, x1)), DiagonalForm((z0, z1))
        assert common_value(xi, zeta) == common_value(xi, zeta)
