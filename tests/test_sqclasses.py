"""Square classes, GF(2) systems, and the common-represented-value search."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import hilbert_oracle_finite, solve_gf2_columns

import quatsqrt.sqclasses as sqclasses
from quatsqrt.forms import DiagonalForm, _isotropic, is_isotropic, represents
from quatsqrt.hilbert import _legendre, _symbol_squarefree
from quatsqrt.places import Place, _places_over, iter_primes
from quatsqrt.rationals import _Classed, _square_class, _times, factor, is_square
from quatsqrt.sqclasses import (
    _PRIME_APPEND_CAP,
    GF2System,
    SingularBasis,
    SquareClass,
    _certified,
    _common_value,
    common_value,
    singular_basis,
    solve_gf2,
)

nonzero_small = st.integers(min_value=-15, max_value=15).filter(lambda n: n != 0)
fractions_to_1e4 = st.builds(
    Fraction, st.integers(-(10**4), 10**4).filter(lambda n: n != 0), st.integers(1, 50)
)

# Needs more than 64 appended primes, of which only a few can change solvability.
CAP_PAIR = ((Fraction(1463, 5), Fraction(-237, 2)), (Fraction(303, 23), -1116))

PINNED_PAIRS = [
    ((13, -11), (-6, -2)),
    ((3, 1), (11, 10)),
    ((5, -3), (-7, 2)),
    ((Fraction(-7, 3), 1), (-1, -1)),
    ((Fraction(-11, 2), 3), (-7, -21)),
    ((1, 2), (3, 5)),
    ((-3, -5), (-2, -7)),
    ((1, 1), (7, 11)),
]


def evaluated_symbols(monkeypatch):
    """Every symbol the search evaluates, through either kernel, as (a, b, v, sym):
    a Legendre symbol (u/p) is recorded as the Hilbert symbol (u, p)_p it equals."""
    seen = []

    def symbol(a, b, v):
        sym = _symbol_squarefree(a, b, v)
        seen.append((a, b, v, sym))
        return sym

    def legendre(u, p):
        # (u/p) = (u, p)_p holds only for a p-unit u.
        assert u % p, f"Legendre symbol of a non-unit {u} at {p}"
        sym = _legendre(u, p)
        seen.append((u, p, Place(p), sym))
        return sym

    monkeypatch.setattr(sqclasses, "_symbol_squarefree", symbol)
    monkeypatch.setattr(sqclasses, "_legendre", legendre)
    return seen


def classed(*forms):
    """Each form's entries as the classed values `_common_value` takes."""
    return [[_Classed(x) for x in form] for form in forms]


def dense_common_value(xi, zeta, cap=400):
    """Reference search that rebuilds the whole GF(2) system every round:
    every row over every place and every column, appended primes included,
    with every appended prime counted toward the cap."""
    x0, x1 = xi.entries
    z0, z1 = zeta.entries
    ex, ez = classed(xi, zeta)
    if is_square(-x0 * x1) is not None:
        return _certified(ex, ez, ez[0])
    if is_square(-z0 * z1) is not None:
        return _certified(ex, ez, ex[0])
    (sx0, px0), (sx1, px1), (sz0, pz0), (sz1, pz1) = map(_square_class, (x0, x1, z0, z1))
    if not _isotropic([ex[0], ex[1], -ez[0], -ez[1]]):
        return None
    prime_list = sorted({2, *px0, *px1, *pz0, *pz1})
    sx, sz = _times(-sx0, sx1), _times(-sz0, sz1)
    for _ in range(cap):
        reps = [-1] + prime_list
        rows, rhs = [], []
        for disc, b0, b1 in ((sx, sx0, sx1), (sz, sz0, sz1)):
            for v in _places_over(prime_list):
                bits = ((1 - _symbol_squarefree(disc, rep, v)) // 2 for rep in reps)
                rows.append(sum(b << k for k, b in enumerate(bits)))
                rhs.append((1 - _symbol_squarefree(b0, b1, v)) // 2)
        eps = solve_gf2(GF2System(tuple(rows), tuple(rhs), len(reps)))
        if eps is not None:
            d = math.prod(r for r, e in zip(reps, eps) if e)
            return _certified(ex, ez, _Classed(d))
        prime_list.append(next(p for p in iter_primes() if p not in prime_list))
        prime_list.sort()
    raise RuntimeError("reference search exceeded its cap")


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

    def test_product_factors_only_its_representative(self, factor_calls):
        a, b = SquareClass(2), SquareClass(6)
        factor_calls.clear()
        assert (a * b).representative == 3
        assert factor_calls == [3]  # the check of 3, never the product 12


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

    @pytest.mark.parametrize("primes", [(5, 2), (6,), (2, 2)])
    def test_direct_construction_checks_primes(self, primes):
        classes = (SquareClass(-1), *map(SquareClass, primes))
        with pytest.raises(ValueError):
            SingularBasis(primes=primes, classes=classes)

    def test_classes_must_match_primes(self):
        with pytest.raises(ValueError):
            SingularBasis(primes=(2, 5), classes=(SquareClass(-1), SquareClass(5), SquareClass(2)))
        with pytest.raises(ValueError):
            SingularBasis(primes=(2,), classes=(-1, 2))

    def test_factors_each_class_once(self, factor_calls):
        singular_basis((7, 2, 3))
        assert factor_calls == [-1, 2, 3, 7]

    def test_composite_rejected_before_factoring(self, factor_calls):
        with pytest.raises(ValueError, match="not a prime"):
            singular_basis((3, 1000000000000037 * 1000000000000091))
        assert factor_calls == []

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

    def test_unchecked_is_the_same_system(self):
        args = ((0b011, 0b110), (1, 0), 3)
        assert GF2System._unchecked(*args) == GF2System(*args)
        assert solve_gf2(GF2System._unchecked(*args)) == solve_gf2(GF2System(*args)) == (1, 0, 0)

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

    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # (mask, rhs bit) rows: sparse or dense masks, and zero rows
                st.lists(st.tuples(st.integers(0, 2**n - 1) | st.just(0), st.integers(0, 1)),
                         max_size=12),
                st.integers(0, 2**n - 1),  # columns left empty
            )
        )
    )
    @example((0, [], 0))
    @example((0, [(0, 0), (0, 1)], 0))  # no columns: rhs bits alone decide
    @example((3, [(0b101, 1), (0b011, 1), (0b110, 1)], 0))  # dependent rows, inconsistent
    @example((4, [(0b1100, 1), (0b0100, 0), (0, 0)], 0b0011))  # columns 0 and 1 empty
    @example((3, [(0b110, 1), (0b011, 1), (0b001, 1)], 0))  # later pivots clear earlier rows
    @settings(max_examples=300)
    def test_matches_column_gauss_jordan(self, system):
        # Row by row reaches the same reduced row echelon form, so the same
        # solution or None, as the column-by-column elimination it replaced.
        n, pairs, empty = system
        rows = [mask & ~empty for mask, _ in pairs]
        for rhs in ([bit for _, bit in pairs], [0] * len(rows)):
            expected = solve_gf2_columns(rows, rhs, n)
            assert solve_gf2(GF2System(tuple(rows), tuple(rhs), n)) == expected


ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
squarefree_ints = st.integers(-200, 200).filter(lambda n: n != 0 and _square_class(n)[0] == n)


class TestLegendreShortcuts:
    """The search reads its odd rows' entries as Legendre symbols of unit
    parts; each must equal the Hilbert symbol it stands for, by the
    congruence oracle and by `_symbol_squarefree`."""

    @given(squarefree_ints, st.sampled_from(ODD_PRIMES_TO_31))
    @settings(max_examples=150, deadline=None)
    def test_narrow_row_and_appended_diagonal(self, D, p):
        # (D, p)_p = (D/p) at a narrow row p, and (D, q)_q = (D/q) for an appended q.
        assume(D % p)
        expected = hilbert_oracle_finite(D, p, p)
        assert _legendre(D, p) == _symbol_squarefree(D, p, Place(p)) == expected

    @given(squarefree_ints, squarefree_ints, st.sampled_from(ODD_PRIMES_TO_31))
    @settings(max_examples=150, deadline=None)
    def test_wide_row(self, u, c, p):
        # D = p*u: a p-unit column c gives (c/p), an appended prime q's entry
        # (q/p) among them, and column p gives (-(D/p)/p).
        assume(u % p and c % p)
        D, v = p * u, Place(p)
        assert _legendre(c, p) == _symbol_squarefree(D, c, v) == hilbert_oracle_finite(D, c, p)
        assert _legendre(-(D // p), p) == _symbol_squarefree(D, p, v) == hilbert_oracle_finite(D, p, p)


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

    def test_empty_intersection_decided_by_one_isotropy_test(self, monkeypatch):
        # <1, 1, -3, -3> is anisotropic at 3, so the search never starts.
        calls = []
        isotropic = sqclasses._isotropic

        def counting(entries):
            calls.append(entries)
            return isotropic(entries)

        monkeypatch.setattr(sqclasses, "_isotropic", counting)
        assert common_value(DiagonalForm((1, 1)), DiagonalForm((3, 3))) is None
        assert len(calls) == 1

    def test_isotropic_shortcut(self):
        # -x0*x1 a square: xi is universal, so z0 itself is returned
        assert common_value(DiagonalForm((1, -1)), DiagonalForm((3, 5))) == 3
        assert common_value(DiagonalForm((2, -2)), DiagonalForm((-7, 11))) == -7
        # zeta isotropic instead
        assert common_value(DiagonalForm((3, 5)), DiagonalForm((1, -4))) == 3

    def test_isotropic_form_is_not_factored(self, factor_calls):
        # Its certificate conic is a pair of lines, which needs no class.
        n = 1000000000000037 * 1000000000000091
        assert common_value(DiagonalForm((n, -n)), DiagonalForm((3, 5))) == 3
        assert common_value(DiagonalForm((3, 5)), DiagonalForm((2 * n, -2 * n))) == 3
        assert factor_calls == [3, 5, 3, 5]

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

    def test_no_false_failure_at_the_cap(self):
        # Past 64 appended primes, but few of them can change solvability.
        xi, zeta = map(DiagonalForm, CAP_PAIR)
        found = _common_value(*classed(xi, zeta))
        assert found == (
            420690,
            (Fraction(20430, 59), Fraction(31910, 59)),
            (Fraction(49841, 53), Fraction(10633, 106)),
        )
        for (b0, b1), (u, v) in zip((xi, zeta), found[1:]):
            assert b0 * u * u + b1 * v * v == found[0]
        assert common_value(xi, zeta) == 420690 == 2 * 3 * 5 * 37 * 379

    @pytest.mark.parametrize("xi, zeta", PINNED_PAIRS + [CAP_PAIR])
    def test_matches_dense_reference(self, xi, zeta):
        xi, zeta = DiagonalForm(xi), DiagonalForm(zeta)
        assert _common_value(*classed(xi, zeta)) == dense_common_value(xi, zeta)

    @given(fractions_to_1e4, fractions_to_1e4, fractions_to_1e4, fractions_to_1e4)
    # an appended prime below a starting one: its column goes in the middle
    @example(Fraction(-1, 3), Fraction(6), Fraction(-11, 10), Fraction(-178, 13))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_reference_random(self, x0, x1, z0, z1):
        xi, zeta = DiagonalForm((x0, x1)), DiagonalForm((z0, z1))
        assert _common_value(*classed(xi, zeta)) == dense_common_value(xi, zeta)

    @pytest.mark.parametrize("xi, zeta", [CAP_PAIR, ((13, -11), (-6, -2))])
    def test_appended_prime_adds_one_column(self, xi, zeta, monkeypatch):
        symbols, solves = evaluated_symbols(monkeypatch), []

        def counting_solve(system):
            solves.append(system)
            return solve_gf2(system)

        monkeypatch.setattr(sqclasses, "solve_gf2", counting_solve)
        assert _common_value(*classed(xi, zeta)) is not None
        start = {2} | {p for x in xi + zeta for p, e in factor(x).factors if e % 2}
        # An appended prime q shows as its own place in the diagonal (D, q)_q.
        diagonal = [(b, sym) for _, b, v, sym in symbols if b == v.prime and b not in start]
        appended = {q for q, _ in diagonal}
        counted = appended - {q for q, sym in diagonal if sym == -1}
        # q is either argument: (D, q)_q = (D/q) at its own place, (q/p) = (q, p)_p at a wide row.
        per_prime = Counter(x for a, b, _, _ in symbols for x in {a, b} & appended)
        assert max(per_prime.values()) <= 2 * (len(start) + 1 + 1)
        assert len(solves) <= len(counted) + 1
        if (xi, zeta) == CAP_PAIR:
            assert len(counted) < _PRIME_APPEND_CAP < len(appended)

    @pytest.mark.parametrize("xi, zeta", PINNED_PAIRS + [CAP_PAIR])
    def test_evaluates_no_symbol_of_two_odd_units(self, xi, zeta, monkeypatch):
        # (a, b)_p = +1 for p-units a and b at an odd p. Of those, the search
        # reads only the forms' own rhs symbols (b0, b1)_p.
        seen = evaluated_symbols(monkeypatch)
        assert _common_value(*classed(DiagonalForm(xi), DiagonalForm(zeta))) is not None
        entries = {tuple(_square_class(x)[0] for x in form) for form in (xi, zeta)}
        units = [
            (a, b, v) for a, b, v, _ in seen
            if v.prime not in (None, 2) and a % v.prime and b % v.prime and (a, b) not in entries
        ]
        assert units == []

    @pytest.mark.parametrize("xi, zeta", PINNED_PAIRS + [CAP_PAIR])
    def test_evaluates_no_symbol_at_the_real_place_or_two(self, xi, zeta, monkeypatch):
        # The real row is read off signs and the row at 2 is left out, by
        # reciprocity; a narrow row's rhs of two units is not read either.
        seen = evaluated_symbols(monkeypatch)
        assert _common_value(*classed(DiagonalForm(xi), DiagonalForm(zeta))) is not None
        assert seen and all(v.prime not in (None, 2) for _, _, v, _ in seen)
        assert [(a, b, v) for a, b, v, _ in seen if a % v.prime and b % v.prime] == []

    def test_rounds_revalidate_no_system(self, monkeypatch):
        # Each round's system is built unchecked; solve_gf2 still solves it.
        checked = []
        init = GF2System.__init__

        def counting(self, *args):
            checked.append(args)
            init(self, *args)

        monkeypatch.setattr(GF2System, "__init__", counting)
        assert _common_value(*classed(*map(DiagonalForm, CAP_PAIR)))[0] == 420690
        assert checked == []

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
                (-13, (Fraction(8, 5), Fraction(3, 5)), (Fraction(4, 7), Fraction(5, 7))),
            ),
            ((13, -11), (-6, -2), (-806, (9, 13), (7, 16))),
        ],
    )
    def test_factors_each_value_once(self, xi, zeta, found, factor_calls):
        # The search and both certificate conics included: the conics' and
        # d's classes are built from the entries', so only entries are factored.
        assert _common_value(*classed(xi, zeta)) == found
        for (b0, b1), (u, v) in zip((xi, zeta), found[1:]):
            assert b0 * u * u + b1 * v * v == found[0]
        assert max(Counter(q for q in factor_calls if q != 1).values()) == 1
        assert all(factor_calls.count(q) == 1 for q in xi + zeta)
        assert factor_calls == list(xi + zeta)

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
