"""Diagonal forms: isotropy against brute-force search, exact conic solutions."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quatsqrt.forms as forms_module
import quatsqrt.hilbert as hilbert_module
import quatsqrt.legendre as legendre_module
from quatsqrt.forms import (
    DiagonalForm,
    is_isotropic,
    isotropic_vector,
    represents,
    solve_conic,
)
from quatsqrt.hilbert import hasse_invariant, hilbert_symbol
from quatsqrt.legendre import _sqrt_mod_prime
from quatsqrt.places import REAL, Place, _local_classes, is_local_square, support_places
from quatsqrt.rationals import _square_class, is_square

import oracles
from oracles import hilbert_oracle_finite, local_square_oracle, ternary_zero_search, trial_division

nonzero_rationals = st.fractions(
    min_value=-60, max_value=60, max_denominator=20
).filter(lambda q: q != 0)
nonzero_small = st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0)
wide_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**3
).filter(lambda q: q != 0)
# The product of two 21-digit primes, far too slow to factor in a test.
N2 = 100000000000000000039 * 100000000000000000193


def ternary_forms():
    return st.tuples(nonzero_small, nonzero_small, nonzero_small).map(DiagonalForm)


class TestDiagonalForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalForm(())
        with pytest.raises(ValueError):
            DiagonalForm((1, 0, 2))

    def test_eval(self):
        f = DiagonalForm((1, -2, Fraction(3, 5)))
        assert f((1, 1, 5)) == 1 - 2 + 15
        assert f((Fraction(2), Fraction(-1), Fraction(1, 3))) == 4 - 2 + Fraction(1, 15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiagonalForm((1, 1))((1, 2, 3))


def isotropic_at_place(form, v):
    """Local isotropy at v, as the package decides it for `is_isotropic`: at
    the real place in any dimension, at a prime in dimensions 3 and 4."""
    return forms_module._isotropic_at(_local_classes(form, v), v)


class TestLocalIsotropy:
    """Dimensions 3 and 4 through the package; dimensions 1, 2 and 5, which
    `is_isotropic` settles without a place, through the README's recipe,
    `textbook_isotropic_local`, checked against the residue-scan oracles."""

    def test_real_place(self):
        for entries, isotropic in (((1, -1), True), ((1, 1, 1, 1, 1), False), ((-2,), False)):
            form = DiagonalForm(entries)
            assert isotropic_at_place(form, REAL) is isotropic
            assert textbook_isotropic_local(form, REAL) is isotropic

    def test_classical_facts(self):
        two = Place(2)
        # sums of 3 or 4 squares have no nontrivial zero over the 2-adics
        assert not isotropic_at_place(DiagonalForm((1, 1, 1)), two)
        assert not isotropic_at_place(DiagonalForm((1, 1, 1, 1)), two)
        for p in (3, 5, 7):
            assert isotropic_at_place(DiagonalForm((1, 1, 1)), Place(p))
        # five squares: -7 is a 2-adic square, so 1 + 1 + 1 + 2^2 + (sqrt -7)^2 = 0,
        # and at an odd p already <1, 1, 1> is isotropic, as (-1, -1)_p = 1
        five = DiagonalForm((1, 1, 1, 1, 1))
        assert textbook_isotropic_local(five, two) and local_square_oracle(Fraction(-7), 2)
        for p in (3, 5, 7):
            assert textbook_isotropic_local(five, Place(p))
            assert hilbert_oracle_finite(-1, -1, p) == 1
        # <1,-2> : 2 is a square mod 7, not over Q_5
        for p, isotropic in ((7, True), (5, False)):
            assert textbook_isotropic_local(DiagonalForm((1, -2)), Place(p)) is isotropic
            assert local_square_oracle(Fraction(2), p) is isotropic

    def test_dimension_one(self):
        assert textbook_isotropic_local(DiagonalForm((5,)), Place(5)) is False


class TestGlobalIsotropy:
    def test_known(self):
        assert not is_isotropic(DiagonalForm((1, -2)))
        assert is_isotropic(DiagonalForm((1, -4)))
        assert is_isotropic(DiagonalForm((1, 1, -2)))
        assert not is_isotropic(DiagonalForm((1, 1, 1)))
        assert not is_isotropic(DiagonalForm((1, 1, -7)))
        assert is_isotropic(DiagonalForm((2, 3, -5)))
        assert not is_isotropic(DiagonalForm((1,)))
        # indefinite but anisotropic: x^2 + y^2 = 3 z^2 + 3 w^2 fails at 3
        assert not is_isotropic(DiagonalForm((1, 1, -3, -3)))
        assert is_isotropic(DiagonalForm((1, 1, -3, -7)))
        # five variables, indefinite: always isotropic
        assert is_isotropic(DiagonalForm((3, 5, -7, 11, 13)))

    @given(ternary_forms())
    @settings(max_examples=150)
    def test_search_consistency(self, form):
        found = ternary_zero_search(form.entries, 25)
        if found is not None:
            assert is_isotropic(form), (form, found)
            assert form(found) == 0
        if not is_isotropic(form):
            assert found is None

    def test_dimension_five_and_up_matches_hasse_minkowski(self):
        rng = random.Random(56)
        answers = set()
        for _ in range(300):
            entries = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 4))
                       for _ in range(rng.choice((5, 6)))]
            form = DiagonalForm(entries)
            answer = is_isotropic(form)
            assert answer is all(textbook_isotropic_local(form, v) for v in support_places(form))
            answers.add(answer)
        assert answers == {True, False}

    @given(ternary_forms())
    @settings(max_examples=100)
    def test_local_everywhere_iff_global(self, form):
        local = all(isotropic_at_place(form, v) for v in support_places(form))
        assert local == is_isotropic(form)

    @given(st.lists(nonzero_rationals, min_size=3, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_local_matches_the_textbook_formula(self, entries):
        form = DiagonalForm(tuple(entries))
        for v in support_places(form) + [Place(p) for p in (3, 5, 7)]:
            assert isotropic_at_place(form, v) == textbook_isotropic_local(form, v)


def textbook_isotropic_local(form, v):
    """Local isotropy by the classical criteria (Serre, Ch. IV) on the public
    symbols, computed from the entries as given."""
    if v.is_real:
        return any(x < 0 for x in form) and any(x > 0 for x in form)
    n, det = form.dim, math.prod(form.entries)
    if n == 1:
        return False
    if n == 2:
        return is_local_square(-det, v)
    if n == 3:
        return hasse_invariant(form, v) == hilbert_symbol(-1, -det, v)
    if n == 4:
        return not (
            is_local_square(det, v)
            and hasse_invariant(form, v) == -hilbert_symbol(-1, -1, v)
        )
    return True


PRIMES_TO_2000 = [p for p in range(2, 2000) if trial_division(p) == {p: 1}]
# p - 1 = 7*2^20, 5*2^25, 119*2^23: Tonelli-Shanks runs up to 25 lifting steps.
TONELLI_HEAVY = (7340033, 167772161, 998244353)


class TestSqrtModPrime:
    @given(st.sampled_from((3, 5, 7, 11, 13, 10007)), st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_root_squares_back(self, p, n):
        r = _sqrt_mod_prime(n, p)
        if r is None:
            assert pow(n, (p - 1) // 2, p) == p - 1  # genuinely a non-residue
        else:
            assert r * r % p == n % p

    def test_same_root_as_the_euler_first_kernel_below_2000(self):
        for p in PRIMES_TO_2000:
            assert [_sqrt_mod_prime(n, p) for n in range(p)] == [
                oracles.sqrt_mod_prime(n, p) for n in range(p)], p

    @pytest.mark.parametrize("p", TONELLI_HEAVY)
    def test_same_root_as_the_euler_first_kernel_on_tonelli_heavy_primes(self, p):
        rng = random.Random(p)
        for n in [rng.randrange(-p, 2 * p) for _ in range(1500)] + [0, 1, p - 1]:
            assert _sqrt_mod_prime(n, p) == oracles.sqrt_mod_prime(n, p), n

    @pytest.mark.parametrize("p", PRIMES_TO_2000[1::20] + list(TONELLI_HEAVY))
    def test_none_exactly_at_non_residues(self, p):
        rng = random.Random(p)
        for n in range(1, min(p, 400)) if p < 2000 else (rng.randrange(1, p) for _ in range(400)):
            euler = pow(n, (p - 1) // 2, p)
            assert (_sqrt_mod_prime(n, p) is None) == (euler == p - 1), n


class TestSolveConic:
    def test_worked_examples(self):
        assert solve_conic(Fraction(2), Fraction(1, 2)) == (1, Fraction(1, 2))
        assert solve_conic(Fraction(4), Fraction(3)) == (2, Fraction(1, 2))
        assert solve_conic(Fraction(-1), Fraction(2)) == (1, 1)
        assert solve_conic(Fraction(-1), Fraction(-1)) is None
        assert solve_conic(Fraction(-1), Fraction(-2)) is None
        assert solve_conic(Fraction(3), Fraction(-1)) is None  # x^2 - 3y^2 = -1: fails at 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_conic(0, 1)
        with pytest.raises(ValueError):
            solve_conic(1, 0)

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=200, deadline=None)
    def test_exact_or_obstructed(self, alpha, c):
        sol = solve_conic(alpha, c)
        if sol is None:
            assert any(
                hilbert_symbol(alpha, c, v) == -1 for v in support_places((alpha, c))
            )
        else:
            x, y = sol
            assert x * x - alpha * y * y == c
            assert all(
                hilbert_symbol(alpha, c, v) == 1 for v in support_places((alpha, c))
            )

    @given(wide_rationals, wide_rationals)
    @settings(max_examples=100, deadline=None)
    @example(Fraction(-1), Fraction(-1))  # obstructed at the real place and 2 only
    @example(Fraction(3), Fraction(-177))  # at 2 and at 3 = gcd(3, -177) only
    def test_none_iff_a_symbol_obstructs(self, alpha, c):
        obstructed = any(
            hilbert_symbol(alpha, c, v) == -1 for v in support_places((alpha, c))
        )
        assert (solve_conic(alpha, c) is None) == obstructed

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=30)
    def test_deterministic(self, alpha, c):
        assert solve_conic(alpha, c) == solve_conic(alpha, c)

    @pytest.mark.parametrize(
        "alpha, c, solvable",
        [
            (2, Fraction(1, 2), True),
            (-5, 6, True),
            (Fraction(-42921, 29), Fraction(4991015585, 14036), True),
            (Fraction(-42921, 29), 7, False),
            (-1, -1, False),
            (3, -177, False),
        ],
    )
    def test_evaluates_no_hilbert_symbol(self, alpha, c, solvable, monkeypatch):
        # Legendre's conditions alone decide solvability, on both answers.
        calls = []
        symbol = hilbert_module._symbol_squarefree

        def counting(*args):
            calls.append(args)
            return symbol(*args)

        for module in (hilbert_module, forms_module):
            monkeypatch.setattr(module, "_symbol_squarefree", counting)
        assert (solve_conic(alpha, c) is not None) is solvable
        assert calls == []

    def test_square_alpha_always_solvable(self):
        for alpha in (Fraction(1), Fraction(4), Fraction(9, 16)):
            for c in (Fraction(7), Fraction(-5, 3), Fraction(1)):
                x, y = solve_conic(alpha, c)
                assert x * x - alpha * y * y == c

    def test_square_alpha_solution_is_checked(self, monkeypatch):
        # A wrong root of a square alpha must raise, not come back as (x, y).
        monkeypatch.setattr(
            forms_module, "is_square", lambda q: Fraction(3) if q == 4 else is_square(q)
        )
        with pytest.raises(RuntimeError, match="exact check"):
            solve_conic(Fraction(4), Fraction(5))

    @pytest.mark.parametrize(
        "alpha, c", [(2, Fraction(1, 2)), (Fraction(-42921, 29), Fraction(4991015585, 14036))]
    )
    def test_legendre_solution_is_checked(self, alpha, c, monkeypatch):
        # A wrong zero of a non-square alpha's Legendre form must raise too.
        zero = forms_module._legendre_zero

        def wrong(*args):
            X, Y, Z = zero(*args)
            return X + 1, Y, Z

        monkeypatch.setattr(forms_module, "_legendre_zero", wrong)
        with pytest.raises(RuntimeError, match="exact check"):
            solve_conic(alpha, c)


class TestFactorOnce:
    """One call factors alpha and c, once each, and nothing else: every prime
    of the Legendre form is read off their two square classes. Labels name
    the shape of the input's classes s_alpha and s_c."""

    @pytest.mark.parametrize(
        "alpha, c, branch, solution",
        [
            (2, 8, "a == c", (Fraction(4), Fraction(2))),
            (13, Fraction(-3, 4), "swap", (Fraction(1, 4), Fraction(1, 4))),
            (
                Fraction(-42921, 29),
                Fraction(4991015585, 14036),
                "multi-step",
                (Fraction(32, 11), Fraction(31, 2)),
            ),
            (Fraction(-7, 3), Fraction(5, 12), "obstructed", None),
        ],
    )
    def test_solve_conic(self, alpha, c, branch, solution, factor_calls):
        assert solve_conic(alpha, c) == solution
        if solution is not None:
            x, y = solution
            assert x * x - alpha * y * y == c
        assert factor_calls == [alpha, c]
        (sa, pa), (sc, pc) = _square_class(alpha), _square_class(c)
        shape = {
            "a == c": sa == sc,
            "swap": abs(sa) > abs(sc),
            "multi-step": len(set(pa) | set(pc)) >= 4,
            "obstructed": solution is None,
        }
        assert shape[branch]

    def test_square_alpha_factors_nothing(self, factor_calls):
        # A pair of lines needs no class: c = N is never factored.
        n = 1000000000000037 * 1000000000000091
        x, y = solve_conic(Fraction(9, 4), n)
        assert x * x - Fraction(9, 4) * y * y == n
        assert factor_calls == []

    @pytest.mark.parametrize(
        "entries, isotropic",
        [
            ((Fraction(2, 3), 5, -7, Fraction(-11, 4)), True),
            ((Fraction(1, 2), 2, -3, -12), False),
        ],
    )
    def test_is_isotropic(self, entries, isotropic, factor_calls):
        assert is_isotropic(DiagonalForm(entries)) is isotropic
        assert sorted(factor_calls) == sorted(map(Fraction, entries))

    @pytest.mark.parametrize(
        "entries, isotropic",
        [
            ((1, 1, 1, 1, -N2), True),
            ((1, 1, 1, 1, N2), False),
            ((Fraction(-1, 3), 2, 5, -7, N2, 11), True),
            ((-1, -2, -3, -5, Fraction(-7, 2), -N2), False),
        ],
    )
    def test_dimension_five_and_up_factors_nothing(self, entries, isotropic, factor_calls):
        # Meyer: isotropic at every prime, so the signs decide.
        assert is_isotropic(DiagonalForm(entries)) is isotropic
        assert factor_calls == []


def planted_conics():
    """(alpha, c) with alpha not a square and c = x^2 - alpha*y^2 != 0."""
    return st.tuples(wide_rationals, nonzero_rationals, nonzero_rationals).filter(
        lambda t: is_square(t[0]) is None and t[1] ** 2 != t[0] * t[2] ** 2
    ).map(lambda t: (t[0], t[1] ** 2 - t[0] * t[2] ** 2))


def record_legendre(mp):
    """Each Legendre zero solve_conic reads, with its form and reduced basis."""
    seen = []
    lll, zero = legendre_module._lll, forms_module._legendre_zero

    def recording_lll(basis, weights):
        seen[-1]["basis"] = lll(basis, weights)
        return seen[-1]["basis"]

    def recording_zero(A, B, C, *primes):
        seen.append({"form": (A, B, C)})
        seen[-1]["zero"] = zero(A, B, C, *primes)
        return seen[-1]["zero"]

    mp.setattr(legendre_module, "_lll", recording_lll)
    mp.setattr(forms_module, "_legendre_zero", recording_zero)
    return seen


def reading(call):
    """Which vector of the reduced basis b1, b2, b3 the zero was read as."""
    (A, B, C), (b1, b2, b3) = call["form"], call["basis"]

    def g(u, v):
        return Fraction(A * u[0] * v[0] + B * u[1] * v[1] + C * u[2] * v[2], A * B * C)

    eps = g(b1, b1)
    c2, c3 = ([x - eps * g(b, b1) * y for x, y in zip(b, b1)] for b in (b2, b3))
    candidates = {
        "b1": b1,
        "indefinite: c2": c2,
        "indefinite: c3": c3,
        "indefinite: c2 + c3": [x + y for x, y in zip(c2, c3)],
        "definite: b1 + c2": [x + y for x, y in zip(b1, c2)],
        "definite: b1 + c3": [x + y for x, y in zip(b1, c3)],
    }
    kind = {0: "b1", -1: "indefinite", 1: "definite"}[eps]
    return next(
        name for name, v in candidates.items()
        if name.startswith(kind) and tuple(v) == tuple(call["zero"])
    )


class TestLegendreZero:
    """The zero read off one LLL reduction of the Legendre form's lattice."""

    @given(planted_conics())
    @settings(max_examples=200, deadline=None)
    def test_within_the_proven_majorant_bound(self, conic):
        alpha, c = conic
        with pytest.MonkeyPatch.context() as mp:
            seen = record_legendre(mp)
            x, y = solve_conic(alpha, c)
        assert x * x - alpha * y * y == c and x >= 0 and y >= 0
        (call,) = seen
        (A, B, C), (X, Y, Z) = call["form"], call["zero"]
        m = abs(A * B * C)

        def majorant(v):
            return abs(A) * v[0] ** 2 + abs(B) * v[1] ** 2 + abs(C) * v[2] ** 2

        assert A * X * X + B * Y * Y + C * Z * Z == 0 and Z != 0
        # LLL with delta = 99/100: N(b1) <= m / (delta - 1/4) = (50/37) * m.
        assert 37 * majorant(call["basis"][0]) <= 50 * m
        assert majorant((X, Y, Z)) <= 25 * m
        if reading(call) == "b1":
            assert 37 * majorant((X, Y, Z)) <= 50 * m

    @pytest.mark.parametrize(
        "form, primes",
        [((1, 1, 1), ([], [], [])), ((1, 1, -3), ([], [], [3]))],
    )
    def test_none_when_anisotropic(self, form, primes):
        # One sign fails at the real place; -1 has no square root mod 3.
        assert legendre_module._legendre_zero(*form, *primes) is None

    @pytest.mark.parametrize(
        "alpha, c, branch, solution",
        [
            (-5, 6, "b1", (1, 1)),
            (3, -2, "indefinite: c2", (1, 1)),
            (7, 2, "indefinite: c3", (3, 1)),
            (-1, 2, "indefinite: c2 + c3", (1, 1)),
            (2, Fraction(1, 2), "definite: b1 + c2", (1, Fraction(1, 2))),
        ],
    )
    def test_each_branch_reached(self, alpha, c, branch, solution, monkeypatch):
        seen = record_legendre(monkeypatch)
        assert solve_conic(alpha, c) == solution
        assert [reading(call) for call in seen] == [branch]

    def test_definite_branch_reads_c3(self, monkeypatch):
        # In every reduced basis seen with G(b1) = 1, c2 had G(c2) = -1, but
        # the proof allows G(c2) = -2. The basis b1, b2 + b3, b3 of the same
        # lattice has that, and the reading must take b1 + c3 from it.
        lll = legendre_module._lll

        def unreduced(basis, weights):
            b1, b2, b3 = lll(basis, weights)
            return [b1, [x + y for x, y in zip(b2, b3)], b3]

        monkeypatch.setattr(legendre_module, "_lll", unreduced)
        seen = record_legendre(monkeypatch)
        x, y = solve_conic(2, Fraction(1, 2))
        assert x * x - 2 * y * y == Fraction(1, 2)
        assert [reading(call) for call in seen] == ["definite: b1 + c3"]

    def test_no_larger_than_sympy_overall(self):
        # Holzer-reduced solutions from sympy, on the same equation scaled to
        # integers, made primitive; sizes compared only where sympy answers.
        sympy = pytest.importorskip("sympy")
        from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

        X, Y, Z = sympy.symbols("X Y Z", integer=True)
        rng = random.Random(5)
        ours_digits = sympy_digits = answered = 0
        for _ in range(60):
            alpha = Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 30))
            x = Fraction(rng.randint(-100, 100), rng.randint(1, 30))
            y = Fraction(rng.randint(1, 100), rng.randint(1, 30))
            c = x * x - alpha * y * y
            if c == 0 or is_square(alpha) is not None:
                continue
            sx, sy = solve_conic(alpha, c)
            den = math.lcm(sx.denominator, sy.denominator)
            d = math.lcm(alpha.denominator, c.denominator)
            theirs = diop_ternary_quadratic(d * X**2 - int(d * alpha) * Y**2 - int(d * c) * Z**2)
            if theirs is None or None in theirs:
                continue
            answered += 1
            theirs = [int(v) // math.gcd(*map(int, theirs)) for v in theirs]
            ours_digits += sum(len(str(abs(v))) for v in (sx * den, sy * den, den))
            sympy_digits += sum(len(str(abs(v))) for v in theirs)
        assert answered >= 30
        assert ours_digits <= sympy_digits


# Lattices of the shape `_legendre_zero` reduces: (m, 0, 0), (x, a, 0),
# (y, l, 1) with 0 <= x, y < m and 0 <= l < |a|, under positive weights;
# entries up to 80 bits, and often 8, where the boundary cases are dense.
bits80 = st.one_of(st.integers(1, 2**8), st.integers(1, 2**80))


@st.composite
def hnf_lattices(draw):
    m, a = draw(bits80), draw(bits80) * draw(st.sampled_from((1, -1)))
    x, y = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    lam = draw(st.integers(0, abs(a) - 1))
    return [(m, 0, 0), (x, a, 0), (y, lam, 1)], draw(st.tuples(bits80, bits80, bits80))


class TestIntegerConicKernels:
    """The rank-3 LLL and the back-substitution on ints agree with the
    generic LLL and the Fraction formulas they replaced (tests/oracles.py)."""

    @given(hnf_lattices())
    @example(([(5, 0, 0), (2, 1, 0), (3, 0, 1)], (1, 1, 1)))
    @example(([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (2**80, 2**40, 1)))
    # Each of these tells delta = 99/100 from 98/100 at k = 2 and k = 1, or
    # reduces l10 or l20 with 2|l| = d + 1 exactly.
    @example(([(107, 0, 0), (31, 158, 0), (46, 20, 1)], (144, 46, 230)))
    @example(([(138, 0, 0), (42, 98, 0), (113, 74, 1)], (76, 135, 236)))
    @example(([(83, 0, 0), (17, -215, 0), (18, 20, 1)], (170, 8, 7)))
    @example(([(222, 0, 0), (64, 26, 0), (60, 25, 1)], (226, 51, 162)))
    @settings(max_examples=300, deadline=None)
    def test_rank3_lll_matches_the_generic_one(self, lattice):
        basis, weights = lattice
        assert legendre_module._lll(basis, weights) == tuple(map(tuple, oracles.lll(basis, weights)))

    @given(planted_conics())
    @settings(max_examples=200, deadline=None)
    def test_back_substitution_matches_the_fraction_formulas(self, conic):
        alpha, c = conic
        lll, lattices = legendre_module._lll, []

        def compared(basis, weights):
            lattices.append(basis)
            reduced = lll(basis, weights)
            assert reduced == tuple(map(tuple, oracles.lll(basis, weights)))
            return reduced

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(legendre_module, "_lll", compared)
            seen = record_legendre(mp)
            x, y = solve_conic(alpha, c)
        (call,) = seen
        assert len(lattices) == 1
        assert (x, y) == oracles.conic_back_substitution(alpha, c, call["form"], call["zero"])
        assert type(x) is type(y) is Fraction


class TestIsotropicVector:
    def test_examples(self):
        f = DiagonalForm((1, 1, -2))
        v = isotropic_vector(f)
        assert v is not None and f(v) == 0 and any(v)
        assert isotropic_vector(DiagonalForm((1, 1, 1))) is None

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            isotropic_vector(DiagonalForm((1, -1)))

    @given(ternary_forms())
    @settings(max_examples=150, deadline=None)
    def test_iff_isotropic(self, form):
        v = isotropic_vector(form)
        if v is None:
            assert not is_isotropic(form)
        else:
            assert is_isotropic(form)
            assert form(v) == 0 and any(x != 0 for x in v)


class TestRepresents:
    def test_examples(self):
        u, v = represents(DiagonalForm((1, 1)), 5)
        assert u * u + v * v == 5
        assert represents(DiagonalForm((1, 1)), 7) is None
        assert represents(DiagonalForm((1, 1)), -1) is None
        u, v = represents(DiagonalForm((-2, 1)), -1)
        assert -2 * u * u + v * v == -1

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            represents(DiagonalForm((1, 1, 1)), 2)
        with pytest.raises(ValueError):
            represents(DiagonalForm((1, 1)), 0)

    @given(
        st.tuples(nonzero_small, nonzero_small).map(DiagonalForm), nonzero_rationals
    )
    @settings(max_examples=150, deadline=None)
    def test_certificate_or_anisotropic_extension(self, form, d):
        out = represents(form, d)
        x0, x1 = form.entries
        if out is not None:
            u, v = out
            assert x0 * u * u + x1 * v * v == d
        else:
            # <x0, x1, -d> must then be anisotropic
            assert not is_isotropic(DiagonalForm((x0, x1, -d)))


def seeded_conics(count=1500, seed=2407):
    """(alpha, c) drawn as the benchmark's conic stream draws them: squarefree
    |alpha| <= 10^6, alpha != 1; three in four with a planted solution of height
    <= 1000, the fourth with c of numerator <= 10^6 and denominator <= 10^3."""
    rng = random.Random(seed)
    for k in range(count):
        alpha = 1
        while alpha == 1:
            n = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            alpha = (1 if n > 0 else -1) * math.prod(
                p for p, e in trial_division(abs(n)).items() if e % 2)
        if k % 4 == 3:
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 1000))
        else:
            c = 0
            while c == 0:
                x, y = (Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(2))
                c = x * x - alpha * y * y
        yield Fraction(alpha), c


def test_conic_answers_are_pinned_by_digest():
    # The sha256 of repr(solve_conic(alpha, c)), one line per pair: a moved
    # solution, or a solvable conic answered None, changes it.
    h, solved = hashlib.sha256(), 0
    for alpha, c in seeded_conics():
        sol = solve_conic(alpha, c)
        solved += sol is not None
        h.update(repr(sol).encode() + b"\n")
    assert solved > 1125  # every planted conic, and some random ones
    assert h.hexdigest() == "6a62014d2033980eddabe517816f2b99641bf669d82c19e621eb590945d0b012"
