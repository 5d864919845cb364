"""Quaternion arithmetic identities and the branches of `sqrt`."""

import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quatsqrt.quaternions as quaternions_module
import quatsqrt.rationals as rationals
import quatsqrt.sqclasses as sqclasses_module
from quatsqrt.forms import (
    DiagonalForm,
    is_isotropic,
    isotropic_vector,
    represents,
)
from quatsqrt.hilbert import hasse_invariant, hilbert_symbol
from quatsqrt.places import REAL, Place, is_local_square, support_places
from quatsqrt.quaternions import Quaternion, QuaternionAlgebra, sqrt
from quatsqrt.rationals import Factorization, is_square
from quatsqrt.sqclasses import _common_value, common_value, singular_basis

import oracles
from oracles import hilbert_oracle_finite, hilbert_oracle_real
from test_acceptance import _random_algebra, _random_fraction

H = QuaternionAlgebra(Fraction(-1), Fraction(-1))  # Hamilton
M = QuaternionAlgebra(Fraction(1), Fraction(1))  # split
B25 = QuaternionAlgebra(Fraction(2), Fraction(5))  # non-split, indefinite

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)

algebra_params = st.tuples(
    st.integers(-12, 12).filter(lambda n: n != 0),
    st.integers(-12, 12).filter(lambda n: n != 0),
)


def quaternions(algebra):
    return st.tuples(*[small_fractions] * 4).map(lambda c: algebra.quaternion(*c))


mixed_algebras = st.sampled_from((H, M, B25))
nonsplit_algebras = algebra_params.map(lambda p: QuaternionAlgebra(*p)).filter(
    lambda A: not A.is_split()
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _acceptance_nonsplit():
    """The non-split algebras among acceptance criterion 2's 24."""
    rng = random.Random(202)
    return [A for A in [_random_algebra(rng) for _ in range(24)] if not A.is_split()]


class TestAlgebra:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuaternionAlgebra(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            QuaternionAlgebra(Fraction(1), Fraction(0))

    def test_basis_multiplication_table(self):
        a, b = Fraction(3), Fraction(-7)
        A = QuaternionAlgebra(a, b)
        one = A.scalar(1)
        i = A.quaternion(0, 1, 0, 0)
        j = A.quaternion(0, 0, 1, 0)
        k = A.quaternion(0, 0, 0, 1)
        assert i * i == one * a
        assert j * j == one * b
        assert k * k == one * (-a * b)
        assert i * j == k
        assert j * i == -k
        assert j * k == -b * i
        assert k * j == b * i
        assert k * i == -a * j
        assert i * k == a * j

    def test_mixed_algebra_rejected(self):
        with pytest.raises(ValueError):
            H.quaternion(1, 0, 0, 0) * M.quaternion(1, 0, 0, 0)
        with pytest.raises(ValueError):
            H.quaternion(1, 0, 0, 0) + M.quaternion(1, 0, 0, 0)

    def test_is_split_known(self):
        assert M.is_split()
        assert QuaternionAlgebra(Fraction(2), Fraction(-1)).is_split()
        assert QuaternionAlgebra(Fraction(4), Fraction(7)).is_split()
        assert not H.is_split()
        assert not B25.is_split()
        assert not QuaternionAlgebra(Fraction(-1), Fraction(3)).is_split()

    @given(algebra_params)
    @settings(max_examples=80, deadline=None)
    def test_is_split_self_consistent(self, params):
        # Hilbert symbols decide; isotropy of the pure norm form and each
        # answer's certificate are checked here, not at run time.
        alpha, beta = params
        A = QuaternionAlgebra(Fraction(alpha), Fraction(beta))
        pure_norm_form = DiagonalForm((-A.alpha, -A.beta, A.alpha * A.beta))
        assert A.is_split() == is_isotropic(pure_norm_form)
        if A.is_split():
            assert pure_norm_form(A._pure_ints[2]) == 0
        else:
            v = A._ramified[0]
            if v.is_real:
                assert hilbert_oracle_real(alpha, beta) == -1
            else:
                assert hilbert_oracle_finite(alpha, beta, v.prime) == -1

    def test_isotropic_vector_is_cached(self):
        A = QuaternionAlgebra(Fraction(1), Fraction(1))
        assert A._pure_ints[2] is A._pure_ints[2]

    def test_is_split_is_cached(self, monkeypatch):
        # sqrt and the central routine's guard both ask; the obstruction places
        # of (alpha, beta) are sought once per algebra.
        calls = []
        obstructions = quaternions_module._obstructions

        def counting(a, b):
            calls.append((a[0], b[0]))
            return obstructions(a, b)

        monkeypatch.setattr(quaternions_module, "_obstructions", counting)
        for alpha, beta in ((-1, -1), (1, 1)):
            A = QuaternionAlgebra(Fraction(alpha), Fraction(beta))
            for a in (2, -3, Fraction(7, 5)):
                sqrt(A.scalar(a))
            assert calls.count((alpha, beta)) == 1

    @pytest.mark.parametrize(
        "alpha, beta", [(-1, -1), (2, 5), (1, 1), (Fraction(3, 4), -7), (6, Fraction(-10, 9))]
    )
    def test_is_split_factors_alpha_and_beta_once(self, alpha, beta, factor_calls):
        QuaternionAlgebra(Fraction(alpha), Fraction(beta)).is_split()
        assert factor_calls == [alpha, beta]

    def test_witness_place_must_find_the_form_anisotropic(self, monkeypatch):
        asked = []

        def disagreeing(reps, v):
            asked.append((reps, v))
            return True

        monkeypatch.setattr(quaternions_module, "_isotropic_at", disagreeing)
        with pytest.raises(RuntimeError, match="isotropic at the obstruction"):
            QuaternionAlgebra(Fraction(-1), Fraction(-1)).is_split()  # not H: its answer is cached
        # <1, 1, 1>, the pure norm form of (-1, -1), at its first obstruction
        assert asked == [([1, 1, 1], REAL)]


class TestArithmetic:
    @given(mixed_algebras.flatmap(lambda A: st.tuples(*[quaternions(A)] * 3)))
    @settings(max_examples=80)
    def test_ring_axioms(self, triple):
        x, y, z = triple
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    @given(mixed_algebras.flatmap(lambda A: st.tuples(quaternions(A), quaternions(A))))
    @settings(max_examples=80)
    def test_norm_and_conjugation(self, pair):
        def conj(q):
            return q.algebra.quaternion(q.q0, -q.q1, -q.q2, -q.q3)

        x, y = pair
        assert conj(x * y) == conj(y) * conj(x)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * conj(x) == x.algebra.scalar(x.norm())
        assert (x + conj(x)).is_central

    @given(mixed_algebras.flatmap(quaternions))
    @settings(max_examples=100)
    def test_square_matches_multiplication(self, q):
        assert q.square() == q * q

    @given(mixed_algebras.flatmap(lambda A: st.tuples(quaternions(A), quaternions(A))))
    @settings(max_examples=50)
    def test_subtraction(self, pair):
        x, y = pair
        assert x - y == x + (-y)
        assert (x - y) + y == x
        assert x - x == x.algebra.scalar(0)

    def test_readme_python_blocks_print_as_shown(self, capsys):
        for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
            exec(block, {})
        assert capsys.readouterr().out == "1 + 1*i + 0*j + 0*k\nNone\n"

    def test_scalar_multiplication(self):
        q = H.quaternion(1, 2, 3, 4)
        assert 2 * q == q * 2 == q + q
        assert Fraction(1, 2) * (q + q) == q

    @pytest.mark.parametrize(
        "op",
        [
            pytest.param(lambda q: q * 1.5, id="q*1.5"),
            pytest.param(lambda q: 1.5 * q, id="1.5*q"),
            pytest.param(lambda q: q + 1.5, id="q+1.5"),
            pytest.param(lambda q: q - 1.5, id="q-1.5"),
            pytest.param(lambda q: q * "2", id="q*str"),
            pytest.param(lambda q: q + 1, id="q+1"),
        ],
    )
    def test_non_quaternion_operands_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(H.quaternion(1, 2, 3, 4))

    @pytest.mark.parametrize(
        "call, type_name",
        [
            pytest.param(lambda: sqrt(2.0), "float", id="sqrt(2.0)"),
            pytest.param(lambda: Quaternion(None, 1, 0, 0, 0), "NoneType", id="Quaternion(None)"),
            pytest.param(lambda: common_value(DiagonalForm((1, 2)), 2.0), "float",
                         id="common_value(form, 2.0)"),
            pytest.param(lambda: common_value(2.0, DiagonalForm((1, 2))), "float",
                         id="common_value(2.0, form)"),
            pytest.param(lambda: is_isotropic(2.0), "float", id="is_isotropic(2.0)"),
            pytest.param(lambda: isotropic_vector(2.0), "float", id="isotropic_vector(2.0)"),
            pytest.param(lambda: represents(2.0, 1), "float", id="represents(2.0, 1)"),
            pytest.param(lambda: hasse_invariant(2.0, Place(3)), "float",
                         id="hasse_invariant(2.0)"),
            pytest.param(lambda: DiagonalForm(2.0), "float", id="DiagonalForm(2.0)"),
            pytest.param(lambda: singular_basis(2.0), "float", id="singular_basis(2.0)"),
            pytest.param(lambda: support_places(2.0), "float", id="support_places(2.0)"),
            pytest.param(lambda: Factorization(1, 2.0), "float", id="Factorization(1, 2.0)"),
            pytest.param(lambda: Factorization(1.0, ()), "float", id="Factorization(1.0, ())"),
            pytest.param(lambda: Factorization(1, ((2, Fraction(1, 2)),)), "Fraction",
                         id="Factorization(1, ((2, 1/2),))"),
        ],
    )
    def test_entry_points_name_the_wrong_type(self, call, type_name):
        with pytest.raises(TypeError, match=f"got {type_name}$"):
            call()


# Inputs of the integer kernel: alpha and beta negative and non-integer,
# coordinates over coprime, shared and (30 digits and up) large denominators.
kernel_params = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4).filter(
    lambda q: q != 0
)
kernel_numerators = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-10**40, 10**40))
kernel_denominators = st.one_of(st.integers(1, 60), st.integers(10**29, 10**32))


@st.composite
def kernel_coords(draw):
    shared = draw(kernel_denominators)
    return tuple(
        Fraction(draw(kernel_numerators), draw(st.one_of(st.just(shared), kernel_denominators)))
        for _ in range(4)
    )


kernel_cases = st.tuples(kernel_params, kernel_params, kernel_coords(), kernel_coords())


@st.composite
def split_cases(draw):
    """(alpha, beta, a) for a split algebra: beta = x^2 - alpha*y^2 is a norm
    from Q(sqrt alpha), or alpha is a square and its vector is (0, c, 1);
    alpha and beta often non-integral, a sometimes 40 digits over 20."""
    alpha = draw(kernel_params)
    if draw(st.booleans()):
        alpha = alpha * alpha
        beta = draw(kernel_params)
    else:
        x, y = draw(kernel_params), draw(kernel_params)
        beta = x * x - alpha * y * y
        assume(beta != 0)
    a = draw(st.one_of(nonzero_fractions, st.fractions(max_denominator=10**20).filter(bool),
                       st.builds(Fraction, st.integers(10**39, 10**40), st.integers(1, 10**20))))
    return alpha, beta, a


class TestIntegerKernel:
    """norm, square and products on integers over one denominator agree with
    the Fraction formulas they replaced (tests/oracles.py)."""

    @given(kernel_params, kernel_params, kernel_coords())
    @settings(max_examples=50, deadline=None)
    def test_unchecked_equals_and_hashes_like_the_constructor(self, alpha, beta, coords):
        A = QuaternionAlgebra(alpha, beta)
        q, u = A.quaternion(*coords), Quaternion._unchecked(A, *coords)
        assert u == q and hash(u) == hash(q) and repr(u) == repr(q)

    @given(kernel_cases)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_formulas(self, case):
        alpha, beta, pc, rc = case
        A = QuaternionAlgebra(alpha, beta)
        p, r = A.quaternion(*pc), A.quaternion(*rc)
        assert p.norm() == oracles.quaternion_norm(alpha, beta, pc)
        assert p.square().coords == oracles.quaternion_square(alpha, beta, pc)
        assert (p * r).coords == oracles.quaternion_product(alpha, beta, pc, rc)
        assert p.square() == p * p
        assert (p * r).norm() == p.norm() * r.norm()

    @given(
        st.one_of(mixed_algebras, st.tuples(kernel_params, kernel_params).map(
            lambda p: QuaternionAlgebra(*p))).flatmap(
            lambda A: st.one_of(quaternions(A), kernel_coords().map(lambda c: A.quaternion(*c))))
    )
    @settings(max_examples=200, deadline=None)
    def test_squares_to_agrees_with_square(self, r):
        # r as the pairs (x0, y0) and (x_i, y), the pure part over one y, checked by
        # `_checked_root` against the exact square, then every near miss: one target
        # coordinate moved by +-1/den.
        (x0, y0), (y, (_, *pure)) = r.q0.as_integer_ratio(), oracles.scaled((0, *r.coords[1:]))
        target = r.square().coords
        targets = [target] + [
            tuple(t + Fraction(step, t.denominator) if j == k else t for j, t in enumerate(target))
            for k in range(4) for step in (1, -1)]
        for moved in targets:
            try:
                root = quaternions_module._checked_root(r.algebra, x0, y0, pure, y,
                                                        *oracles.scaled(moved), "test root")
            except RuntimeError:
                root = None
            assert (root is not None) == (r.square() == r.algebra.quaternion(*moved))
            assert root is None or root == r

    @given(kernel_params, kernel_params, kernel_coords())
    @settings(max_examples=100, deadline=None)
    def test_scaled_matches_the_lcm_formula(self, alpha, beta, coords):
        assert QuaternionAlgebra(alpha, beta).quaternion(*coords)._scaled() == oracles.scaled(coords)

    @given(kernel_params, kernel_params, st.sampled_from(("noncentral", "split", "scalar",
                                                          "nonsplit")),
           st.tuples(*[kernel_numerators] * 4), kernel_denominators, kernel_denominators,
           st.sampled_from((1, -1)), st.sampled_from((None, 0, 1)))
    @settings(max_examples=300, deadline=None)
    def test_checked_root_agrees_with_square(self, alpha, beta, shape, xs, y0, y, sign, axis):
        # Non-central pairs (x0, y0), (x_i, y), unreduced; split ones (0, 1), (w_k, Q) with
        # Q of either sign; scalar ones (x0, y0) with x0 != 0 and the pure part (0, 0, 0)
        # over 1; non-split ones (0, 1) with the pure part along i or j (axis) or general,
        # over y of either sign. The exact square passes, and each +-1/den near miss of
        # one target coordinate passes exactly when the root squares to it.
        A = QuaternionAlgebra(alpha, beta)
        x0, *pure = xs
        if shape in ("split", "nonsplit"):
            x0, y0, y = 0, 1, sign * y
        if shape == "scalar":
            x0, pure, y = x0 or 1, [0, 0, 0], 1
        if shape == "nonsplit" and axis is not None:
            pure = [x if k == axis else 0 for k, x in enumerate(pure)]
        r = Quaternion._unchecked(A, Fraction(x0, y0), *[Fraction(x, y) for x in pure])
        target = r.square().coords
        targets = [target] + [
            tuple(t + Fraction(step, t.denominator) if j == k else t for j, t in enumerate(target))
            for k in range(4) for step in (1, -1)]
        for moved in targets:
            D, n = oracles.scaled(moved)
            try:
                root = quaternions_module._checked_root(A, x0, y0, pure, y, D, n, "test root")
            except RuntimeError:
                root = None
            squares = r.square() == A.quaternion(*moved)
            assert (root is not None) == squares
            assert root is None or root == r

    @given(kernel_cases)
    @settings(max_examples=200, deadline=None)
    def test_sqrt_noncentral_matches_the_fraction_formulas(self, case):
        alpha, beta, pc, rc = case
        A = QuaternionAlgebra(alpha, beta)
        for q in (A.quaternion(*pc), A.quaternion(*rc).square()):
            if q.is_central:
                continue
            expected = oracles.quaternion_sqrt_noncentral(alpha, beta, q.coords)
            root = sqrt(q)
            assert (root is None) == (expected is None)
            if root is not None:
                assert root.coords == expected
                assert all(type(x) is Fraction for x in root.coords)


class TestSqrtNoncentral:
    def test_worked_example(self):
        r = sqrt(H.quaternion(0, 2, 0, 0))
        assert r == H.quaternion(1, 1, 0, 0)

    def test_scales_to_integers_once(self, monkeypatch):
        # q is scaled once; the root is checked on the integer pairs it is built from.
        calls = []
        scaled = Quaternion._scaled

        def counting(q):
            calls.append(q)
            return scaled(q)

        monkeypatch.setattr(Quaternion, "_scaled", counting)
        q = B25.quaternion(Fraction(7, 3), 2, Fraction(-1, 6), Fraction(5, 2)).square()
        calls.clear()
        assert sqrt(q) is not None
        assert calls == [q]

    def test_corrupt_scalar_part_fails_the_resquaring(self, monkeypatch):
        # t + 1 for t moves r0 = t/(2E), and r_i = n_i*K/t moves with it, so the
        # square's pure part 2*r0*r_i still equals q's: only its scalar part differs.
        calls = []
        sqrt_ratio = quaternions_module._sqrt_ratio

        def corrupt(n, d):
            calls.append((n, d))
            r = sqrt_ratio(n, d)
            return r + 1 if len(calls) == 2 else r

        monkeypatch.setattr(quaternions_module, "_sqrt_ratio", corrupt)
        with pytest.raises(RuntimeError, match="non-central root candidate failed re-squaring"):
            sqrt(H.quaternion(0, 2, 0, 0))
        assert len(calls) == 2

    def test_norm_obstruction(self):
        # N(1 + i) = 2 is not a rational square
        assert sqrt(H.quaternion(1, 1, 0, 0)) is None

    def test_plus_branch_preferred(self):
        # q = 5 + 4i + j + k in (1,1): both (5 +- 3)/2 are squares, so both
        # r0 = 2 and r0 = 1 give roots; the implementation must pick r0 = 2.
        q = M.quaternion(5, 4, 1, 1)
        r = sqrt(q)
        assert r is not None and r.square() == q
        assert r.q0 == 2
        other = M.quaternion(1, 2, Fraction(1, 2), Fraction(1, 2))
        assert other.square() == q  # the root the tie-break must not return

    @given(mixed_algebras.flatmap(quaternions))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, r):
        q = r.square()
        if q.is_central:
            return
        s = sqrt(q)
        assert s is not None
        assert s.square() == q

    @given(mixed_algebras.flatmap(quaternions))
    @settings(max_examples=100, deadline=None)
    def test_failure_is_sound(self, q):
        if q.is_central:
            return
        if sqrt(q) is not None:
            return
        # no root exists: either N(q) is not a square, or neither half works
        d = is_square(q.norm())
        if d is not None:
            for cand in ((q.q0 + d) / 2, (q.q0 - d) / 2):
                r0 = is_square(cand)
                assert r0 is None or r0 == 0


class TestSqrtCentralSplit:
    def test_worked_example(self):
        r = sqrt(M.scalar(2))
        assert r == M.quaternion(0, 0, Fraction(3, 2), Fraction(1, 2))
        assert r.square() == M.scalar(2)

    def test_never_fails_and_pure(self):
        split_algebras = [
            M,
            QuaternionAlgebra(Fraction(2), Fraction(-1)),
            QuaternionAlgebra(Fraction(9), Fraction(5)),
            QuaternionAlgebra(Fraction(3), Fraction(-2)),
        ]
        values = [Fraction(2), Fraction(-3), Fraction(7, 5), Fraction(-1, 4), Fraction(30)]
        for A in split_algebras:
            for a in values:
                r = sqrt(A.scalar(a))
                assert r.square() == A.scalar(a)
                assert r.q0 == 0

    @pytest.mark.parametrize("params", [(2, -1), (3, -2), (7, -3)])
    def test_factors_only_alpha_and_beta(self, params, factor_calls):
        # The isotropic vector's conic is built from is_split's two classes.
        alpha, beta = map(Fraction, params)
        A = QuaternionAlgebra(alpha, beta)
        r = sqrt(A.scalar(Fraction(-5, 3)))
        assert A.is_split() and r.square() == A.scalar(Fraction(-5, 3))
        assert factor_calls == [alpha, beta]

    def test_norm_form_not_evaluated_once_the_vector_is_cached(self, square_calls, monkeypatch):
        # The cached vector was checked when built; the re-squaring checks the root.
        A = QuaternionAlgebra(Fraction(3), Fraction(-2))
        A._pure_ints[2]
        calls = []
        evaluate = DiagonalForm.__call__

        def counting(form, vec):
            calls.append(vec)
            return evaluate(form, vec)

        monkeypatch.setattr(DiagonalForm, "__call__", counting)
        r = sqrt(A.scalar(7))
        assert r.square() == A.scalar(7)
        assert calls == []
        assert len(square_calls) == 2  # sqrt's own check, then the one above

    @given(split_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_reference(self, case):
        alpha, beta, a = case
        A = QuaternionAlgebra(alpha, beta)
        r = sqrt(A.scalar(a))
        c = is_square(a)
        if c is None:
            expected = oracles.split_central_root(alpha, beta, A._pure_ints[2], a)
        else:
            expected = (c, 0, 0, 0)
        assert r.coords == expected
        assert all(type(x) is Fraction for x in r.coords)

    @pytest.mark.parametrize(
        "field, k", [(0, None), (1, 0), (2, 0), (2, 2)], ids=["F", "E0", "N0", "N2"]
    )
    def test_corrupt_integer_data_fails_the_resquaring(self, field, k, monkeypatch):
        A = QuaternionAlgebra(Fraction(3, 2), Fraction(-1, 2))  # -1/2 = 1 - (3/2)*1
        data = list(A._pure_ints)
        if k is None:
            data[field] += 1
        else:
            data[field] = tuple(x + 1 if j == k else x for j, x in enumerate(data[field]))
        monkeypatch.setitem(A.__dict__, "_pure_ints", tuple(data))
        with pytest.raises(RuntimeError, match="split central root failed re-squaring"):
            sqrt(A.scalar(7))

    def test_check_reads_the_algebra_not_its_cache(self, monkeypatch):
        # Another split algebra's cached integers, with the same den(alpha)*den(beta),
        # build a root of 7 in that algebra; only alpha and beta themselves refuse it.
        A = QuaternionAlgebra(Fraction(3, 2), Fraction(-1, 2))
        other = QuaternionAlgebra(Fraction(1, 2), Fraction(1, 2))
        assert other.is_split() and other._pure_ints[0] == A._pure_ints[0]
        assert sqrt(other.scalar(7)).coords != sqrt(A.scalar(7)).coords
        monkeypatch.setitem(A.__dict__, "_pure_ints", other._pure_ints)
        with pytest.raises(RuntimeError, match="split central root failed re-squaring"):
            sqrt(A.scalar(7))


class TestSqrtCentralNonsplit:
    def test_shortcuts(self):
        assert sqrt(H.scalar(4)) == H.scalar(2)
        # a*alpha square: root along i
        r = sqrt(H.scalar(-4))
        assert r == H.quaternion(0, -2, 0, 0)
        assert r.square() == H.scalar(-4)
        # a*beta square: root along j
        r = sqrt(B25.scalar(5))
        assert r == B25.quaternion(0, 0, 1, 0)
        assert r.square() == B25.scalar(5)

    @given(kernel_params, kernel_params, kernel_params, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_shortcut_roots_match_the_fraction_reference(self, alpha, beta, t, along_i):
        # a*alpha or a*beta a square, read off unreduced integer pairs.
        A = QuaternionAlgebra(alpha, beta)
        assume(not A.is_split())
        a = t * t / (alpha if along_i else beta)
        c = oracles.rational_sqrt
        if c(a) is not None:
            expected = (c(a), 0, 0, 0)
        elif c(a * alpha) is not None:
            expected = (0, c(a * alpha) / alpha, 0, 0)
        else:
            expected = (0, 0, c(a * beta) / beta, 0)
        assert sqrt(A.scalar(a)).coords == expected

    @given(st.sampled_from(_acceptance_nonsplit()), kernel_params, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_aligned_roots_pass_the_ramified_places(self, A, t, along_i):
        # a = alpha*t^2 or beta*t^2 is a local square at no ramified place, where alpha
        # and beta are non-squares, so the test that runs first lets the root along i
        # or j through. a is no rational square; a*alpha is one for a = beta*t^2 when
        # alpha*beta is, and then the root is along i.
        a = (A.alpha if along_i else A.beta) * t * t
        c = oracles.rational_sqrt
        assert c(a) is None
        if c(a * A.alpha) is not None:
            expected = (0, c(a * A.alpha) / A.alpha, 0, 0)
        else:
            expected = (0, 0, c(a * A.beta) / A.beta, 0)
        assert sqrt(A.scalar(a)).coords == expected

    @pytest.mark.parametrize("A, a", [(H, 4), (H, -4), (B25, 5)], ids=["scalar", "i", "j"])
    def test_shortcut_root_is_resquared_once(self, A, a, square_calls):
        r = sqrt(A.scalar(a))
        assert square_calls == [r]

    @given(
        nonsplit_algebras.flatmap(
            lambda A: st.tuples(*[small_fractions] * 3).map(lambda c: A.quaternion(0, *c))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_certificate_m0_is_never_zero(self, r):
        # m0 = 0 would make (v, l0, l1) a zero of the pure norm form, which is
        # anisotropic in a division algebra; the root divides by m0.
        A, a = r.algebra, r.square().q0
        assume(a != 0 and all(is_square(a * x) is None for x in (1, A.alpha, A.beta)))
        forms = ((a, -A.alpha), (A.beta, -A.alpha * A.beta))
        found = _common_value(*forms)
        assert found is not None
        _, (m0, _), _ = found
        assert m0 != 0

    def test_root_is_the_paper_formula_on_the_certificates(self):
        # (+-v*i + l0*j + l1*k)/m0, v with a's sign, from the Fraction certificates
        # of the public common-value path: sqrt's integer path gives the same root.
        rng, cases = random.Random(202), 0
        for A in _acceptance_nonsplit() * 8:
            a = A.quaternion(0, *(_random_fraction(rng, 20, 20) for _ in range(3))).square().q0
            if a == 0 or any(is_square(a * x) is not None for x in (1, A.alpha, A.beta)):
                continue
            forms = ((a, -A.alpha), (A.beta, -A.alpha * A.beta))
            _, (m0, v), (l0, l1) = _common_value(*forms)
            assert sqrt(A.scalar(a)).coords == (0, (v if a > 0 else -v) / m0, l0 / m0, l1 / m0)
            cases += 1
        assert cases >= 50

    def test_general_path_is_pure(self):
        r = sqrt(H.scalar(-2))
        assert r is not None and r.square() == H.scalar(-2)
        assert r.q0 == 0
        r = sqrt(B25.scalar(13))
        assert r is not None and r.square() == B25.scalar(13)
        assert r.q0 == 0

    # Roots as read off the lattice-reduced certificate conics.
    PINNED_ROOTS = [
        ((-1, -1), -2, ("0", "-1", "0", "1")),
        ((-1, -1), Fraction(-7, 3), ("0", "-4/3", "1/3", "2/3")),
        ((2, 5), 13, ("0", "2", "1", "0")),
        ((2, 5), Fraction(-56, 3), ("0", "-14/3", "4/3", "8/3")),
        ((3, -7), Fraction(-27, 7), ("0", "-3", "18/7", "6/7")),
        ((3, -7), Fraction(31, 8), ("0", "1", "1/4", "1/4")),
        ((-3, -7), Fraction(-11, 2), ("0", "-3/8", "5/14", "25/56")),
    ]

    @pytest.mark.parametrize("params, a, root", PINNED_ROOTS)
    def test_pinned_roots(self, params, a, root):
        A = QuaternionAlgebra(Fraction(params[0]), Fraction(params[1]))
        r = sqrt(A.scalar(a))
        assert tuple(str(x) for x in r.coords) == root
        assert r.square() == A.scalar(a)

    @pytest.mark.parametrize("params, a, root", PINNED_ROOTS)
    def test_two_conic_solves_per_root(self, params, a, root, monkeypatch):
        # The two certificates of the common value are the two norm equations,
        # each solved once by the integer conic kernel.
        calls = []
        conic = sqclasses_module._conic

        def counting(*args):
            calls.append(args)
            return conic(*args)

        monkeypatch.setattr(sqclasses_module, "_conic", counting)
        A = QuaternionAlgebra(Fraction(params[0]), Fraction(params[1]))
        assert sqrt(A.scalar(a)) is not None
        assert len(calls) == 2

    @pytest.mark.parametrize("params, a, root", PINNED_ROOTS)
    def test_no_isotropy_test_per_root(self, params, a, root, monkeypatch):
        # The ramified places decide that a root exists; the search only finds it.
        calls = []
        isotropic = sqclasses_module._isotropic

        def counting(entries):
            calls.append(entries)
            return isotropic(entries)

        monkeypatch.setattr(sqclasses_module, "_isotropic", counting)
        A = QuaternionAlgebra(Fraction(params[0]), Fraction(params[1]))
        assert sqrt(A.scalar(a)) is not None
        assert calls == []

    @pytest.mark.parametrize("params, a, root", PINNED_ROOTS)
    def test_factors_only_the_forms_entries(self, params, a, root, factor_calls):
        # is_split reads alpha and beta, and _common_value a. The other
        # entries of <a, -alpha> and <beta, -alpha*beta>, the certificate
        # conics and d are built from those three classes.
        alpha, beta = Fraction(params[0]), Fraction(params[1])
        r = sqrt(QuaternionAlgebra(alpha, beta).scalar(a))
        assert tuple(str(x) for x in r.coords) == root
        assert factor_calls == [alpha, beta, a]

    @pytest.mark.parametrize("params, a1, a2", [((3, -7), Fraction(-27, 7), Fraction(31, 8)),
                                                 ((2, 5), 13, Fraction(-56, 3))])
    def test_second_root_derives_no_class_of_the_algebra(self, params, a1, a2, monkeypatch):
        # The classes of alpha, beta and alpha*beta are cached with the algebra:
        # a second root reads a's class and derives only those of alpha/a, e/a
        # and e/beta, here and in the shared certificate routine, doing no
        # Fraction arithmetic.
        A = QuaternionAlgebra(*params)
        assert sqrt(A.scalar(a1)) is not None
        read, derived, arithmetic = [], [], []
        square_class, class_times = rationals._square_class, rationals._class_times

        def reading(q):
            read.append(q)
            return square_class(q)

        def deriving(x, y):
            derived.append((x, y))
            return class_times(x, y)

        monkeypatch.setattr(quaternions_module, "_square_class", reading)
        monkeypatch.setattr(quaternions_module, "_class_times", deriving)
        monkeypatch.setattr(sqclasses_module, "_class_times", deriving)
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda *x, op=op: arithmetic.append(op) or op(*x))
        assert sqrt(A.scalar(a2)) is not None
        monkeypatch.undo()
        assert read == [a2] and arithmetic == []
        assert len(derived) == 3
        alpha, beta, alpha_beta = A._classes
        assert alpha_beta == rationals._class_times(alpha, beta)
        assert (alpha, beta) not in derived
        assert all(alpha_beta not in pair for pair in derived)

    def test_product_of_large_inputs_is_not_factored(self, factor_calls):
        # alpha*beta is a 32-digit semiprime that Pollard rho takes seconds
        # to split; its class is the product of alpha's and beta's.
        alpha, beta = Fraction(-1000000000000037), Fraction(1000000000000091)
        A = QuaternionAlgebra(alpha, beta)
        r = sqrt(A.scalar(2))
        den = 1805479000000066802723
        assert r.coords == (0, Fraction(507132626731279, den), 0, Fraction(16238935, den))
        assert factor_calls == [alpha, beta, 2]

    def test_unsolvable(self):
        assert sqrt(H.scalar(7)) is None
        assert sqrt(H.scalar(3)) is None

    @given(st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(lambda q: q != 0))
    @settings(max_examples=80, deadline=None)
    def test_soundness_both_ways(self, a):
        r = sqrt(H.scalar(a))
        alpha, beta = H.alpha, H.beta
        if r is None:
            assert is_square(a) is None
            assert is_square(a * alpha) is None
            assert is_square(a * beta) is None
            assert not is_isotropic(
                DiagonalForm((a, -alpha, -beta, alpha * beta))
            )
        else:
            assert r.square() == H.scalar(a)


class TestRamifiedPlaces:
    def test_ramified_places(self):
        assert H._ramified == [REAL, Place(2)]
        assert B25._ramified == [Place(2), Place(5)]
        assert M._ramified == []

    @pytest.mark.parametrize("a", [7, Fraction(17, 9), 2 * 10**40 + 1])
    def test_no_factors_nothing_of_a(self, a, factor_calls):
        # a > 0 is a square at the real place, where (-1, -1) ramifies.
        assert sqrt(QuaternionAlgebra(-1, -1).scalar(a)) is None
        assert factor_calls == [-1, -1]

    def test_agrees_with_the_common_value_search(self):
        rng = random.Random(11)
        cases = 0
        while cases < 300:
            alpha, beta = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            if alpha == 0 or beta == 0:
                continue
            A = QuaternionAlgebra(alpha, beta)
            if A.is_split():
                continue
            a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 50))
            cases += 1
            root = sqrt(A.scalar(a))
            if any(is_square(a * x) is not None for x in (1, A.alpha, A.beta)):
                assert root is not None
                continue
            found = _common_value((a, -A.alpha), (A.beta, -A.alpha * A.beta))
            assert (root is None) == (found is None)
            if root is None:
                # the "no" names a place where the algebra ramifies and a is a local square
                witnesses = [v for v in A._ramified if is_local_square(a, v)]
                assert witnesses
                for v in witnesses:
                    assert hilbert_symbol(alpha, beta, v) == -1
                    if v.is_real:
                        assert a > 0
                    else:
                        assert oracles.local_square_oracle(a, v.prime)


class TestSqrtDispatcher:
    def test_zero(self):
        assert sqrt(H.scalar(0)) == H.scalar(0)

    def test_central_square_gives_nonnegative_scalar(self):
        r = sqrt(H.scalar(Fraction(9, 4)))
        assert r == H.scalar(Fraction(3, 2))

    @pytest.mark.parametrize(
        "A, coords",
        [
            (H, (0, 2, 0, 0)),
            (H, (Fraction(9, 4), 0, 0, 0)),
            (H, (0, 0, 0, 0)),
            (M, (2, 0, 0, 0)),
            (H, (-4, 0, 0, 0)),
            (B25, (5, 0, 0, 0)),
            (B25, (13, 0, 0, 0)),
        ],
        ids=["noncentral", "scalar", "zero", "split", "nonsplit-i", "nonsplit-j", "common-value"],
    )
    def test_each_root_is_resquared_once(self, A, coords, square_calls):
        q = A.quaternion(*coords)
        r = sqrt(q)
        assert square_calls == [r]
        assert r * r == q

    @pytest.mark.parametrize("coords", [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
    def test_resquaring_compares_every_coordinate(self, coords):
        # (1 + u)^2 = 2u for a pure unit u of H: its scalar part matches a = 0.
        r = H.quaternion(*coords)
        assert r.square().q0 == 0
        checked_root = quaternions_module._checked_root
        with pytest.raises(RuntimeError, match="scalar root failed re-squaring"):
            checked_root(H, 1, 1, coords[1:], 1, 1, (0, 0, 0, 0), "scalar root")
        with pytest.raises(RuntimeError, match="scalar root failed re-squaring"):
            checked_root(H, 2, 1, (0, 0, 0), 1, 1, (5, 0, 0, 0), "scalar root")

    def test_spec_cli_cases(self):
        assert sqrt(H.quaternion(0, 2, 0, 0)) == H.quaternion(1, 1, 0, 0)
        assert sqrt(H.scalar(2)) is None

    @given(mixed_algebras.flatmap(quaternions))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_everything(self, r):
        q = r.square()
        s = sqrt(q)
        assert s is not None
        assert s.square() == q

    @given(mixed_algebras.flatmap(quaternions))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_of_sqrt_target(self, q):
        s = sqrt(q)
        if s is not None:
            assert s.square() == q


def _criterion_2_stream():
    """360 central elements on acceptance criterion 2's 24 algebras: every third a
    random scalar, with or without a root, the others squares of random pure
    quaternions, so every central branch of `sqrt` is taken."""
    rng = random.Random(202)
    algebras = [_random_algebra(rng) for _ in range(24)]
    rng = random.Random(2202)
    for k in range(360):
        A = algebras[k % 24]
        if k % 3 == 0:
            yield A.scalar(_random_fraction(rng, 60, 60))
        else:
            yield A.quaternion(0, *(_random_fraction(rng, 20, 20) for _ in range(3))).square()


def test_roots_are_pinned_by_digest():
    # The sha256 of repr(sqrt(q)), one line per q of the stream: any root that
    # moves, in any coordinate, changes it.
    h = hashlib.sha256()
    for q in _criterion_2_stream():
        h.update(repr(sqrt(q)).encode() + b"\n")
    assert h.hexdigest() == "a9d3455b1f585b4c1e1282ce8341097ef9eba39a9de873f7b5141f9eb9470413"
