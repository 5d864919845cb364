"""Quaternion algebras (alpha, beta | Q) and exact square roots.

The algebra has basis 1, i, j, k with i^2 = alpha, j^2 = beta and
k = ij = -ji. Square roots split into cases: non-central elements reduce to
square tests on the norm, central elements to isotropy and norm equations of
the attached quadratic forms. Each routine re-squares the root it builds,
once, on integers: every coordinate of the square is cross-multiplied with
the target's, and `sqrt` returns that root as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .forms import DiagonalForm, _isotropic_at, _solve_conic
from .hilbert import _obstructions
from .places import Place, is_local_square
from .rationals import RationalLike, _Classed, _sqrt_ratio, _Value, as_fraction, is_square
from .sqclasses import _search_common_value

_ZERO = Fraction(0)


class QuaternionAlgebra(_Value):
    """(alpha, beta | Q) with alpha, beta nonzero rationals."""

    _fields = ("alpha", "beta")
    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha: RationalLike, beta: RationalLike) -> None:
        alpha, beta = as_fraction(alpha), as_fraction(beta)
        if alpha == 0 or beta == 0:
            raise ValueError("alpha and beta must be nonzero")
        self._set(alpha, beta)

    def quaternion(
        self,
        q0: RationalLike = 0,
        q1: RationalLike = 0,
        q2: RationalLike = 0,
        q3: RationalLike = 0,
    ) -> "Quaternion":
        return Quaternion(self, q0, q1, q2, q3)

    def scalar(self, c: RationalLike) -> "Quaternion":
        return self.quaternion(c, 0, 0, 0)

    def pure_norm_form(self) -> DiagonalForm:
        """<-alpha, -beta, alpha*beta>: the reduced norm on pure quaternions."""
        return DiagonalForm((-self.alpha, -self.beta, self.alpha * self.beta))

    def is_split(self) -> bool:
        """Whether the algebra is isomorphic to 2x2 matrices over Q.

        Decided once per algebra: it splits iff (alpha, beta)_v = +1 at every
        place v. A "no" is certified at the first place where the symbol is -1,
        which must find the pure norm form anisotropic; a "yes" by the pure
        norm form's isotropic vector, checked exactly when a root needs it.
        """
        return not self._ramified

    @cached_property
    def _classes(self) -> tuple[_Classed, _Classed]:
        """alpha and beta with their classes: the algebra's only factorizations."""
        return _Classed(self.alpha), _Classed(self.beta)

    @cached_property
    def _entries(self) -> tuple[_Classed, _Classed]:
        """-alpha and -alpha*beta with their classes, shared by every non-split root's forms."""
        A, B = self._classes
        return -A, -(A * B)

    @cached_property
    def _ints(self) -> tuple[int, int, int, int]:
        """alpha and beta as (numerator, denominator) integers, the denominators positive."""
        a, b = self.alpha, self.beta
        return a.numerator, a.denominator, b.numerator, b.denominator

    @cached_property
    def _ramified(self) -> list[Place]:
        """Every place v with (alpha, beta)_v = -1, ascending; empty iff the algebra splits."""
        (A, B), (nA, nAB) = self._classes, self._entries
        places = list(_obstructions(A.cls, B.cls))
        if places and _isotropic_at([nA.cls[0], -B.cls[0], -nAB.cls[0]], places[0]):
            raise RuntimeError(f"the pure norm form is isotropic at the obstruction {places[0]}")
        return places

    @cached_property
    def _pure_isotropic_vector(self) -> tuple[Fraction, Fraction, Fraction]:
        """An isotropic vector of the pure norm form; only exists when split.

        Cached per algebra: recomputation is idempotent, so a race at worst
        repeats the same work.
        """
        c = is_square(self.alpha)
        if c is not None:
            # (0, c, 1) vanishes: -beta*c^2 + alpha*beta = beta*(alpha - c^2) = 0.
            vec = (Fraction(0), c, Fraction(1))
        else:
            A, B = self._classes
            sol = _solve_conic(A, -(A / B))
            if sol is None:
                raise RuntimeError("split algebra is missing an isotropic vector")
            vec = (Fraction(1), *sol)
        if self.pure_norm_form()(vec) != 0:
            raise RuntimeError("isotropic vector construction failed")
        return vec

    @cached_property
    def _pure_ints(self) -> tuple[int, tuple[int, int, int], tuple[int, int, int], int]:
        """(F, E, N, i) for split roots: F = den(alpha)*den(beta), E = F * the pure norm
        form's entries, N/M = the isotropic vector, i the first k with N_k != 0."""
        an, ad, bn, bd = self._ints
        vec = self._pure_isotropic_vector
        M = math.lcm(*[x.denominator for x in vec])
        N = tuple([x.numerator * (M // x.denominator) for x in vec])
        return ad * bd, (-an * bd, -bn * ad, an * bn), N, next(k for k, n in enumerate(N) if n)


class Quaternion(_Value):
    """An element q0 + q1*i + q2*j + q3*k of a fixed quaternion algebra."""

    _fields = ("algebra", "q0", "q1", "q2", "q3")
    algebra: QuaternionAlgebra
    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def __init__(self, algebra: QuaternionAlgebra, q0: RationalLike, q1: RationalLike,
                 q2: RationalLike, q3: RationalLike) -> None:
        if not isinstance(algebra, QuaternionAlgebra):
            raise TypeError(f"expected a QuaternionAlgebra, got {type(algebra).__name__}")
        self._set(algebra, as_fraction(q0), as_fraction(q1), as_fraction(q2), as_fraction(q3))

    @classmethod
    def _unchecked(cls, algebra: QuaternionAlgebra, *coords: Fraction) -> "Quaternion":
        """A quaternion whose caller has built its four coordinates as Fractions."""
        q = object.__new__(cls)
        q._set(algebra, *coords)
        return q

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.q0, self.q1, self.q2, self.q3)

    @property
    def is_central(self) -> bool:
        """Central elements of a quaternion algebra are exactly the scalars."""
        return self.q1 == 0 and self.q2 == 0 and self.q3 == 0

    @property
    def is_pure(self) -> bool:
        return self.q0 == 0

    def _same_algebra(self, other: "Quaternion") -> None:
        _expect_quaternion(other)
        if self.algebra != other.algebra:
            raise ValueError("operands live in different quaternion algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._same_algebra(other)
        return Quaternion(
            self.algebra,
            self.q0 + other.q0,
            self.q1 + other.q1,
            self.q2 + other.q2,
            self.q3 + other.q3,
        )

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        self._same_algebra(other)
        return self + (-other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.algebra, -self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other: Union["Quaternion", int, Fraction]) -> "Quaternion":
        if not isinstance(other, Quaternion):
            c = as_fraction(other)
            return Quaternion._unchecked(self.algebra, *[c * x for x in self.coords])
        self._same_algebra(other)
        an, ad, bn, bd = self.algebra._ints
        D, (p0, p1, p2, p3) = self._scaled()
        E, (r0, r1, r2, r3) = other._scaled()
        DE = D * E
        return Quaternion._unchecked(
            self.algebra,
            Fraction(ad * bd * p0 * r0 + an * bd * p1 * r1 + bn * ad * p2 * r2 - an * bn * p3 * r3,
                     DE * ad * bd),
            Fraction(bd * (p0 * r1 + p1 * r0) + bn * (p3 * r2 - p2 * r3), DE * bd),
            Fraction(ad * (p0 * r2 + p2 * r0) + an * (p1 * r3 - p3 * r1), DE * ad),
            Fraction(p0 * r3 + p3 * r0 + p1 * r2 - p2 * r1, DE),
        )

    def __rmul__(self, other: Union[int, Fraction]) -> "Quaternion":
        return self * other

    def conj(self) -> "Quaternion":
        return Quaternion(self.algebra, self.q0, -self.q1, -self.q2, -self.q3)

    def _scaled(self) -> tuple[int, tuple[int, int, int, int]]:
        """(D, (n0, n1, n2, n3)) with q_i = n_i/D over D, the lcm of the denominators."""
        D = math.lcm(*[x.denominator for x in self.coords])
        return D, tuple([x.numerator * (D // x.denominator) for x in self.coords])

    def _norm_ints(self) -> tuple[int, int, int, int, tuple[int, int, int, int]]:
        """(E, c, x, D, n) with q_i = n_i/D, q0^2 = c/E, E = D^2*den(alpha)*den(beta) and
        alpha*q1^2 + beta*q2^2 - alpha*beta*q3^2 = x/E: N(q) = (c - x)/E, (q^2)_0 = (c + x)/E."""
        an, ad, bn, bd = self.algebra._ints
        D, n = self._scaled()
        n0, n1, n2, n3 = n
        x = an * bd * n1 * n1 + bn * ad * n2 * n2 - an * bn * n3 * n3
        return D * D * ad * bd, ad * bd * n0 * n0, x, D, n

    def norm(self) -> Fraction:
        """Reduced norm q * conj(q), a rational scalar."""
        E, c, x, _, _ = self._norm_ints()
        return Fraction(c - x, E)

    def square(self) -> "Quaternion":
        """q*q via the closed form (2*q0^2 - N(q)) + 2*q0*(pure part of q)."""
        E, c, x, D, (n0, *pure) = self._norm_ints()
        pure = [Fraction(2 * n0 * n, D * D) for n in pure] if n0 else (_ZERO, _ZERO, _ZERO)
        return Quaternion._unchecked(self.algebra, Fraction(c + x, E), *pure)

    def _squares_to(self, t0: Fraction, t1: Fraction, t2: Fraction, t3: Fraction) -> bool:
        """Whether q*q = t0 + t1*i + t2*j + t3*k: (c + x)/E and 2*n0*n_i/D^2, cross-multiplied."""
        E, c, x, D, (n0, n1, n2, n3) = self._norm_ints()
        m, DD = 2 * n0, D * D
        return ((c + x) * t0.denominator == t0.numerator * E
                and m * n1 * t1.denominator == t1.numerator * DD
                and m * n2 * t2.denominator == t2.numerator * DD
                and m * n3 * t3.denominator == t3.numerator * DD)

    def __str__(self) -> str:
        return f"{self.q0} + {self.q1}*i + {self.q2}*j + {self.q3}*k"


def _expect_quaternion(q: object) -> None:
    if not isinstance(q, Quaternion):
        raise TypeError(f"expected a Quaternion, got {type(q).__name__}")


def sqrt_noncentral(q: Quaternion) -> Optional[Quaternion]:
    """A square root of a non-central quaternion, or None.

    r^2 = q forces N(r)^2 = N(q) and 2*r0^2 - N(r) = q0, so r0^2 is one of
    (q0 +- d)/2 with d^2 = N(q); the pure part of r is then q_pure / (2*r0).
    The (q0 + d)/2 candidate is tried first. Square tests read unreduced
    integer pairs, so none takes a gcd.
    """
    _expect_quaternion(q)
    if q.is_central:
        raise ValueError("argument must not be central")
    # Over E, N(q) = (c - x)/E, sqrt(N(q)) = s/E, and q0 = n0*K/E with K = E/D.
    E, c, x, D, (n0, *pure) = q._norm_ints()
    s = _sqrt_ratio(c - x, E)
    if s is None:
        return None
    K = E // D
    for m in (n0 * K + s, n0 * K - s):
        # r0^2 = m/(2E), so r0 = t/(2E) and r_i = q_i/(2*r0) = n_i*K/t.
        t = _sqrt_ratio(m, 2 * E)
        if not t:
            continue
        root = Quaternion._unchecked(q.algebra, Fraction(t, 2 * E),
                                     *[Fraction(n * K, t) for n in pure])
        if not root._squares_to(*q.coords):
            raise RuntimeError("non-central root candidate failed re-squaring")
        return root
    return None


def _resquared(root: Quaternion, a: Fraction, branch: str) -> Quaternion:
    """root, once its one squaring is checked to be the scalar a, coordinate by coordinate."""
    if not root._squares_to(a, _ZERO, _ZERO, _ZERO):
        raise RuntimeError(f"{branch} root failed re-squaring")
    return root


def sqrt_central_split(algebra: QuaternionAlgebra, a: RationalLike) -> Quaternion:
    """A root of the central element a in a split algebra; never fails.

    The pure norm form of a split algebra is isotropic, hence universal, so a
    pure quaternion of norm -a (which squares to a) always exists. With the
    form's entries E/F, the cached isotropic vector N/M and a = A/D, it is
    `isotropic_to_universal`'s W on ints: W_k = (delta_ik*Q + P*N_k)/Q with
    P = -A*F - E_i*D and Q = 2*D*E_i*N_i, one Fraction per coordinate.
    """
    a = as_fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    if not algebra.is_split():
        raise ValueError("the algebra does not split")
    return _sqrt_split(algebra, a)


def _sqrt_split(algebra: QuaternionAlgebra, a: Fraction) -> Quaternion:
    F, E, N, i = algebra._pure_ints
    A, D = a.numerator, a.denominator
    P, Q = -A * F - E[i] * D, 2 * D * E[i] * N[i]
    w = [Fraction(P * n + Q if k == i else P * n, Q) for k, n in enumerate(N)]
    return _resquared(Quaternion._unchecked(algebra, _ZERO, *w), a, "split central")


def sqrt_central_nonsplit(
    algebra: QuaternionAlgebra, a: RationalLike
) -> Optional[Quaternion]:
    """A root of the central element a in a non-split algebra, or None.

    Scalar, i- and j-aligned shortcut roots are tried first. Otherwise a
    root exists iff Q(sqrt a) embeds, i.e. a is a local square at no place
    where the algebra ramifies, which factors nothing of a. Then the binary
    forms <a, -alpha> and <beta, -alpha*beta>, anisotropic since neither
    a*alpha nor alpha is a square, have a common value d for the search.
    Its certificates a*m0^2 - alpha*v^2 = d = beta*l0^2 - alpha*beta*l1^2
    give the pure root r = (v*i + l0*j + l1*k)/m0, since
    r^2 = (alpha*v^2 + beta*l0^2 - alpha*beta*l1^2)/m0^2 = a.
    """
    a = as_fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    if algebra.is_split():
        raise ValueError("the algebra splits; use sqrt_central_split")
    if (c := is_square(a)) is not None:
        root = Quaternion._unchecked(algebra, c, _ZERO, _ZERO, _ZERO)
        return _resquared(root, a, "non-split central")
    return _sqrt_nonsplit(algebra, a)


def _sqrt_nonsplit(algebra: QuaternionAlgebra, a: Fraction) -> Optional[Quaternion]:
    """sqrt_central_nonsplit for an a that is not a rational square."""
    an, ad, bn, bd = algebra._ints
    n, d = a.numerator, a.denominator
    # a*alpha = n*an/(d*ad) is the square of r/(d*ad), so r/(d*an) squares to a/alpha.
    if (r := _sqrt_ratio(n * an, d * ad)) is not None:
        root = Quaternion._unchecked(algebra, _ZERO, Fraction(r, d * an), _ZERO, _ZERO)
    elif (r := _sqrt_ratio(n * bn, d * bd)) is not None:
        root = Quaternion._unchecked(algebra, _ZERO, _ZERO, Fraction(r, d * bn), _ZERO)
    elif any(is_local_square(a, v) for v in algebra._ramified):
        return None
    else:
        (A, B), (nA, nAB), Ca = algebra._classes, algebra._entries, _Classed(a)
        # The certificate conics' coefficients -b1/b0: alpha/a and alpha.
        _, (m0, v), (l0, l1) = _search_common_value((Ca, nA), (B, nAB), (A / Ca, A))
        # m0 = 0 would make (v, l0, l1) a zero of the anisotropic pure norm form.
        root = Quaternion._unchecked(algebra, _ZERO, (v if a > 0 else -v) / m0, l0 / m0, l1 / m0)
    return _resquared(root, a, "non-split central")


def sqrt(q: Quaternion) -> Optional[Quaternion]:
    """An exact square root of q, or None when q has none.

    Dispatch: non-central values to the non-central routine; central values
    a to the scalar root when a is a square in Q (0 included), otherwise to
    the split or non-split central kernel, each fact decided once. Every
    root is re-squared once before it is returned.
    """
    _expect_quaternion(q)
    if not q.is_central:
        return sqrt_noncentral(q)
    algebra, a = q.algebra, q.q0
    if (c := is_square(a)) is not None:
        return _resquared(Quaternion._unchecked(algebra, c, _ZERO, _ZERO, _ZERO), a, "scalar")
    return (_sqrt_split if algebra.is_split() else _sqrt_nonsplit)(algebra, a)
