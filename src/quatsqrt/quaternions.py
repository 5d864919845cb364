"""Quaternion algebras (alpha, beta | Q) and exact square roots.

The algebra has basis 1, i, j, k with i^2 = alpha, j^2 = beta and
k = ij = -ji. Square roots split into cases: non-central elements reduce to
square tests on the norm, central elements to isotropy and norm equations of
the attached quadratic forms. Each branch builds its root on integers, and
`_checked_root` re-squares it once, cross-multiplying every coordinate of the
square with the target's, before building its Fractions from those integers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .forms import _conic, _isotropic_at
from .hilbert import _obstructions
from .places import Place, _local_square
from .rationals import (RationalLike, _Class, _class_times, _expect, _sqrt_ratio, _square_class,
                        _Value, as_fraction)
from .sqclasses import _certificate, _search_common_value

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

    def is_split(self) -> bool:
        """Whether the algebra is isomorphic to 2x2 matrices over Q.

        Decided once per algebra: it splits iff (alpha, beta)_v = +1 at every
        place v. A "no" is certified at the first place where the symbol is -1,
        which must find the pure norm form anisotropic; a "yes" by the pure
        norm form's isotropic vector, checked exactly when a root needs it.
        """
        return not self._ramified

    @cached_property
    def _classes(self) -> tuple[_Class, _Class, _Class]:
        """The classes of alpha, beta and alpha*beta: the algebra's only factorizations."""
        A, B = _square_class(self.alpha), _square_class(self.beta)
        return A, B, _class_times(A, B)

    @cached_property
    def _ints(self) -> tuple[int, int, int, int]:
        """alpha and beta as (numerator, denominator) integers, the denominators positive."""
        a, b = self.alpha, self.beta
        return a.numerator, a.denominator, b.numerator, b.denominator

    @cached_property
    def _ramified(self) -> list[Place]:
        """Every place v with (alpha, beta)_v = -1, ascending; empty iff the algebra splits."""
        A, B, AB = self._classes
        places = list(_obstructions(A, B))
        if places and _isotropic_at([-A[0], -B[0], AB[0]], places[0]):
            raise RuntimeError(f"the pure norm form is isotropic at the obstruction {places[0]}")
        return places

    @cached_property
    def _pure_ints(self) -> tuple[int, tuple[int, int, int], tuple[int, int, int], int]:
        """(F, E, N, i) for split roots: F = den(alpha)*den(beta), E = F * the pure norm
        form's entries, N its primitive isotropic vector, checked on integers, i the first
        k with N_k != 0. Split algebras only; a race at worst repeats the work."""
        an, ad, bn, bd = self._ints
        if (r := _sqrt_ratio(an, ad)) is not None:
            # alpha = (r/ad)^2, and (0, r/ad, 1) vanishes: -beta*alpha + alpha*beta = 0.
            N = (0, r, ad)
        else:
            # (1, x, y) with x^2 - alpha*y^2 = -alpha/beta, the sign of c on its numerator.
            A, _, (s, primes) = self._classes
            sol = _conic((an, ad), A, (-an * bd if bn > 0 else an * bd, ad * abs(bn)), (-s, primes))
            if sol is None:
                raise RuntimeError("split algebra is missing an isotropic vector")
            xn, xd, yn, yd = sol
            N = (xd * yd, xn * yd, yn * xd)
        g, E = math.gcd(*N), (-an * bd, -bn * ad, an * bn)
        N = (N[0] // g, N[1] // g, N[2] // g)
        if E[0] * N[0] ** 2 + E[1] * N[1] ** 2 + E[2] * N[2] ** 2 != 0:
            raise RuntimeError("isotropic vector construction failed")
        return ad * bd, E, N, next(k for k, n in enumerate(N) if n)


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
        _expect(algebra, QuaternionAlgebra)
        self._set(algebra, as_fraction(q0), as_fraction(q1), as_fraction(q2), as_fraction(q3))

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.q0, self.q1, self.q2, self.q3)

    @property
    def is_central(self) -> bool:
        """Central elements of a quaternion algebra are exactly the scalars."""
        return self.q1 == 0 and self.q2 == 0 and self.q3 == 0

    def _same_algebra(self, other: "Quaternion") -> None:
        _expect(other, Quaternion)
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

    def __mul__(self, other: Quaternion | int | Fraction) -> "Quaternion":
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

    def __rmul__(self, other: int | Fraction) -> "Quaternion":
        return self * other

    def _scaled(self) -> tuple[int, tuple[int, int, int, int]]:
        """(D, (n0, n1, n2, n3)) with q_i = n_i/D, D the lcm of the as_integer_ratio() pairs."""
        (n0, d0), (n1, d1), (n2, d2), (n3, d3) = (
            self.q0.as_integer_ratio(), self.q1.as_integer_ratio(),
            self.q2.as_integer_ratio(), self.q3.as_integer_ratio())
        D = math.lcm(d0, d1, d2, d3)
        return D, (n0 * (D // d0), n1 * (D // d1), n2 * (D // d2), n3 * (D // d3))

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

    def __str__(self) -> str:
        return f"{self.q0} + {self.q1}*i + {self.q2}*j + {self.q3}*k"


def _checked_root(algebra: QuaternionAlgebra, x0: int, y0: int, pure: Sequence[int],
                  y: int, D: int, n: Sequence[int], what: str) -> Quaternion:
    """x0/y0 + (x1*i + x2*j + x3*k)/y, built from these pairs once its square, with scalar
    part x0^2/y0^2 + (alpha*x1^2 + beta*x2^2 - alpha*beta*x3^2)/y^2 and pure parts
    2*x0*x_i/(y0*y), is checked to be n/D by cross-multiplying on integers."""
    an, ad, bn, bd = algebra._ints
    (x1, x2, x3), (n0, n1, n2, n3) = pure, n
    F, yy, m, w = ad * bd * y * y, y0 * y0, 2 * x0 * D, y0 * y
    P = an * bd * x1 * x1 + bn * ad * x2 * x2 - an * bn * x3 * x3
    if not ((x0 * x0 * F + P * yy) * D == n0 * yy * F
            and m * x1 == n1 * w and m * x2 == n2 * w and m * x3 == n3 * w):
        raise RuntimeError(f"{what} failed re-squaring")
    return Quaternion._unchecked(algebra, Fraction(x0, y0) if x0 else _ZERO, Fraction(x1, y),
                                 Fraction(x2, y), Fraction(x3, y))


def _sqrt_noncentral(q: Quaternion) -> Quaternion | None:
    """A root of a non-central q, or None.

    r^2 = q forces N(r)^2 = N(q) and 2*r0^2 - N(r) = q0, so r0^2 is one of
    (q0 +- d)/2 with d^2 = N(q), the + candidate first, and the pure part of r
    is q_pure / (2*r0). Square tests read unreduced integer pairs, so none
    takes a gcd; the root's pairs (t, 2E) and (n_i*K, t) are checked against
    q's own (D, n).
    """
    # Over E, N(q) = (c - x)/E, sqrt(N(q)) = s/E, and q0 = n0*K/E with K = E/D.
    E, c, x, D, n = q._norm_ints()
    s = _sqrt_ratio(c - x, E)
    if s is None:
        return None
    n0, n1, n2, n3 = n
    K = E // D
    for m in (n0 * K + s, n0 * K - s):
        # r0^2 = m/(2E), so r0 = t/(2E) and r_i = q_i/(2*r0) = n_i*K/t.
        t = _sqrt_ratio(m, 2 * E)
        if t:
            return _checked_root(q.algebra, t, 2 * E, (n1 * K, n2 * K, n3 * K), t, D, n,
                                 "non-central root candidate")
    return None


def _sqrt_split(algebra: QuaternionAlgebra, A: int, D: int) -> Quaternion:
    """The pure root of a = A/D != 0 in a split algebra; never fails.

    The pure norm form of a split algebra is isotropic, hence universal: with
    its cached isotropic vector V, i the first index with V_i != 0 and c the
    form's i-th entry, W = e_i + ((-a - c)/(2*c*V_i))*V has norm -a, so W
    squares to a. On ints, with the entries E/F and V = N/M, W_k = w_k/Q with
    w_k = delta_ik*Q + P*N_k, P = -A*F - E_i*D and Q = 2*D*E_i*N_i, checked
    with the algebra's own alpha and beta, not the cached E and F.
    """
    F, E, N, i = algebra._pure_ints
    P, Q = -A * F - E[i] * D, 2 * D * E[i] * N[i]
    w = [P * n + Q if k == i else P * n for k, n in enumerate(N)]
    return _checked_root(algebra, 0, 1, w, Q, D, (A, 0, 0, 0), "split central root")


def _sqrt_nonsplit(algebra: QuaternionAlgebra, n: int, d: int) -> Quaternion | None:
    """The root of a = n/d, in lowest terms and not a rational square, in a
    non-split algebra, or None.

    A root exists iff Q(sqrt a) embeds: a is a local square at no ramified
    place, tested first on n*d, which factors nothing of a. Roots along i or j
    (a*alpha or a*beta a square) pass it, as alpha and beta are non-squares
    wherever (alpha, beta)_v = -1. Otherwise <a, -alpha> and <beta, -alpha*beta>,
    anisotropic since neither a*alpha nor alpha is a square, have a common
    value e, searched on a's class and the algebra's. Its certificate conics
    a*m0^2 - alpha*v^2 = e = beta*l0^2 - alpha*beta*l1^2, solved on integers,
    give the pure root (v*i + l0*j + l1*k)/m0, of square
    (alpha*v^2 + beta*l0^2 - alpha*beta*l1^2)/m0^2 = a.
    """
    for v in algebra._ramified:
        if _local_square(n * d, v):
            return None
    an, ad, bn, bd = algebra._ints
    # a*alpha = n*an/(d*ad) is the square of r/(d*ad), so r/(d*an) squares to a/alpha.
    if (r := _sqrt_ratio(n * an, d * ad)) is not None:
        pure, y = (r, 0, 0), d * an
    elif (r := _sqrt_ratio(n * bn, d * bd)) is not None:
        pure, y = (0, r, 0), d * bn
    else:
        (A, B, (sAB, pAB)), C = algebra._classes, _square_class(Fraction(n, d))
        E, s = _search_common_value((C, (-A[0], A[1])), (B, (-sAB, pAB))), 1 if n > 0 else -1
        # On (num, den > 0) pairs, signs on the numerators, for e = E[0]:
        # m0^2 - (alpha/a)*v^2 = e/a and l0^2 - alpha*l1^2 = e/beta.
        cm = _certificate((n, d), C, (s * an * d, ad * abs(n)), _class_times(C, A), E)
        cl = _certificate((bn, bd), B, (an, ad), A, E)
        # m0 = 0 would make (v, l0, l1) a zero of the anisotropic pure norm form.
        # (+-v*i + l0*j + l1*k)/m0, v's sign a's, over num(m0)*den(v)*den(l0)*den(l1).
        (xn1, xd1, yn1, yd1), (xn2, xd2, yn2, yd2) = cm, cl
        pure = (s * yn1 * xd1 * xd2 * yd2, xn2 * xd1 * yd1 * yd2, yn2 * xd1 * yd1 * xd2)
        y = xn1 * yd1 * xd2 * yd2
    g = math.gcd(y, *pure)  # the check multiplies the root's pairs in lowest terms
    return _checked_root(algebra, 0, 1, [x // g for x in pure], y // g, d, (n, 0, 0, 0),
                         "non-split central root")


def sqrt(q: Quaternion) -> Quaternion | None:
    """An exact square root of q, or None when q has none.

    Dispatch: non-central values to `_sqrt_noncentral`; a central a = n/d,
    read once, to the scalar root when a is a square in Q (0 included), else
    to the split or non-split central kernel on (n, d), each fact decided
    once. Every root is re-squared once, by `_checked_root`.
    """
    _expect(q, Quaternion)
    if not q.is_central:
        return _sqrt_noncentral(q)
    algebra, (n, d) = q.algebra, q.q0.as_integer_ratio()
    if (r := _sqrt_ratio(n, d)) is not None:
        return _checked_root(algebra, r, d, (0, 0, 0), 1, d, (n, 0, 0, 0), "scalar root")
    return (_sqrt_split if algebra.is_split() else _sqrt_nonsplit)(algebra, n, d)
