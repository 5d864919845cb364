"""Quaternion algebras (alpha, beta | Q) and exact square roots.

The algebra has basis 1, i, j, k with i^2 = alpha, j^2 = beta and
k = ij = -ji. Square roots split into cases: non-central elements reduce to
square tests on the norm, central elements to isotropy and norm equations of
the attached quadratic forms. Each branch re-squares the root it builds,
once, on integers: every coordinate of the square is cross-multiplied with
the target's, and `sqrt` returns that root as it is. `_checked_root` checks
every root on the integer pairs its Fractions are then built from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .forms import DiagonalForm, _isotropic_at, _solve_conic
from .hilbert import _obstructions
from .places import Place, _local_square
from .rationals import RationalLike, _Classed, _expect, _sqrt_ratio, _Value, as_fraction, is_square
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
        _expect(algebra, QuaternionAlgebra)
        self._set(algebra, as_fraction(q0), as_fraction(q1), as_fraction(q2), as_fraction(q3))

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


def _sqrt_noncentral(q: Quaternion) -> Optional[Quaternion]:
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


def _sqrt_nonsplit(algebra: QuaternionAlgebra, n: int, d: int) -> Optional[Quaternion]:
    """The root of a = n/d, in lowest terms and not a rational square, in a
    non-split algebra, or None.

    A root exists iff Q(sqrt a) embeds, i.e. a is a local square at no ramified
    place; this is tested first, on n*d, and factors nothing of a. Roots along
    i or j (a*alpha or a*beta a square) pass it: alpha and beta are non-squares
    wherever (alpha, beta)_v = -1. Otherwise <a, -alpha> and
    <beta, -alpha*beta>, anisotropic since neither a*alpha nor alpha is a
    square, have a common value d for the search. Its certificates
    a*m0^2 - alpha*v^2 = d = beta*l0^2 - alpha*beta*l1^2 give the pure root
    (v*i + l0*j + l1*k)/m0, which squares to
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
        (A, B), (nA, nAB), Ca = algebra._classes, algebra._entries, _Classed(Fraction(n, d))
        # The certificate conics' coefficients -b1/b0: alpha/a and alpha.
        _, (m0, v), (l0, l1) = _search_common_value((Ca, nA), (B, nAB), (A / Ca, A))
        # m0 = 0 would make (v, l0, l1) a zero of the anisotropic pure norm form.
        # (+-v*i + l0*j + l1*k)/m0, v's sign a's, over y = num(m0) * the lcm L of their dens.
        xs = [(v if n > 0 else -v).as_integer_ratio(), l0.as_integer_ratio(), l1.as_integer_ratio()]
        (mn, md), L = m0.as_integer_ratio(), math.lcm(*[e for _, e in xs])
        pure, y = [x * md * (L // e) for x, e in xs], mn * L
    return _checked_root(algebra, 0, 1, pure, y, d, (n, 0, 0, 0), "non-split central root")


def sqrt(q: Quaternion) -> Optional[Quaternion]:
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
