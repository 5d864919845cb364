"""Quaternion algebras (alpha, beta | Q) and exact square roots.

The algebra has basis 1, i, j, k with i^2 = alpha, j^2 = beta and
k = ij = -ji. Square roots split into cases: non-central elements reduce to
square tests on the norm, central elements to isotropy and norm equations of
the attached quadratic forms. Each routine re-squares the root it builds,
once, and `sqrt` returns that root as it is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .forms import DiagonalForm, _isotropic_at, _solve_conic, _universal
from .hilbert import _obstruction
from .rationals import RationalLike, _Classed, _Value, as_fraction, is_square
from .sqclasses import _common_value


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
        return self._split

    @cached_property
    def _classes(self) -> tuple[_Classed, _Classed]:
        """alpha and beta with their classes: the algebra's only factorizations."""
        return _Classed(self.alpha), _Classed(self.beta)

    @cached_property
    def _split(self) -> bool:
        A, B = self._classes
        v = _obstruction(A.cls, B.cls)
        if v is not None and _isotropic_at([x.cls[0] for x in (-A, -B, A * B)], v):
            raise RuntimeError(f"the pure norm form is isotropic at the obstruction {v}")
        return v is None

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
        if not isinstance(other, Quaternion):
            raise TypeError(f"expected a Quaternion, got {type(other).__name__}")
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
            return Quaternion(
                self.algebra, c * self.q0, c * self.q1, c * self.q2, c * self.q3
            )
        self._same_algebra(other)
        a, b = self.algebra.alpha, self.algebra.beta
        p0, p1, p2, p3 = self.coords
        r0, r1, r2, r3 = other.coords
        return Quaternion(
            self.algebra,
            p0 * r0 + a * p1 * r1 + b * p2 * r2 - a * b * p3 * r3,
            p0 * r1 + p1 * r0 - b * p2 * r3 + b * p3 * r2,
            p0 * r2 + p2 * r0 + a * p1 * r3 - a * p3 * r1,
            p0 * r3 + p3 * r0 + p1 * r2 - p2 * r1,
        )

    def __rmul__(self, other: Union[int, Fraction]) -> "Quaternion":
        return self * other

    def conj(self) -> "Quaternion":
        return Quaternion(self.algebra, self.q0, -self.q1, -self.q2, -self.q3)

    def norm(self) -> Fraction:
        """Reduced norm q * conj(q), a rational scalar."""
        a, b = self.algebra.alpha, self.algebra.beta
        return (
            self.q0 * self.q0
            - a * self.q1 * self.q1
            - b * self.q2 * self.q2
            + a * b * self.q3 * self.q3
        )

    def square(self) -> "Quaternion":
        """q*q via the closed form (2*q0^2 - N(q)) + 2*q0*(pure part of q)."""
        doubled = 2 * self.q0
        return Quaternion(
            self.algebra,
            2 * self.q0 * self.q0 - self.norm(),
            doubled * self.q1,
            doubled * self.q2,
            doubled * self.q3,
        )

    def __str__(self) -> str:
        return f"{self.q0} + {self.q1}*i + {self.q2}*j + {self.q3}*k"


def sqrt_noncentral(q: Quaternion) -> Optional[Quaternion]:
    """A square root of a non-central quaternion, or None.

    r^2 = q forces N(r)^2 = N(q) and 2*r0^2 - N(r) = q0, so r0^2 is one of
    (q0 +- d)/2 with d^2 = N(q); the pure part of r is then q_pure / (2*r0).
    The (q0 + d)/2 candidate is tried first.
    """
    if q.is_central:
        raise ValueError("argument must not be central")
    d = is_square(q.norm())
    if d is None:
        return None
    for r0_squared in ((q.q0 + d) / 2, (q.q0 - d) / 2):
        r0 = is_square(r0_squared)
        if r0 is None or r0 == 0:
            continue
        half = 1 / (2 * r0)
        root = Quaternion(q.algebra, r0, q.q1 * half, q.q2 * half, q.q3 * half)
        if root.square() != q:
            raise RuntimeError("non-central root candidate failed re-squaring")
        return root
    return None


def sqrt_central_split(algebra: QuaternionAlgebra, a: RationalLike) -> Quaternion:
    """A root of the central element a in a split algebra; never fails.

    The pure norm form of a split algebra is isotropic, hence universal, so a
    pure quaternion of norm -a (which squares to a) always exists.
    """
    a = as_fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    if not algebra.is_split():
        raise ValueError("the algebra does not split")
    # The cached isotropic vector was checked when built, and the root's
    # re-squaring below checks the norm -a it hits.
    w = _universal(algebra.pure_norm_form().entries, algebra._pure_isotropic_vector, -a)
    root = Quaternion(algebra, 0, w[0], w[1], w[2])
    if root.square() != algebra.scalar(a):
        raise RuntimeError("split central root failed re-squaring")
    return root


def sqrt_central_nonsplit(
    algebra: QuaternionAlgebra, a: RationalLike
) -> Optional[Quaternion]:
    """A root of the central element a in a non-split algebra, or None.

    Scalar, i- and j-aligned shortcut roots are tried first. Otherwise a
    root exists iff the binary forms <a, -alpha> and <beta, -alpha*beta>
    represent a common value d. Its certificates a*m0^2 - alpha*v^2 = d =
    beta*l0^2 - alpha*beta*l1^2 give the pure root r = (v*i + l0*j + l1*k)/m0,
    since r^2 = (alpha*v^2 + beta*l0^2 - alpha*beta*l1^2)/m0^2 = a.
    """
    a = as_fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    if algebra.is_split():
        raise ValueError("the algebra splits; use sqrt_central_split")
    alpha, beta = algebra.alpha, algebra.beta
    if (c := is_square(a)) is not None:
        root = algebra.scalar(c)
    elif (c := is_square(a * alpha)) is not None:
        root = algebra.quaternion(0, c / alpha, 0, 0)
    elif (c := is_square(a * beta)) is not None:
        root = algebra.quaternion(0, 0, c / beta, 0)
    else:
        A, B = algebra._classes
        found = _common_value((_Classed(a), -A), (B, -(A * B)))
        if found is None:
            return None
        _, (m0, v), (l0, l1) = found
        # m0 = 0 would make (v, l0, l1) a zero of the anisotropic pure norm form.
        root = algebra.quaternion(0, (v if a > 0 else -v) / m0, l0 / m0, l1 / m0)
    if root.square() != algebra.scalar(a):
        raise RuntimeError("non-split central root failed re-squaring")
    return root


def sqrt(q: Quaternion) -> Optional[Quaternion]:
    """An exact square root of q, or None when q has none.

    Dispatch: non-central values to the non-central routine; central values
    a to the scalar root when a is a square in Q (0 included), otherwise to
    the split or non-split central routine. Each routine re-squares its root
    before returning it; the scalar root is re-squared here.
    """
    a = q.q0
    if not q.is_central:
        return sqrt_noncentral(q)
    if (c := is_square(a)) is None:
        if q.algebra.is_split():
            return sqrt_central_split(q.algebra, a)
        return sqrt_central_nonsplit(q.algebra, a)
    root = q.algebra.scalar(c)
    if root.square() != q:
        raise RuntimeError("scalar root failed re-squaring")
    return root
