"""Diagonal quadratic forms over Q: isotropy, conics, represented values.

The computational core is solve_conic for x^2 - alpha*y^2 = c: the
conic's Legendre form decides solvability by Legendre's conditions, and
an exact solution is read off a single lattice reduction of that form
(Cremona-Rusin 2003, Simon 2005).

Each value comes with its square class (s, primes of s), s squarefree and
value = s*t^2, so every local test and Legendre form knows its primes. The
one conic kernel, `_conic`, works on integer pairs, for every non-square alpha.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .hilbert import _hasse, _symbol_squarefree
from .legendre import _legendre_zero
from .places import Place, _local_square, _places_over
from .rationals import (RationalLike, _Class, _expect, _sqrt_ratio, _square_class, _times, _Value,
                        as_fraction, is_square)

Vector = tuple[Fraction, ...]


class DiagonalForm(_Value):
    """<a_1, ..., a_n>: the form a_1*x_1^2 + ... + a_n*x_n^2, entries nonzero."""

    _fields = ("entries",)
    entries: tuple[Fraction, ...]

    def __init__(self, entries: Sequence[RationalLike]) -> None:
        _expect(entries, Iterable)
        entries = tuple(as_fraction(x) for x in entries)
        if not entries:
            raise ValueError("a diagonal form needs at least one entry")
        if any(x == 0 for x in entries):
            raise ValueError("diagonal entries must be nonzero")
        self._set(entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __call__(self, vec: Sequence[RationalLike]) -> Fraction:
        vec = tuple(as_fraction(x) for x in vec)
        if len(vec) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got {len(vec)}")
        return sum((a * x * x for a, x in zip(self.entries, vec)), Fraction(0))


def _isotropic_at(reps: Sequence[int], v: Place) -> bool:
    """Local isotropy at v of a diagonal form given by its entries' classes."""
    n, det = len(reps), functools.reduce(_times, reps)
    if v.is_real:
        return min(reps) < 0 < max(reps)
    if n <= 2:
        return n == 2 and _local_square(-det, v)
    if n >= 5:
        return True
    hasse = _hasse(reps, v)
    if n == 3:
        return hasse == _symbol_squarefree(-1, -det, v)
    return not (_local_square(det, v) and hasse == -_symbol_squarefree(-1, -1, v))


def _isotropic(classes: Sequence[_Class]) -> bool:
    """Hasse-Minkowski on the entries' square classes, dimension >= 3."""
    reps = [s for s, _ in classes]
    return all(_isotropic_at(reps, v) for v in _places_over(p for _, ps in classes for p in ps))


def is_isotropic(form: DiagonalForm) -> bool:
    """Whether the form has a nontrivial rational zero.

    Dimensions 1 and 2 are settled by an exact square test; from dimension 3
    on, Hasse-Minkowski reduces the question to the real place, 2, and the
    odd primes appearing in the entries' squarefree parts.
    """
    _expect(form, DiagonalForm)
    n = form.dim
    if n == 1:
        return False
    if n == 2:
        return is_square(-form.entries[0] * form.entries[1]) is not None
    return _isotropic([_square_class(x) for x in form])


def _conic(alpha: tuple[int, int], ca: _Class, c: tuple[int, int],
           cc: _Class) -> tuple[int, int, int, int] | None:
    """(xn, xd, yn, yd), all >= 0, with x = xn/xd and y = yn/yd solving
    x^2 - alpha*y^2 = c, or None.

    alpha, not a square, and c come as (num, den > 0) pairs, not necessarily
    reduced, with their classes: alpha = s_a*t_a^2 and c = s_c*t_c^2 give the
    Legendre form g*X^2 - (s_a/g)*Y^2 - (s_c/g)*Z^2, g = gcd(s_a, s_c), and
    x = t_c*g*X/Z, y = t_c*Y/(t_a*Z) for its zero; Z != 0 since s_a != 1, and
    the conic is unsolvable exactly when the form has no zero.
    """
    (sa, pa), (sc, pc) = ca, cc
    g = math.gcd(sa, sc)  # the primes of both divide it, and no other
    zero = _legendre_zero(g, -sa // g, -sc // g, [p for p in pa if g % p == 0],
                          [p for p in pa if g % p], [p for p in pc if g % p])
    if zero is None:
        return None
    # t_a = ra/da and t_c = rc/dc, the roots of alpha/s_a and c/s_c.
    (X, Y, Z), (an, ad), (cn, cd) = zero, alpha, c
    da, dc = ad * abs(sa), cd * abs(sc)
    ra, rc = _sqrt_ratio(abs(an), da), _sqrt_ratio(abs(cn), dc)
    xn, xd, yn, yd = abs(rc * g * X), dc * abs(Z), abs(rc * Y * da), dc * abs(ra * Z)
    if (xn * xn * yd * yd * ad - an * yn * yn * xd * xd) * cd != cn * ad * (xd * yd) ** 2:
        raise RuntimeError("conic solution failed its exact check")
    return xn, xd, yn, yd


def solve_conic(alpha: RationalLike, c: RationalLike) -> tuple[Fraction, Fraction] | None:
    """An exact rational solution (x, y) of x^2 - alpha*y^2 = c, or None.

    When alpha is a square the conic is a split pair of lines and a solution
    is written down directly, factoring nothing. Otherwise alpha and c are
    factored once each, solvability is decided by Legendre's conditions,
    which are the symbols (alpha, c)_v at the real place and the form's
    primes, and a solution is read off one lattice reduction of the conic's
    Legendre form (see `legendre._legendre_zero`). The solution has x >= 0
    and y >= 0, and leaves through one exact check of the equation.
    """
    alpha, c = as_fraction(alpha), as_fraction(c)
    if alpha == 0 or c == 0:
        raise ValueError("conic parameters must be nonzero")
    root = is_square(alpha)
    if root is not None:
        x, y = abs((c + 1) / 2), abs((c - 1) / (2 * root))
        if x * x - alpha * y * y != c:
            raise RuntimeError("conic solution failed its exact check")
        return x, y
    sol = _conic(alpha.as_integer_ratio(), _square_class(alpha), c.as_integer_ratio(),
                 _square_class(c))
    return None if sol is None else (Fraction(sol[0], sol[1]), Fraction(sol[2], sol[3]))


def isotropic_vector(form: DiagonalForm) -> Vector | None:
    """A nontrivial exact zero of a ternary form, or None when anisotropic."""
    _expect(form, DiagonalForm)
    if form.dim != 3:
        raise ValueError("isotropic_vector expects a ternary form")
    a, b, c = form.entries
    # (x, y, 1) is a zero: it is solve_conic's checked x^2 + (b/a)*y^2 = -c/a times a.
    sol = solve_conic(-b / a, -c / a)
    return None if sol is None else (*sol, Fraction(1))


def represents(form: DiagonalForm, d: RationalLike) -> tuple[Fraction, Fraction] | None:
    """(u, v) with x0*u^2 + x1*v^2 = d for a binary form <x0, x1>, or None."""
    _expect(form, DiagonalForm)
    if form.dim != 2:
        raise ValueError("represents expects a binary form")
    d = as_fraction(d)
    if d == 0:
        raise ValueError("the represented value must be nonzero")
    x0, x1 = form.entries
    # The certificate is solve_conic's checked u^2 + (x1/x0)*v^2 = d/x0, times x0.
    return solve_conic(-x1 / x0, d / x0)
