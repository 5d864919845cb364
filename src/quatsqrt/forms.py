"""Diagonal quadratic forms over Q: isotropy, conics, represented values.

The computational core is solve_conic for x^2 - alpha*y^2 = c: the
conic's Legendre form decides solvability by Legendre's conditions, and
an exact solution is read off a single lattice reduction of that form
(Cremona-Rusin 2003, Simon 2005).

Values travel as `rationals._Classed`, which carries each one's square
class (s, primes of s), with s squarefree and value = s*t^2, to every local
test and to the Legendre form, whose primes are then all known.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .hilbert import _hasse, _symbol_squarefree
from .legendre import _legendre_zero
from .places import Place, _local_classes, _local_square, _places_over
from .rationals import (RationalLike, _Classed, _expect, _sqrt_ratio, _times, _Value, as_fraction,
                        is_square)

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

    def determinant(self) -> Fraction:
        out = Fraction(1)
        for a in self.entries:
            out *= a
        return out


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


def _isotropic(entries: Sequence[_Classed]) -> bool:
    """Hasse-Minkowski on the entries' square classes, dimension >= 3."""
    reps = [x.cls[0] for x in entries]
    return all(_isotropic_at(reps, v) for v in _places_over(p for x in entries for p in x.cls[1]))


def is_isotropic_local(form: DiagonalForm, v: Place) -> bool:
    """Whether the form has a nontrivial zero over the completion at v."""
    _expect(form, DiagonalForm)
    return _isotropic_at(_local_classes(form, v), v)


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
    return _isotropic([_Classed(x) for x in form])


def _solve_conic(alpha: _Classed, c: _Classed) -> Optional[tuple[Fraction, Fraction]]:
    """solve_conic on nonzero classed values; a square alpha reads no class.

    A square alpha makes the conic a pair of lines, solved directly. A
    non-square alpha = s_a*t_a^2 and c = s_c*t_c^2 turn x^2 - alpha*y^2 = c
    into the Legendre form g*X^2 - (s_a/g)*Y^2 - (s_c/g)*Z^2 = 0, with
    g = gcd(s_a, s_c), x = t_c*g*X/Z and y = t_c*Y/(t_a*Z); Z != 0 since
    s_a != 1; the conic is unsolvable exactly when that form has no zero.
    """
    root = is_square(alpha.q)
    if root is not None:
        x, y = abs((c.q + 1) / 2), abs((c.q - 1) / (2 * root))
        if x * x - alpha.q * y * y != c.q:
            raise RuntimeError("conic solution failed its exact check")
        return x, y
    (sa, pa), (sc, pc) = alpha.cls, c.cls
    g = math.gcd(sa, sc)
    common = set(pa) & set(pc)
    rest = ([p for p in pa if p not in common], [p for p in pc if p not in common])
    zero = _legendre_zero(g, -sa // g, -sc // g, common, *rest)
    if zero is None:
        return None
    # On ints: t_a = ra/da and t_c = rc/dc, the roots of alpha/s_a and c/s_c
    # read off their unreduced pairs, and x = xn/xd, y = yn/yd.
    (X, Y, Z), (an, ad), (cn, cd) = zero, alpha.q.as_integer_ratio(), c.q.as_integer_ratio()
    da, dc = ad * abs(sa), cd * abs(sc)
    ra, rc = _sqrt_ratio(abs(an), da), _sqrt_ratio(abs(cn), dc)
    xn, xd, yn, yd = abs(rc * g * X), dc * abs(Z), abs(rc * Y * da), dc * abs(ra * Z)
    if (xn * xn * yd * yd * ad - an * yn * yn * xd * xd) * cd != cn * ad * (xd * yd) ** 2:
        raise RuntimeError("conic solution failed its exact check")
    return Fraction(xn, xd), Fraction(yn, yd)


def solve_conic(
    alpha: RationalLike, c: RationalLike
) -> Optional[tuple[Fraction, Fraction]]:
    """An exact rational solution (x, y) of x^2 - alpha*y^2 = c, or None.

    When alpha is a square the conic is a split pair of lines and a solution
    is written down directly, factoring nothing. Otherwise alpha and c are
    factored once each, solvability is decided by Legendre's conditions,
    which are the symbols (alpha, c)_v at the real place and the form's
    primes, and a solution is read off one lattice reduction of the conic's
    Legendre form (see `legendre._legendre_zero`). The solution has x >= 0
    and y >= 0, and leaves through one exact check of the equation.
    """
    alpha, c = _Classed(alpha), _Classed(c)
    if alpha.q == 0 or c.q == 0:
        raise ValueError("conic parameters must be nonzero")
    return _solve_conic(alpha, c)


def isotropic_vector(form: DiagonalForm) -> Optional[Vector]:
    """A nontrivial exact zero of a ternary form, or None when anisotropic."""
    _expect(form, DiagonalForm)
    if form.dim != 3:
        raise ValueError("isotropic_vector expects a ternary form")
    a, b, c = form.entries
    # (x, y, 1) is a zero: it is solve_conic's checked x^2 + (b/a)*y^2 = -c/a times a.
    sol = solve_conic(-b / a, -c / a)
    return None if sol is None else (*sol, Fraction(1))


def represents(form: DiagonalForm, d: RationalLike) -> Optional[tuple[Fraction, Fraction]]:
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
