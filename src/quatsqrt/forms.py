"""Diagonal quadratic forms over Q: isotropy, conics, represented values.

The computational core is solve_conic, a Lagrange-style descent for
x^2 - alpha*y^2 = c that either returns an exact rational solution or
proves there is none via local (Hilbert symbol) obstructions.

Each value is factored once by `rationals._square_class`, and its square
class (s, primes of s), with s squarefree and value = s*t^2, is carried to
every local test and descent step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .hilbert import _hasse, _obstruction, _symbol_squarefree
from .places import Place, _local_class, _places_over, is_local_square
from .rationals import RationalLike, _Class, _square_class, _times, as_fraction, is_square

Vector = tuple[Fraction, ...]


def _vector(seq: Sequence[RationalLike], dim: int) -> Vector:
    vec = tuple(as_fraction(x) for x in seq)
    if len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class DiagonalForm:
    """<a_1, ..., a_n>: the form a_1*x_1^2 + ... + a_n*x_n^2, entries nonzero."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        entries = tuple(as_fraction(x) for x in self.entries)
        if not entries:
            raise ValueError("a diagonal form needs at least one entry")
        if any(x == 0 for x in entries):
            raise ValueError("diagonal entries must be nonzero")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __call__(self, vec: Sequence[RationalLike]) -> Fraction:
        vec = _vector(vec, self.dim)
        return sum((a * x * x for a, x in zip(self.entries, vec)), Fraction(0))

    def polar(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Fraction:
        """The associated bilinear form, normalized so polar(v, v) = 2*form(v)."""
        u = _vector(u, self.dim)
        v = _vector(v, self.dim)
        return 2 * sum((a * x * y for a, x, y in zip(self.entries, u, v)), Fraction(0))

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
        return n == 2 and is_local_square(-det, v)
    if n >= 5:
        return True
    hasse = _hasse(reps, v)
    if n == 3:
        return hasse == _symbol_squarefree(-1, -det, v)
    return not (is_local_square(det, v) and hasse == -_symbol_squarefree(-1, -1, v))


def _isotropic(classes: Sequence[_Class]) -> bool:
    """Hasse-Minkowski on the entries' square classes, dimension >= 3."""
    reps = [s for s, _ in classes]
    return all(_isotropic_at(reps, v) for v in _places_over(p for c in classes for p in c[1]))


def is_isotropic_local(form: DiagonalForm, v: Place) -> bool:
    """Whether the form has a nontrivial zero over the completion at v."""
    return _isotropic_at([_local_class(x, v) for x in form], v)


def is_isotropic(form: DiagonalForm) -> bool:
    """Whether the form has a nontrivial rational zero.

    Dimensions 1 and 2 are settled by an exact square test; from dimension 3
    on, Hasse-Minkowski reduces the question to the real place, 2, and the
    odd primes appearing in the entries' squarefree parts.
    """
    n = form.dim
    if n == 1:
        return False
    if n == 2:
        return is_square(-form.entries[0] * form.entries[1]) is not None
    return _isotropic([_square_class(x) for x in form])


def _sqrt_mod_prime(n: int, p: int) -> Optional[int]:
    """A square root of n modulo the prime p (Tonelli-Shanks), or None."""
    n %= p
    if p == 2 or n == 0:
        return n
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _sqrt_mod_squarefree(a: int, primes: Sequence[int]) -> int:
    """A square root of a modulo a product of distinct primes, prime by prime."""
    r, mod = 0, 1
    for p in primes:
        rp = _sqrt_mod_prime(a, p)
        if rp is None:
            raise RuntimeError(f"{a} has no square root mod {p} during the descent")
        # CRT merge of (r mod mod) and (rp mod p)
        r += mod * ((rp - r) * pow(mod, -1, p) % p)
        mod *= p
    return r % mod


def _descend(a_class: _Class, c_class: _Class) -> tuple[Fraction, Fraction]:
    """Solve x^2 - a*y^2 = c for square classes a, c, assuming solvability.

    Classical Lagrange descent: replace c by c' = (t^2 - a)/c for a centered
    square root t of a mod |c|, strip the square part of c', and recurse;
    |c| strictly decreases, so this terminates.
    """
    (a, _), (c, c_primes) = a_class, c_class
    if c == 1:
        return Fraction(1), Fraction(0)
    if (a, c) == (-1, -1):
        raise RuntimeError("x^2 + y^2 = -1 reached the descent; inputs were not prechecked")
    if a == c:
        # a | x is forced, and the equation becomes u^2 - a*v^2 = -1.
        u, v = _descend(a_class, (-1, []))
        return a * v, u
    if abs(a) > abs(c):
        s, t = _descend(c_class, a_class)
        # t = 0 would force a to be a square, excluded above.
        return s / t, 1 / t
    t = _sqrt_mod_squarefree(a, c_primes)
    if t > abs(c) // 2:
        t -= abs(c)
    c_next, rem = divmod(t * t - a, c)
    if rem != 0:
        raise RuntimeError("descent invariant broken: c does not divide t^2 - a")
    # c_next != 0 since a is not a square; strip its square part.
    c2, c2_primes = _square_class(c_next)
    x1, y1 = _descend(a_class, (c2, c2_primes))
    den = c2 * math.isqrt(c_next // c2)
    return (t * x1 - a * y1) / den, (x1 - t * y1) / den


def solve_conic(
    alpha: RationalLike, c: RationalLike
) -> Optional[tuple[Fraction, Fraction]]:
    """An exact rational solution (x, y) of x^2 - alpha*y^2 = c, or None.

    When alpha is a square the conic is a split pair of lines and a solution
    is written down directly; otherwise solvability is decided by Hilbert
    symbols at the real place, 2, and the odd primes of the squarefree parts,
    and a solution is produced by descent on squarefree representatives.
    alpha and c are factored once and their classes carried through the descent.
    Either way the solution leaves through one exact check of the equation.
    """
    alpha = as_fraction(alpha)
    c = as_fraction(c)
    if alpha == 0 or c == 0:
        raise ValueError("conic parameters must be nonzero")
    root = is_square(alpha)
    if root is not None:
        x, y = (c + 1) / 2, (c - 1) / (2 * root)
    else:
        a_class, c_class = _square_class(alpha), _square_class(c)
        if _obstruction(a_class, c_class) is not None:
            return None
        ta, tc = is_square(alpha / a_class[0]), is_square(c / c_class[0])  # alpha = s * ta^2
        x, y = _descend(a_class, c_class)
        x, y = x * tc, y * tc / ta
    if x * x - alpha * y * y != c:
        raise RuntimeError("conic solution failed its exact check")
    return x, y


def isotropic_vector(form: DiagonalForm) -> Optional[Vector]:
    """A nontrivial exact zero of a ternary form, or None when anisotropic."""
    if form.dim != 3:
        raise ValueError("isotropic_vector expects a ternary form")
    a, b, c = form.entries
    # (x, y, 1) is a zero: it is solve_conic's checked x^2 + (b/a)*y^2 = -c/a times a.
    sol = solve_conic(-b / a, -c / a)
    return None if sol is None else (*sol, Fraction(1))


def isotropic_to_universal(
    form: DiagonalForm, vec: Sequence[RationalLike], target: RationalLike
) -> Vector:
    """A vector W with form(W) = target, built from an isotropic vector.

    An isotropic form represents everything: take the first standard basis
    vector U = e_i that pairs nontrivially with the isotropic vector V and
    return W = U + ((target - form(U)) / polar(U, V)) * V.
    """
    vec = _vector(vec, form.dim)
    target = as_fraction(target)
    if target == 0:
        raise ValueError("target value must be nonzero")
    if all(x == 0 for x in vec):
        raise ValueError("the isotropic vector must be nonzero")
    if form(vec) != 0:
        raise ValueError("vector is not isotropic for the form")
    i = next(k for k, (ak, vk) in enumerate(zip(form.entries, vec)) if ak * vk != 0)
    scale = (target - form.entries[i]) / (2 * form.entries[i] * vec[i])
    out = tuple(
        (Fraction(1) if k == i else Fraction(0)) + scale * vec[k]
        for k in range(form.dim)
    )
    if form(out) != target:
        raise RuntimeError("universal representation failed to hit the target")
    return out


def represents(form: DiagonalForm, d: RationalLike) -> Optional[tuple[Fraction, Fraction]]:
    """(u, v) with x0*u^2 + x1*v^2 = d for a binary form <x0, x1>, or None."""
    if form.dim != 2:
        raise ValueError("represents expects a binary form")
    d = as_fraction(d)
    if d == 0:
        raise ValueError("the represented value must be nonzero")
    x0, x1 = form.entries
    # The certificate is solve_conic's checked u^2 + (x1/x0)*v^2 = d/x0, times x0.
    return solve_conic(-x1 / x0, d / x0)
