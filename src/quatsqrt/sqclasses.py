"""Square classes of Q singular at a finite prime set, and common values.

common_value finds one rational represented by both of two binary forms (or
proves the intersection empty). Candidates are confined to square classes
supported on a finite prime set; representability at each relevant place
turns into a linear condition over GF(2), and the system is grown by
appending primes until it becomes solvable. _common_value hands back the
certificates too, (d, represents(xi, d), represents(zeta, d)), for reuse.

The system is built once over the starting places (real, 2, the entries'
primes) and columns (-1, the starting primes), each row kept sparse as the
set of columns whose symbol is -1 plus its rhs bit. An appended prime q adds
only its column's entries at the starting places: everything else at q is a
symbol of two units, +1, so q's own row is (D, q)_q with rhs 0. If that is
-1 for either discriminant D, q's exponent is forced to 0 and q can change
neither solvability nor the solution, so it is skipped without a solve and
not counted toward the prime-append cap. Columns stay ascending, so
Gauss-Jordan picks the d a system rebuilt every round would pick.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .forms import DiagonalForm, _isotropic, _square_class, _times, represents
from .hilbert import _symbol_squarefree
from .places import Place, _places_over, iter_primes
from .rationals import RationalLike, as_fraction, factor, is_prime, is_square, squarefree_part

_PRIME_APPEND_CAP = 64


@dataclass(frozen=True)
class SquareClass:
    """A square class of Q*, represented by its unique squarefree integer."""

    representative: int

    def __post_init__(self) -> None:
        if self.representative == 0:
            raise ValueError("zero is not a square class")
        s, t = squarefree_part(self.representative)
        if t != 1:
            raise ValueError(f"{self.representative} is not squarefree")

    @classmethod
    def of(cls, q: RationalLike) -> "SquareClass":
        s, _ = squarefree_part(q)
        return cls(s)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass.of(self.representative * other.representative)

    def is_singular_for(self, primes: Iterable[int]) -> bool:
        """Even valuation everywhere outside the given primes."""
        allowed = set(primes)
        return all(p in allowed for p, _ in factor(self.representative).factors)


@dataclass(frozen=True)
class SingularBasis:
    """The GF(2) basis (-1, p_1, ..., p_s) of the classes singular at {p_i}."""

    primes: tuple[int, ...]
    classes: tuple[SquareClass, ...]

    def __post_init__(self) -> None:
        expected = (SquareClass(-1),) + tuple(SquareClass(p) for p in self.primes)
        if self.classes != expected:
            raise ValueError("basis must be (-1, p_1, ..., p_s) in ascending order")

    @property
    def dim(self) -> int:
        return len(self.classes)

    def spanned(self, exponents: Sequence[int]) -> Fraction:
        """The class representative with the given exponent vector."""
        if len(exponents) != self.dim:
            raise ValueError("exponent vector has the wrong length")
        return Fraction(
            math.prod(
                cls.representative
                for cls, e in zip(self.classes, exponents)
                if e % 2
            )
        )


def singular_basis(primes: Iterable[int]) -> SingularBasis:
    """Basis of the square classes with support inside the given primes."""
    ps = tuple(sorted(primes))
    if len(set(ps)) != len(ps):
        raise ValueError("prime set has repeated entries")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    classes = (SquareClass(-1),) + tuple(SquareClass(p) for p in ps)
    return SingularBasis(primes=ps, classes=classes)


@dataclass(frozen=True)
class GF2System:
    """A linear system over GF(2): rows as column bitmasks, one rhs bit per row."""

    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.rhs):
            raise ValueError("rows and rhs lengths differ")
        if self.ncols < 0:
            raise ValueError("negative column count")
        for mask in self.rows:
            if mask < 0 or mask >> self.ncols:
                raise ValueError("row mask outside the column range")
        if any(b not in (0, 1) for b in self.rhs):
            raise ValueError("rhs entries must be bits")


def solve_gf2(system: GF2System) -> Optional[tuple[int, ...]]:
    """One solution of the system (free variables set to 0), or None.

    Gauss-Jordan elimination on rows augmented with their rhs bit; a leftover
    zero-row with rhs 1 means the system is inconsistent.
    """
    n = system.ncols
    rows = [mask | (bit << n) for mask, bit in zip(system.rows, system.rhs)]
    pivot_row: dict[int, int] = {}
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> col & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> col & 1:
                rows[i] ^= rows[rank]
        pivot_row[col] = rank
        rank += 1
    if any(rows[i] for i in range(rank, len(rows))):
        return None
    out = [0] * n
    for col, i in pivot_row.items():
        out[col] = rows[i] >> n & 1
    return tuple(out)


def _bit(sym: int) -> int:
    # Hilbert symbols and real signs live in {+1, -1}; map to additive GF(2).
    return (1 - sym) // 2


_Certified = tuple[Fraction, tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _certified(xi: DiagonalForm, zeta: DiagonalForm, d: RationalLike) -> _Certified:
    d = as_fraction(d)
    rep_xi, rep_zeta = represents(xi, d), represents(zeta, d)
    if rep_xi is None or rep_zeta is None:
        raise RuntimeError("common value failed its representation certificates")
    return d, rep_xi, rep_zeta


def common_value(xi: DiagonalForm, zeta: DiagonalForm) -> Optional[Fraction]:
    """A nonzero rational represented by both binary forms, or None.

    Isotropic inputs are universal, so the other form's first entry works.
    Otherwise the 4-dimensional difference form must be isotropic for the
    intersection to be nonempty; a candidate square class is then solved for
    over GF(2), appending primes (ascending, deterministically) until the
    local conditions admit a solution. The result is re-verified against both
    forms before being returned.
    """
    found = _common_value(xi, zeta)
    return None if found is None else found[0]


def _common_value(xi: DiagonalForm, zeta: DiagonalForm) -> Optional[_Certified]:
    if xi.dim != 2 or zeta.dim != 2:
        raise ValueError("common_value expects binary forms")
    x0, x1 = xi.entries
    z0, z1 = zeta.entries
    if is_square(-x0 * x1) is not None:
        return _certified(xi, zeta, z0)
    if is_square(-z0 * z1) is not None:
        return _certified(xi, zeta, x0)
    (sx0, px0), (sx1, px1), (sz0, pz0), (sz1, pz1) = map(_square_class, (x0, x1, z0, z1))
    if not _isotropic([(sx0, px0), (sx1, px1), (-sz0, pz0), (-sz1, pz1)]):
        return None
    start = sorted({2, *px0, *px1, *pz0, *pz1})
    places = _places_over(start)
    columns = [-1, *start]
    # <b0, b1> represents d at v iff (-b0*b1, d)_v = (b0, b1)_v. Squarefree
    # parts stand for the six classes read, so no round factors anything.
    sx, sz = _times(-sx0, sx1), _times(-sz0, sz1)
    # One row per discriminant and starting place: the columns whose symbol
    # is -1, and the rhs bit.
    rows = [
        (disc, v, {c for c in columns if _symbol_squarefree(disc, c, v) == -1},
         _bit(_symbol_squarefree(b0, b1, v)))
        for disc, b0, b1 in ((sx, sx0, sx1), (sz, sz0, sz1))
        for v in places
    ]
    appended = (q for q in iter_primes() if q not in start)
    for counted in itertools.count():
        index = {c: k for k, c in enumerate(columns)}
        live = [(sum(1 << index[c] for c in neg), b) for _, _, neg, b in rows if neg or b]
        eps = solve_gf2(GF2System(tuple(m for m, _ in live), tuple(b for _, b in live), len(columns)))
        if eps is not None:
            return _certified(xi, zeta, math.prod(c for c, e in zip(columns, eps) if e))
        if counted == _PRIME_APPEND_CAP:
            raise RuntimeError("common-value search exceeded the prime-append cap")
        # q is odd and outside the starting primes, so the discriminants, rhs
        # entries and earlier columns are all units at q: their symbols at q
        # are +1. Of q's own row only (D, q)_q is left; -1 forces eps_q = 0.
        q = next(
            q for q in appended
            if all(_symbol_squarefree(disc, q, Place._unchecked(q)) == 1 for disc in (sx, sz))
        )
        for disc, v, neg, _ in rows:
            if _symbol_squarefree(disc, q, v) == -1:
                neg.add(q)
        bisect.insort(columns, q)
