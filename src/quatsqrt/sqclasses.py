"""Square classes of Q singular at a finite prime set, and common values.

common_value finds one rational represented by both of two binary forms (or
proves the intersection empty). Candidates are confined to square classes
supported on a finite prime set; representability at each relevant place
turns into a linear condition over GF(2), and the system is grown by
appending primes until it becomes solvable. _common_value hands back the
certificates too, (d, represents(xi, d), represents(zeta, d)), for reuse.
It decides existence, and its search, _search_common_value, takes only
two anisotropic forms whose values are known to meet.

The system is built once, columns -1 and the starting primes (2 and the
entries' primes), rows the real place and the odd starting primes, each row
kept sparse as the set of columns whose symbol is -1 plus its rhs bit. The
real row is read off signs: (D, c) = -1 only for c = -1 when D < 0, and the
rhs only when both entries are negative. A symbol of two p-units at an odd p
is +1, so a row at an odd p that does not divide its discriminant D reads
only column p, and its rhs only when p divides the entries; an appended
prime q adds its column's entries only at the odd primes of D, and q's own
row is (D, q)_q with rhs 0. If that is -1 for either D, q's exponent is
forced to 0 and q can change neither solvability nor the solution, so it is
skipped without a solve and not counted toward the prime-append cap. There
is no row at 2: by Hilbert reciprocity each column's symbols, and the rhs
symbols, multiply to +1 over the real place, 2, the starting primes and the
counted q (whose rows are zero), which hold every -1; so each form's row at
2 is the sum of its others, and the row space is the same. Columns stay
ascending, so Gauss-Jordan picks the d a system rebuilt every round would.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .forms import DiagonalForm, _isotropic, _solve_conic
from .hilbert import _symbol_squarefree
from .places import Place, iter_primes
from .rationals import RationalLike, _Classed, _square_class, _times, _Value, is_prime, is_square

_PRIME_APPEND_CAP = 64


class SquareClass(_Value):
    """A square class of Q*, represented by its unique squarefree integer."""

    _fields = ("representative",)
    representative: int

    def __init__(self, representative: int) -> None:
        if representative == 0:
            raise ValueError("zero is not a square class")
        if _square_class(representative)[0] != representative:
            raise ValueError(f"{representative} is not squarefree")
        self._set(representative)

    @classmethod
    def of(cls, q: RationalLike) -> "SquareClass":
        return cls(_square_class(q)[0])

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(_times(self.representative, other.representative))

    def is_singular_for(self, primes: Iterable[int]) -> bool:
        """Even valuation everywhere outside the given primes."""
        return set(_square_class(self.representative)[1]) <= set(primes)


class SingularBasis(_Value):
    """The GF(2) basis (-1, p_1, ..., p_s) of the classes singular at {p_i}."""

    _fields = ("primes", "classes")
    primes: tuple[int, ...]
    classes: tuple[SquareClass, ...]

    def __init__(self, primes: tuple[int, ...], classes: tuple[SquareClass, ...]) -> None:
        if any(p >= q for p, q in zip(primes, primes[1:])):
            raise ValueError("primes must be ascending and distinct")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"not a prime: {p}")
        reps = tuple(c.representative for c in classes if isinstance(c, SquareClass))
        if len(reps) != len(classes) or reps != (-1, *primes):
            raise ValueError("basis must be (-1, p_1, ..., p_s) in ascending order")
        self._set(primes, classes)

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
    for p in ps:
        # Before SquareClass(p) factors it: a large composite takes seconds.
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    return SingularBasis(primes=ps, classes=(SquareClass(-1), *(SquareClass(p) for p in ps)))


class GF2System(_Value):
    """A linear system over GF(2): rows as column bitmasks, one rhs bit per row."""

    _fields = ("rows", "rhs", "ncols")
    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    ncols: int

    def __init__(self, rows: tuple[int, ...], rhs: tuple[int, ...], ncols: int) -> None:
        if len(rows) != len(rhs):
            raise ValueError("rows and rhs lengths differ")
        if ncols < 0:
            raise ValueError("negative column count")
        for mask in rows:
            if mask < 0 or mask >> ncols:
                raise ValueError("row mask outside the column range")
        if any(b not in (0, 1) for b in rhs):
            raise ValueError("rhs entries must be bits")
        self._set(rows, rhs, ncols)

    @classmethod
    def _unchecked(cls, rows: tuple[int, ...], rhs: tuple[int, ...], ncols: int) -> "GF2System":
        """A system whose caller has built its masks inside ncols and its rhs as bits."""
        system = object.__new__(cls)
        system._set(rows, rhs, ncols)
        return system


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


def _certified(xi: Sequence[_Classed], zeta: Sequence[_Classed], d: _Classed) -> _Certified:
    """d with its certificates: <b0, b1> represents d by (u, v) with u^2 +
    (b1/b0)*v^2 = d/b0, the conic solved, times b0."""
    reps = [_solve_conic(-b1 / b0, d / b0) for b0, b1 in (xi, zeta)]
    if None in reps:
        raise RuntimeError("common value failed its representation certificates")
    return d.q, reps[0], reps[1]


def common_value(xi: DiagonalForm, zeta: DiagonalForm) -> Optional[Fraction]:
    """A nonzero rational represented by both binary forms, or None.

    Isotropic inputs are universal, so the other form's first entry works.
    Otherwise the 4-dimensional difference form must be isotropic for the
    intersection to be nonempty; a candidate square class is then solved for
    over GF(2), appending primes (ascending, deterministically) until the
    local conditions admit a solution. The result is re-verified against both
    forms before being returned.
    """
    if xi.dim != 2 or zeta.dim != 2:
        raise ValueError("common_value expects binary forms")
    found = _common_value(*([_Classed(x) for x in form] for form in (xi, zeta)))
    return None if found is None else found[0]


def _common_value(xi: Sequence[_Classed], zeta: Sequence[_Classed]) -> Optional[_Certified]:
    # An isotropic form is universal, so the other's first entry is a common
    # value. Its certificate conic is a pair of lines, which reads no class.
    for form, other in ((xi, zeta), (zeta, xi)):
        if is_square(-form[0].q * form[1].q) is not None:
            return _certified(xi, zeta, other[0])
    return _search_common_value(xi, zeta) if _isotropic([*xi, -zeta[0], -zeta[1]]) else None


def _search_common_value(xi: Sequence[_Classed], zeta: Sequence[_Classed]) -> _Certified:
    """The GF(2) search, for two anisotropic forms whose values meet."""
    start = sorted({2, *(p for x in (*xi, *zeta) for p in x.cls[1])})
    columns = [-1, *start]
    # <b0, b1> represents d at v iff (-b0*b1, d)_v = (b0, b1)_v. Squarefree
    # parts stand for the six classes, so no round factors anything.
    (sx0, sx1), (sz0, sz1) = ((b0.cls[0], b1.cls[0]) for b0, b1 in (xi, zeta))
    sx, sz = _times(-sx0, sx1), _times(-sz0, sz1)
    # One row per discriminant and place: (disc, v, rhs bit, the columns whose
    # symbol is -1), v set only where appended primes enter, at primes of disc.
    rows = []
    for disc, b0, b1 in ((sx, sx0, sx1), (sz, sz0, sz1)):
        rows.append((disc, None, int(b0 < 0 and b1 < 0), {-1} if disc < 0 else set()))
        for p in start[1:]:
            v, wide = Place._unchecked(p), disc % p == 0
            rhs = _bit(_symbol_squarefree(b0, b1, v)) if b0 * b1 % p == 0 else 0
            neg = {c for c in (columns if wide else [p]) if _symbol_squarefree(disc, c, v) == -1}
            rows.append((disc, v if wide else None, rhs, neg))
    appended = (q for q in iter_primes() if q not in start)
    for counted in itertools.count():
        index = {c: k for k, c in enumerate(columns)}
        live = [(sum(1 << index[c] for c in neg), b) for _, _, b, neg in rows if neg or b]
        masks, bits = tuple(m for m, _ in live), tuple(b for _, b in live)
        eps = solve_gf2(GF2System._unchecked(masks, bits, len(columns)))
        if eps is not None:
            return _certified(xi, zeta, _Classed._squarefree([c for c, e in zip(columns, eps) if e]))
        if counted == _PRIME_APPEND_CAP:
            raise RuntimeError("common-value search exceeded the prime-append cap")
        # q is odd and outside the starting primes, so the discriminants, rhs
        # entries and earlier columns are all units at q: their symbols at q
        # are +1. Of q's own row only (D, q)_q is left; -1 forces eps_q = 0.
        q = next(
            q for q in appended
            if all(_symbol_squarefree(disc, q, Place._unchecked(q)) == 1 for disc in (sx, sz))
        )
        for disc, v, _, neg in rows:
            if v is not None and _symbol_squarefree(disc, q, v) == -1:
                neg.add(q)
        bisect.insort(columns, q)
