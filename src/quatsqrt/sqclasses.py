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
rhs only when both entries are negative. At an odd p, (u, p)_p = (u/p) for
a p-unit u and two p-units give +1, so entries are Legendre symbols of unit
parts: a narrow row (p not dividing its discriminant D) reads only column p,
as (D/p), and its rhs only when p divides the entries; a wide row (p | D)
reads (c/p) at a p-unit column c and (-(D/p)/p) at column p. An appended
prime q adds (q/p) at each wide row, and q's own row is (D, q)_q = (D/q)
with rhs 0. If that is -1 for either D, q's exponent is forced to 0 and q
changes neither solvability nor the solution, so it is skipped without a
solve and not counted toward the prime-append cap. There is no row at 2: by
Hilbert reciprocity each column's symbols, and the rhs symbols, multiply to
+1 over the real place, 2, the starting primes and the counted q (whose rows
are zero), which hold every -1; so each form's row at 2 is the sum of its
others, and the row space is the same. Columns stay ascending and
`solve_gf2`, row by row, returns the unique reduced echelon form's
solution, so it picks the d a system rebuilt every round would.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import Optional

from .forms import DiagonalForm, _isotropic, _solve_conic
from .hilbert import _symbol_squarefree
from .legendre import _legendre
from .places import Place, iter_primes
from .rationals import _Classed, _expect, _times, _Value, is_prime, is_square

_PRIME_APPEND_CAP = 64


def singular_basis(primes: Iterable[int]) -> tuple[int, ...]:
    """(-1, p_1, ..., p_s) ascending: representatives of a GF(2) basis of the
    square classes with even valuation at every prime outside the given ones."""
    _expect(primes, Iterable)
    ps = sorted(primes)
    if any(p == q for p, q in zip(ps, ps[1:])):
        raise ValueError("primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    return (-1, *ps)


class GF2System(_Value):
    """A linear system over GF(2): rows as column bitmasks, one rhs bit per row."""

    _fields = ("rows", "rhs", "ncols")
    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    ncols: int

    def __init__(self, rows: tuple[int, ...], rhs: tuple[int, ...], ncols: int) -> None:
        _expect(rows, Sequence)
        _expect(rhs, Sequence)
        _expect(ncols, int)
        rows, rhs = tuple(rows), tuple(rhs)
        if len(rows) != len(rhs):
            raise ValueError("rows and rhs lengths differ")
        if ncols < 0:
            raise ValueError("negative column count")
        for mask in rows:
            _expect(mask, int)
            if mask < 0 or mask >> ncols:
                raise ValueError("row mask outside the column range")
        for b in rhs:
            _expect(b, int)
            if b not in (0, 1):
                raise ValueError("rhs entries must be bits")
        self._set(rows, rhs, ncols)


def solve_gf2(system: GF2System) -> Optional[tuple[int, ...]]:
    """One solution of the system (free variables set to 0), or None.

    Row by row: each row, augmented with its rhs bit, is reduced by the pivot
    rows so far; a row left with only its rhs bit makes the system
    inconsistent, and any other becomes the pivot row of its lowest set bit,
    which is cleared from the others. That is the unique reduced row echelon
    form, pivots in ascending columns, so the solution is Gauss-Jordan's.
    """
    _expect(system, GF2System)
    n = system.ncols
    pivots: dict[int, int] = {}  # pivot bit -> its reduced augmented row
    for mask, bit in zip(system.rows, system.rhs):
        row = mask | bit << n
        for low, pivot in pivots.items():
            if row & low:
                row ^= pivot
        low = row & -row
        if low >> n:
            return None
        if low:
            for other, pivot in pivots.items():
                if pivot & low:
                    pivots[other] = pivot ^ row
            pivots[low] = row
    out = [0] * n
    for low, row in pivots.items():
        out[low.bit_length() - 1] = row >> n
    return tuple(out)


def _bit(sym: int) -> int:
    # Hilbert symbols and real signs live in {+1, -1}; map to additive GF(2).
    return (1 - sym) // 2


_Certified = tuple[Fraction, tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _certified(xi: Sequence[_Classed], zeta: Sequence[_Classed], d: _Classed,
               conics: Optional[Sequence[_Classed]] = None) -> _Certified:
    """d with its certificates: <b0, b1> represents d by (u, v) with u^2 - c*v^2 =
    d/b0, c = -b1/b0 unless the caller hands the two c in, the conic solved."""
    conics = conics or [-b1 / b0 for b0, b1 in (xi, zeta)]
    reps = [_solve_conic(c, d / b0) for c, (b0, _) in zip(conics, (xi, zeta))]
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
    _expect(xi, DiagonalForm)
    _expect(zeta, DiagonalForm)
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


def _search_common_value(xi: Sequence[_Classed], zeta: Sequence[_Classed],
                         conics: Optional[Sequence[_Classed]] = None) -> _Certified:
    """The GF(2) search, for two anisotropic forms whose values meet; conics as `_certified`'s."""
    start = sorted({2, *(p for x in (*xi, *zeta) for p in x.cls[1])})
    columns = [-1, *start]
    # <b0, b1> represents d at v iff (-b0*b1, d)_v = (b0, b1)_v. Squarefree
    # parts stand for the six classes, so no round factors anything.
    (sx0, sx1), (sz0, sz1) = ((b0.cls[0], b1.cls[0]) for b0, b1 in (xi, zeta))
    sx, sz = _times(-sx0, sx1), _times(-sz0, sz1)
    # One row per discriminant D and place: (p at a wide row, where appended
    # primes enter, else None; rhs bit; the columns whose symbol is -1).
    rows = []
    for disc, b0, b1 in ((sx, sx0, sx1), (sz, sz0, sz1)):
        rows.append((None, int(b0 < 0 and b1 < 0), {-1} if disc < 0 else set()))
        for p in start[1:]:
            rhs = _bit(_symbol_squarefree(b0, b1, Place._unchecked(p))) if b0 * b1 % p == 0 else 0
            wide = disc % p == 0
            units = {c: -(disc // p) if c == p else c for c in columns} if wide else {p: disc}
            neg = {c for c, u in units.items() if _legendre(u, p) == -1}
            rows.append((p if wide else None, rhs, neg))
    appended = (q for q in iter_primes() if q not in start)
    for counted in itertools.count():
        index = {c: k for k, c in enumerate(columns)}
        live = [(sum(1 << index[c] for c in neg), b) for _, b, neg in rows if neg or b]
        masks, bits = tuple(m for m, _ in live), tuple(b for _, b in live)
        eps = solve_gf2(GF2System._unchecked(masks, bits, len(columns)))
        if eps is not None:
            d = _Classed._squarefree([c for c, e in zip(columns, eps) if e])
            return _certified(xi, zeta, d, conics)
        if counted == _PRIME_APPEND_CAP:
            raise RuntimeError("common-value search exceeded the prime-append cap")
        # q is odd and outside the starting primes, so the discriminants, rhs
        # entries and earlier columns are all units at q: their symbols at q
        # are +1. Of q's own row only (D, q)_q = (D/q) is left; -1 forces eps_q = 0.
        q = next(q for q in appended if _legendre(sx, q) == 1 == _legendre(sz, q))
        for p, _, neg in rows:
            if p is not None and _legendre(q, p) == -1:
                neg.add(q)
        bisect.insort(columns, q)
