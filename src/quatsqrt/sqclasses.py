"""Square classes of Q singular at a finite prime set, and common values.

common_value finds one rational represented by both of two binary forms, or
proves the intersection empty. Candidates are confined to square classes
supported on a finite prime set; representability at each relevant place is
a linear condition over GF(2), and primes are appended until the system is
solvable. _common_value takes the forms' Fraction entries and returns d with
a certificate (u, v), b0*u^2 + b1*v^2 = d, for each form <b0, b1>. If one form
is isotropic, d is the other's first entry, certified there by (1, 0), and
nothing is factored. Otherwise the search, _search_common_value, takes the
entries' classes (s, primes of s) and returns d's factors, and `_certificate`
solves each certificate conic on integers, for `sqrt` too.

The system is built once: columns -1 and the starting primes (2 and the
entries' primes), ascending, and one row, a column bitmask and an rhs bit,
per discriminant D and place, the real one and each odd starting prime. The
real row is read off signs: (D, c) = -1 only for c = -1 when D < 0, and the
rhs only when both entries are negative. At an odd p every symbol is one
Legendre symbol, and no Place is built: (u, p)_p = (u/p) for a p-unit u and
two p-units give +1. A narrow row (p not dividing D) reads only column p, as
(D/p); a wide row (p | D) reads (c/p) at each p-unit column c, computed once
for both D, (-1/p) and (2/p) off p mod 8, and (-(D/p)/p) at column p. The
rhs (b0, b1)_p is read only when p divides an entry: (b1/p) or (b0/p) when
it divides one, (-u*w/p) for b0 = p*u, b1 = p*w. An appended prime q adds
(q/p) at each wide row, and its own row is (D, q)_q = (D/q) with rhs 0; if
that is -1 for either D, q's exponent is forced to 0, so q is skipped
without a solve and not counted toward the prime-append cap. No row at 2: by
reciprocity each column's and the rhs symbols multiply to +1 over the real
place, 2, the starting primes and the counted q, which hold every -1, so
each form's row at 2 is the sum of its others. Columns stay ascending and
`solve_gf2` returns the unique reduced echelon form's solution, so it picks
the d a system rebuilt every round would.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .forms import DiagonalForm, _conic, _isotropic, solve_conic
from .legendre import _legendre
from .places import iter_primes
from .rationals import _Class, _class_times, _expect, _square_class, _times, is_prime, is_square

_PRIME_APPEND_CAP = 64
_Pair = tuple[Fraction, Fraction]


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


def solve_gf2(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> tuple[int, ...] | None:
    """One solution of the GF(2) system (free variables set to 0), or None.

    The search's internal step, unchecked: each row is a bitmask of columns
    below ncols, and each rhs entry a bit, one per row.

    Row by row: each row, augmented with its rhs bit, is reduced by the pivot
    rows whose pivot bits it holds, lowest first; a row left with only its rhs
    bit makes the system inconsistent, and any other becomes the pivot row of
    its lowest set bit. Back substitution from the highest pivot then gives
    the solution with free variables 0, which is Gauss-Jordan's.
    """
    n = ncols
    pivots: dict[int, int] = {}  # pivot bit -> its augmented row, no set bit below it
    held = 0  # the pivot bits
    for mask, bit in zip(rows, rhs):
        row = mask | bit << n
        while hits := row & held:  # a pivot row clears its bit and sets only higher ones
            row ^= pivots[hits & -hits]
        low = row & -row
        if low >> n:
            return None
        if low:
            pivots[low], held = row, held | low
    out, value = [0] * n, 0  # value: the pivot bits whose variable is 1
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        if (row >> n ^ (row & value).bit_count()) & 1:
            value |= low
            out[low.bit_length() - 1] = 1
    return tuple(out)


def _certificate(b0: tuple[int, int], cb: _Class, r: tuple[int, int], cr: _Class,
                 e: _Class) -> tuple[int, int, int, int]:
    """`_conic`'s (xn, xd, yn, yd) for u^2 - r*v^2 = e/b0: the certificate
    b0*u^2 + b1*v^2 = e of a form <b0, b1> with r = -b1/b0 not a square. b0
    and r come as (num, den > 0) pairs with their classes, and the common
    value e, a squarefree integer, as its own class (e, primes of e)."""
    (n, d), s = b0, e[0]
    sol = _conic(r, cr, (s * d if n > 0 else -s * d, abs(n)), _class_times(cb, e))
    if sol is None:
        raise RuntimeError("common value failed its representation certificates")
    return sol


def common_value(xi: DiagonalForm, zeta: DiagonalForm) -> Fraction | None:
    """A nonzero rational represented by both binary forms, or None.

    Isotropic inputs are universal, so the other form's first entry works,
    certified there by (1, 0), and nothing is factored. Otherwise the
    4-dimensional difference form must be isotropic for the intersection to
    be nonempty; a candidate square class is then solved for over GF(2),
    appending primes (ascending, deterministically) until the local
    conditions admit a solution. d is returned only once each form's
    certificate (u, v) with b0*u^2 + b1*v^2 = d is solved and exactly checked.
    """
    _expect(xi, DiagonalForm)
    _expect(zeta, DiagonalForm)
    if xi.dim != 2 or zeta.dim != 2:
        raise ValueError("common_value expects binary forms")
    found = _common_value(xi.entries, zeta.entries)
    return None if found is None else found[0]


def _common_value(xi: Sequence[Fraction],
                  zeta: Sequence[Fraction]) -> tuple[Fraction, _Pair, _Pair] | None:
    """(d, (u, v) for xi, (u, v) for zeta) with b0*u^2 + b1*v^2 = d for each
    form's entries (b0, b1), or None when no common value exists."""
    # An isotropic form is universal, so the other's first entry is a common
    # value: (1, 0) there, and a pair of lines here, which reads no class.
    (x0, x1), (z0, z1) = xi, zeta
    if is_square(-x0 * x1) is not None:
        return z0, solve_conic(-x1 / x0, z0 / x0), (Fraction(1), Fraction(0))
    if is_square(-z0 * z1) is not None:
        return x0, (Fraction(1), Fraction(0)), solve_conic(-z1 / z0, x0 / z0)
    classes = [[_square_class(x) for x in form] for form in (xi, zeta)]
    if not _isotropic([*classes[0], *[(-s, primes) for s, primes in classes[1]]]):
        return None
    factors = _search_common_value(*classes)
    e = (math.prod(factors), [p for p in factors if p > 0])
    # <b0, b1> is read as u^2 - r*v^2 = e/b0, r = -b1/b0 in the class of -b0*b1.
    certs = [_certificate(b0.as_integer_ratio(), c0, (-b1 / b0).as_integer_ratio(),
                          _class_times(c0, (-s1, p1)), e)
             for (b0, b1), (c0, (s1, p1)) in zip((xi, zeta), classes)]
    return Fraction(e[0]), *[(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in certs]


def _search_common_value(xi: Sequence[_Class], zeta: Sequence[_Class]) -> list[int]:
    """The GF(2) search on the entries' classes, for two anisotropic forms whose
    values meet: the factors, from -1 and the primes, of the common value."""
    columns = [-1, *sorted({2, *(p for _, primes in (*xi, *zeta) for p in primes)})]
    # <b0, b1> represents d at v iff (-b0*b1, d)_v = (b0, b1)_v. Squarefree
    # parts stand for the six classes, so no round factors anything.
    (sx0, sx1), (sz0, sz1) = ((b0[0], b1[0]) for b0, b1 in (xi, zeta))
    sx, sz = _times(-sx0, sx1), _times(-sz0, sz1)
    # At each p dividing either D, the mask of the columns c != p with (c/p) = -1.
    wide = {p: (p % 4 == 3) | (p % 8 in (3, 5)) << 1
            | sum(1 << k for k, c in enumerate(columns[2:], 2) if c != p and _legendre(c, p) == -1)
            for p in columns[2:] if sx % p == 0 or sz % p == 0}
    # One row per D and place, the real one first: its mask, rhs bit, and p at a
    # wide row, where appended primes enter, else None. Column k is bit k.
    rows = []
    for disc, b0, b1 in ((sx, sx0, sx1), (sz, sz0, sz1)):
        rows.append((int(disc < 0), int(b0 < 0 and b1 < 0), None))
        for k, p in enumerate(columns[2:], 2):
            wp = p if disc % p == 0 else None
            unit = b1 if b1 % p else b0 if b0 % p else -(b0 // p) * (b1 // p)
            minus = b0 * b1 % p == 0 and _legendre(unit, p) == -1
            own = _legendre(disc if wp is None else -(disc // p), p) == -1
            rows.append((wide.get(wp, 0) | own << k, int(minus), wp))
    (masks, rhs, at), appended = zip(*rows), (q for q in iter_primes() if q not in columns)
    for counted in itertools.count():
        eps = solve_gf2(masks, rhs, len(columns))
        if eps is not None:
            return [c for c, e in zip(columns, eps) if e]
        if counted == _PRIME_APPEND_CAP:
            raise RuntimeError("common-value search exceeded the prime-append cap")
        # q is odd and outside the starting primes, so the discriminants, rhs
        # entries and earlier columns are all units at q: their symbols at q
        # are +1. Of q's own row only (D, q)_q = (D/q) is left; -1 forces eps_q = 0.
        q = next(q for q in appended if _legendre(sx, q) == 1 == _legendre(sz, q))
        # q's column is bit k, the bits above move up one; it holds (q/p) at wide rows.
        k = bisect.bisect(columns, q)
        columns.insert(k, q)
        low, neg = (1 << k) - 1, {p for p in wide if _legendre(q, p) == -1}
        masks = [m & low | (m & ~low) << 1 | (p in neg) << k for m, p in zip(masks, at)]
