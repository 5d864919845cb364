"""Hilbert symbols over Q and Hasse invariants of diagonal forms.

The local formulas are the classical ones (see e.g. Serre, A Course in
Arithmetic, ch. III): at the real place the symbol is -1 exactly for two
negatives; at an odd prime it is built from Legendre symbols of the unit
parts; at 2 from the residues (u-1)/2 and (u^2-1)/8. A symbol or invariant
at one place reads each argument's class at that place only, factoring nothing.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

from .legendre import _legendre
from .places import Place, _local_classes, _places_over
from .rationals import RationalLike, _Class


def _eps(u: int) -> int:
    # (u-1)/2 mod 2: is the odd integer u congruent to 3 mod 4?
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    # (u^2-1)/8 mod 2: is the odd integer u congruent to +-3 mod 8?
    return ((u * u - 1) // 8) % 2


def _symbol_squarefree(sa: int, sb: int, v: Place) -> int:
    """Hilbert symbol at v of two nonzero integers of valuation 0 or 1 at v:
    squarefree integers, or `_local_classes` values at v."""
    if v.is_real:
        return -1 if sa < 0 and sb < 0 else 1
    p = v.prime
    if sa % p == 0:
        ea, u = 1, sa // p
    else:
        ea, u = 0, sa
    if sb % p == 0:
        eb, w = 1, sb // p
    else:
        eb, w = 0, sb
    if p == 2:
        exp = _eps(u) * _eps(w) + ea * _omega(w) + eb * _omega(u)
        return -1 if exp % 2 else 1
    sym = -1 if (ea * eb * ((p - 1) // 2)) % 2 else 1
    if eb:
        sym *= _legendre(u, p)
    if ea:
        sym *= _legendre(w, p)
    return sym


def _obstructions(a: _Class, b: _Class) -> Iterator[Place]:
    """The places where the Hilbert symbol of two square classes is -1, ascending."""
    return (v for v in _places_over(a[1] + b[1]) if _symbol_squarefree(a[0], b[0], v) == -1)


def _hasse(reps: Sequence[int], v: Place) -> int:
    """prod_{i<j} (s_i, s_j)_v over representatives s_i as `_symbol_squarefree` takes them."""
    return math.prod(_symbol_squarefree(a, b, v) for a, b in itertools.combinations(reps, 2))


def hilbert_symbol(a: RationalLike, b: RationalLike, v: Place) -> int:
    """(a, b)_v: +1 when z^2 = a*x^2 + b*y^2 has a nontrivial zero over the
    completion at v, -1 otherwise."""
    return _symbol_squarefree(*_local_classes((a, b), v), v)


def hasse_invariant(form: Iterable[RationalLike], v: Place) -> int:
    """prod_{i<j} (a_i, a_j)_v over the diagonal entries; +1 in dimension <= 1."""
    return _hasse(_local_classes(form, v), v)
