"""Places of the rationals: valuations, real signs, local square tests."""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Optional, Union

from .legendre import _legendre
from .rationals import (RationalLike, _expect, _small_primes, _square_class, _Value, as_fraction,
                        is_prime)


class Place(_Value):
    """The real place (prime is None) or the finite place at a prime."""

    _fields = ("prime",)
    prime: Optional[int]

    def __init__(self, prime: Optional[int] = None) -> None:
        if prime is not None and not is_prime(prime):
            raise ValueError(f"not a prime: {prime}")
        self._set(prime)

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


REAL = Place.real()


def parse_place(text: str) -> Place:
    """Parse the CLI grammar: "inf" for the real place, a prime in ASCII digits otherwise."""
    if text == "inf":
        return REAL
    if not re.fullmatch("[0-9]+", text):
        raise ValueError(f"not a place: {text!r}")
    p = int(text)
    if not is_prime(p):
        raise ValueError(f"not a prime: {text}")
    return Place._unchecked(p)


def _strip(n: int, p: int) -> tuple[int, int]:
    """(k, m) with n = p**k * m and p not dividing m, for nonzero n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def valuation(q: RationalLike, p: Union[int, Place]) -> int:
    """p-adic valuation of a nonzero rational, p prime; negative when p divides the denominator."""
    if isinstance(p, Place):
        if p.is_real:
            raise ValueError("valuation needs a finite place")
        p = p.prime
    elif not isinstance(p, int):
        raise TypeError(f"expected an int or Place, got {type(p).__name__}")
    elif not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    q = as_fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    return _strip(q.numerator, p)[0] - _strip(q.denominator, p)[0]


def _local_classes(values: Iterable[RationalLike], v: Place) -> list[int]:
    """The integers standing for the values' square classes at v, each nonzero.

    Real place: the sign. Prime p: p**(v_p(q) mod 2) times the unit part.
    Only v is read, so no local question factors a value. The place is
    checked once, up front, so an empty list of values checks it too.
    """
    _expect(v, Place)
    return [_local_class(q, v) for q in values]


def _local_class(q: RationalLike, v: Place) -> int:
    q = as_fraction(q)
    if q == 0:
        raise ValueError("the zero square class is excluded")
    if v.is_real:
        return 1 if q > 0 else -1
    p = v.prime
    vn, n = _strip(q.numerator, p)
    vd, d = _strip(q.denominator, p)
    # n/d and n*d differ by the square d**2, so they share a square class.
    return p ** ((vn - vd) % 2) * n * d


def is_local_square(q: RationalLike, v: Place) -> bool:
    """Whether q is a square in the completion at v.

    Real place: positivity.  Odd p: even valuation and the unit part a
    quadratic residue.  p = 2: even valuation and the odd part 1 mod 8.
    """
    (u,) = _local_classes((q,), v)
    if v.is_real:
        return u > 0
    p = v.prime
    if u % p == 0:
        return False
    if p == 2:
        return u % 8 == 1
    return _legendre(u, p) == 1


def iter_primes() -> Iterator[int]:
    """2, 3, 5, ... ascending, without shared state between callers."""
    small = _small_primes()[0]
    yield from small
    yield from (k for k in itertools.count(small[-1] + 2, 2) if is_prime(k))


def support_places(values: Iterable[RationalLike]) -> list[Place]:
    """The real place, 2, and every odd prime with odd valuation in some value.

    Outside this list every Hilbert symbol built from the values is +1, so
    local checks over it decide global questions.
    """
    return _places_over(p for q in values for p in _square_class(q)[1])


def _places_over(primes: Iterable[int]) -> list[Place]:
    """The real place, 2, and the given primes (proven by `factor`), ascending."""
    return [REAL] + [Place._unchecked(p) for p in sorted({2, *primes})]
