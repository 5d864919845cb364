"""Places of the rationals: valuations, real signs, local square tests."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .rationals import RationalLike, as_fraction, factor, is_prime


@dataclass(frozen=True)
class Place:
    """The real place (prime is None) or the finite place at a prime."""

    prime: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"not a prime: {self.prime}")

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def _unchecked(cls, p: int) -> "Place":
        """The finite place at p, for a p its caller has already proven prime."""
        place = object.__new__(cls)
        object.__setattr__(place, "prime", p)
        return place

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


REAL = Place.real()


def parse_place(text: str) -> Place:
    """Parse the CLI grammar: "inf" for the real place, a base-10 prime otherwise."""
    if text == "inf":
        return REAL
    try:
        p = int(text)
    except ValueError:
        raise ValueError(f"not a place: {text!r}") from None
    if not is_prime(p):
        raise ValueError(f"not a prime: {text}")
    return Place._unchecked(p)


def valuation(q: RationalLike, p: Union[int, Place]) -> int:
    """p-adic valuation of a nonzero rational; negative when p divides the denominator."""
    if isinstance(p, Place):
        if p.is_real:
            raise ValueError("valuation needs a finite place")
        p = p.prime
    q = as_fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(q.numerator)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    if v:
        return v
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def sign_at_real(q: RationalLike) -> int:
    """+1 or -1 according to the sign of a nonzero rational."""
    q = as_fraction(q)
    if q == 0:
        raise ValueError("zero has no sign")
    return 1 if q > 0 else -1


def is_local_square(q: RationalLike, v: Place) -> bool:
    """Whether q is a square in the completion at v.

    Real place: positivity.  Odd p: even valuation and the unit part a
    quadratic residue.  p = 2: even valuation and the odd part 1 mod 8.
    """
    q = as_fraction(q)
    if q == 0:
        raise ValueError("the zero square class is excluded")
    if v.is_real:
        return q > 0
    p = v.prime
    if valuation(q, p) % 2:
        return False
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
    while d % p == 0:
        d //= p
    # n/d and n*d differ by the square d**2, so they share a square class.
    u = n * d
    if p == 2:
        return u % 8 == 1
    return pow(u, (p - 1) // 2, p) == 1


def iter_primes() -> Iterator[int]:
    """2, 3, 5, ... ascending, without shared state between callers."""
    yield 2
    yield from (k for k in itertools.count(3, 2) if is_prime(k))


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed: nth_prime(1) = 2."""
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    return next(itertools.islice(iter_primes(), n - 1, None))


def support_places(values: Iterable[RationalLike]) -> list[Place]:
    """The real place, 2, and every odd prime with odd valuation in some value.

    Outside this list every Hilbert symbol built from the values is +1, so
    local checks over it decide global questions.
    """
    return _places_over(p for q in values for p, e in factor(q).factors if e % 2)


def _places_over(primes: Iterable[int]) -> list[Place]:
    """The real place, 2, and the given primes (proven by `factor`), ascending."""
    return [REAL] + [Place._unchecked(p) for p in sorted({2, *primes})]
