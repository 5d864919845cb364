"""Exact rational arithmetic: parsing, factorization, squarefree parts, square roots.

Everything here works on `fractions.Fraction`, which keeps values in lowest
terms with a positive denominator. No floats anywhere; every answer is exact.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rational = Fraction
RationalLike = Union[int, Fraction]

_TRIAL_BOUND = 10_000

# Miller-Rabin to the first k prime bases is deterministic for n < psi_k, the
# smallest strong pseudoprime to all of them (Jaeschke 1993; Sorenson-Webster
# 2017). Below psi_13 ~ 3.317e24 is_prime is exact; from it on, it is a strong
# probable-prime test to the 14 bases to 43, which psi_13 itself fails.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def _sieve(bound: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)


def as_fraction(q: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats so exactness can't silently leak."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an int or Fraction, got {type(q).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse the "n" / "n/d" base-10 grammar (optional leading minus on n)."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: RationalLike) -> str:
    """Inverse of parse_rational; integers print without the "/1"."""
    return str(as_fraction(q))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.317e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    k = min(bisect.bisect_right(_MR_PSI, n) + 1, len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    The parameter sweep is deterministic so repeated runs factor identically.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an exponent map."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


@dataclass(frozen=True)
class Factorization:
    """A signed factorization q = sign * prod(p**e).

    Primes are strictly increasing, exponents nonzero; denominator primes
    carry negative exponents. value() reassembles the original rational.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e == 0:
                raise ValueError(f"zero exponent at prime {p}")
            if not is_prime(p):
                raise ValueError(f"not a prime: {p}")
            prev = p

    @classmethod
    def _unchecked(cls, sign: int, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        """A factorization `factor` has built: its primes are already proven."""
        fac = object.__new__(cls)
        object.__setattr__(fac, "sign", sign)
        object.__setattr__(fac, "factors", factors)
        return fac

    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.factors:
            out *= Fraction(p) ** e
        return out


def factor(q: RationalLike) -> Factorization:
    """Signed prime factorization of a nonzero rational."""
    q = as_fraction(q)
    if q == 0:
        raise ValueError("cannot factor zero")
    exps = _factor_int(abs(q.numerator))
    for p, e in _factor_int(q.denominator).items():
        exps[p] = exps.get(p, 0) - e
    factors = tuple(sorted((p, e) for p, e in exps.items() if e != 0))
    return Factorization._unchecked(1 if q > 0 else -1, factors)


def squarefree_part(q: RationalLike) -> tuple[int, Fraction]:
    """Write q = s * t**2 with s a squarefree integer of the same sign.

    Returns (s, t) with t > 0. The square class of q is determined by s.
    """
    fac = factor(q)
    s = fac.sign
    t = Fraction(1)
    for p, e in fac.factors:
        if e % 2:
            s *= p
        t *= Fraction(p) ** ((e - (e % 2)) // 2)
    return s, t


def is_square(q: RationalLike) -> Optional[Fraction]:
    """The nonnegative exact square root of q, or None when q is not a square."""
    q = as_fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
