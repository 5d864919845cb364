"""Exact rational arithmetic: parsing, factorization, squarefree parts, square roots.

Everything here works on `fractions.Fraction`, which keeps values in lowest
terms with a positive denominator. No floats anywhere; every answer is exact.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from collections.abc import Iterable
from fractions import Fraction
from functools import cache

RationalLike = int | Fraction

# Miller-Rabin to the first k prime bases is deterministic for n < psi_k, the
# smallest strong pseudoprime to all of them (Jaeschke 1993; Sorenson-Webster
# 2017). Below psi_13 ~ 3.317e24 is_prime is exact; from it on, it is BPSW:
# the base-2 strong test, then a strong Lucas test, which psi_13 itself fails.
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

# [0-9], not \d, which also matches other scripts' digits; parse_place agrees.
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def as_fraction(q: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats so exactness can't silently leak."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an int or Fraction, got {type(q).__name__}")


def _expect(value: object, cls: type) -> None:
    """Reject a value that is not a `cls` with a TypeError naming its type."""
    if not isinstance(value, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse the "n" / "n/d" grammar in ASCII digits (optional leading minus on n)."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.317e24; BPSW from there on."""
    if not isinstance(n, int):
        raise TypeError(f"expected an int, got {type(n).__name__}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    k = bisect.bisect_right(_MR_PSI, n) + 1
    bpsw = k > len(_MR_PSI)  # n >= psi_13
    for a in (2,) if bpsw else _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return not bpsw or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test on an odd n > 1 with Selfridge's
    parameters (method A): the first D of 5, -7, 9, -11, ... with Jacobi
    (D/n) = -1, P = 1 and Q = (1 - D)/4. With n + 1 = d*2^s, n passes iff
    U_d = 0 or V_(d*2^r) = 0 mod n for some 0 <= r < s."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # a factor of D below n, or n = |D|
            return n == abs(D)
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    # U_k, V_k and Q^k from k = 1 along d's bits: doubling, then k -> k + 1
    # by U' = (U + V)/2 and V' = (D*U + V)/2, halved mod the odd n.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) % n, (D * U + V) % n, Qk * Q % n
            U, V = (U + n * (U & 1)) >> 1, (V + n * (V & 1)) >> 1
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of a composite n with no prime factor below 10^4
    (Brent's cycle variant); prime powers included.

    The parameter sweep is deterministic so repeated runs factor identically.
    """
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
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


_SIEVED = 10**4


@cache
def _small_primes() -> tuple[tuple[int, ...], list[int], list[tuple[int, tuple[int, ...], int]]]:
    """The primes below 10^4, the last of each block of 32 past 43, and the blocks as
    (product, block, product from 47 to its end). Sieved on first use, not at import."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (_SIEVED - 2)
    for p in range(2, math.isqrt(_SIEVED) + 1):
        sieve[p * p::p] = bytes(len(range(p * p, _SIEVED, p)))
    primes = tuple(itertools.compress(range(_SIEVED), sieve))
    blocks = [primes[i:i + 32] for i in range(len(_MR_BASES), len(primes), 32)]
    running = itertools.accumulate(map(math.prod, blocks), operator.mul)
    return primes, [b[-1] for b in blocks], [(math.prod(b), b, r) for b, r in zip(blocks, running)]


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an exponent map.

    The primes to 43 are divided out, as `is_prime` would find them first.
    One gcd with the product of the primes from 47 to the end of the 32-prime
    block that holds sqrt(n) (to 10^4 for n >= 10^8) finds those that divide
    the cofactor; only the blocks holding them are divided through, none past
    the last. A cofactor below 10^8 is then 1 or prime, as is every part below
    10^8 that `_pollard_rho` splits off; a larger one is proven prime or split again.
    """
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n >= 47 * 47:  # below, n is 1 or a prime
        _, lasts, blocks = _small_primes()
        blocks = blocks[:bisect.bisect_left(lasts, math.isqrt(n)) + 1]
        g = math.gcd(n, blocks[-1][2])
        for block_product, block, _ in blocks:
            if g == 1:
                break
            if (h := math.gcd(g, block_product)) > 1:
                g //= h
                for p in block:
                    while n % p == 0:
                        out[p] = out.get(p, 0) + 1
                        n //= p
    if n < _SIEVED**2:
        return out | {n: 1} if n > 1 else out
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _SIEVED**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


class _Value:
    """An immutable value, compared, hashed and printed by the attributes in `_fields`, in order.
    Assigning or deleting an attribute raises AttributeError; `__init__` stores through `_set`,
    and `_unchecked` skips `__init__`'s checks for fields its caller has already built valid."""

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))
        cls.__match_args__ = cls._fields

    def _set(self, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _unchecked(cls, *values: object) -> "_Value":
        value = object.__new__(cls)
        value.__dict__.update(zip(cls._fields, values))
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Factorization(_Value):
    """A signed factorization q = sign * prod(p**e).

    Primes are strictly increasing, exponents nonzero; denominator primes
    carry negative exponents. value() reassembles the original rational.
    """

    _fields = ("sign", "factors")
    sign: int
    factors: tuple[tuple[int, int], ...]

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]) -> None:
        _expect(factors, Iterable)
        _expect(sign, int)
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {sign}")
        factors = tuple((p, e) for p, e in factors)
        prev = 1
        for p, e in factors:
            _expect(e, int)
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e == 0:
                raise ValueError(f"zero exponent at prime {p}")
            if not is_prime(p):
                raise ValueError(f"not a prime: {p}")
            prev = p
        self._set(sign, factors)

    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.factors:
            out *= Fraction(p) ** e
        return out


def factor(q: RationalLike) -> Factorization:
    """Signed prime factorization of a nonzero rational."""
    n, d = as_fraction(q).as_integer_ratio()
    if n == 0:
        raise ValueError("cannot factor zero")
    exps = _factor_int(abs(n))
    if d > 1:  # coprime to n: its primes are new keys
        exps |= {p: -e for p, e in _factor_int(d).items()}
    return Factorization._unchecked(1 if n > 0 else -1, tuple(sorted(exps.items())))


_Class = tuple[int, list[int]]  # (s, primes of s) for a squarefree integer s


def _square_class(q: RationalLike) -> _Class:
    """(s, primes of s) for the squarefree integer s with q = s * t^2.

    Every square class in the package is read off one `factor` call here.
    """
    fac = factor(q)
    primes = [p for p, e in fac.factors if e % 2]
    return fac.sign * math.prod(primes), primes


def _times(a: int, b: int) -> int:
    """The squarefree integer in the class of a*b, for squarefree a and b."""
    return a * b // math.gcd(a, b) ** 2


def _class_times(a: _Class, b: _Class) -> _Class:
    """The square class of a product of values in the classes a and b."""
    s = _times(a[0], b[0])
    return s, sorted([p for p in a[1] + b[1] if s % p == 0])


def squarefree_part(q: RationalLike) -> tuple[int, Fraction]:
    """Write q = s * t**2 with s a squarefree integer of the same sign.

    Returns (s, t) with t > 0. The square class of q is determined by s.
    """
    s, _ = _square_class(q)
    return s, is_square(as_fraction(q) / s)


def _sqrt_ratio(n: int, d: int) -> int | None:
    """r = isqrt(n*d) when n/d, d > 0 and not necessarily reduced, is the square of r/d."""
    if n < 0:
        return None
    r = math.isqrt(n * d)
    return r if r * r == n * d else None


def is_square(q: RationalLike) -> Fraction | None:
    """The nonnegative exact square root of q, or None when q is not a square."""
    q = as_fraction(q)
    r = _sqrt_ratio(q.numerator, q.denominator)
    return None if r is None else Fraction(r, q.denominator)
