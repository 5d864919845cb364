"""Legendre's equation A*X^2 + B*Y^2 + C*Z^2 = 0 over Z, by lattice reduction.

A, B, C are squarefree and pairwise coprime, and their primes are known, so
nothing here factors. Legendre's criterion decides solvability by roots mod
|A|, |B|, |C|, one exponentiation per prime, and a zero is read off one
integral LLL reduction, unrolled for rank 3, of a lattice in Z^3 of index
|ABC| (Cremona and Rusin, "Efficient solution of rational conics", Math.
Comp. 72, 2003), on which Q/(ABC) is unimodular, by splitting off the first
reduced vector as in D. Simon, "Solving quadratic equations using reduced
unimodular quadratic forms", Math. Comp. 74, 2005.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence


def _legendre(u: int, p: int) -> int:
    """The Legendre symbol (u/p) of a p-unit u, p an odd prime, by Euler's criterion."""
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the prime p, or None, from one exponentiation:
    r = n^((p+1)/4) if r^2 = n for p = 3 mod 4; else, with p - 1 = q*2^s and
    x = n^((q-1)/2), r = n*x if t = r*x = n^q is 1, or Tonelli-Shanks from r
    and t, where t of order 2^s makes n a non-residue."""
    n %= p
    if p == 2 or n == 0:
        return n
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    x = pow(n, (q - 1) // 2, p)
    r, t = n * x % p, n * x * x % p
    if t == 1:
        return r
    z = next(z for z in itertools.count(2) if _legendre(z, p) == -1)
    m, c = s, pow(z, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _root(num: int, den: int, primes: Iterable[int]) -> int | None:
    """A square root of num/den modulo the product of distinct primes, den a unit
    there, combined by the Chinese remainder theorem, or None at the first of
    the primes that has none."""
    r, mod = 0, 1
    for p in primes:
        if (rp := _sqrt_mod_prime(num * pow(den, -1, p), p)) is None:
            return None
        r += mod * ((rp - r) * pow(mod, -1, p) % p)
        mod *= p
    return r


def _lll(basis: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple[Sequence[int], ...]:
    """LLL-reduce a rank-3 lattice basis under the form sum w_i*x_i^2, all w_i > 0.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) with delta = 99/100, unrolled for three vectors b0 = (x0, x1,
    x2), b1 = (y0, y1, y2) and b2 = (z0, z1, z2), held as nine integers.
    The Gram-Schmidt data are the integers d1, d2, d3 (the Gram determinants
    of b0, of b0 and b1, of all three) and l10, l20, l21, so every step is
    exact; they are computed once and updated by each reduction and swap.
    Each pass size-reduces b1 and tests it, then b2; a swap at either
    restarts the pass, as k = max(k - 1, 1) does in the algorithm.
    """
    ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2)), (w0, w1, w2) = basis, weights
    u0, u1, u2, v0, v1, v2 = w0 * x0, w1 * x1, w2 * x2, w0 * y0, w1 * y1, w2 * y2
    d1, l10 = u0 * x0 + u1 * x1 + u2 * x2, u0 * y0 + u1 * y1 + u2 * y2
    l20, g11 = u0 * z0 + u1 * z1 + u2 * z2, v0 * y0 + v1 * y1 + v2 * y2
    g12, g22 = v0 * z0 + v1 * z1 + v2 * z2, w0 * z0 * z0 + w1 * z1 * z1 + w2 * z2 * z2
    d2, l21 = d1 * g11 - l10 * l10, d1 * g12 - l20 * l10
    d3 = (d2 * (d1 * g22 - l20 * l20) - l21 * l21) // d1
    while True:
        if 2 * abs(l10) > d1:
            q = (2 * l10 + d1) // (2 * d1)  # nearest to l10/d1
            y0, y1, y2 = y0 - q * x0, y1 - q * x1, y2 - q * x2
            l10 -= q * d1
        if 100 * (d2 + l10 * l10) < 99 * d1 * d1:
            x0, x1, x2, y0, y1, y2 = y0, y1, y2, x0, x1, x2
            new = (d2 + l10 * l10) // d1
            l21, s = (d2 * l20 - l10 * l21) // d1, l21
            l20 = (new * s + l10 * l21) // d2
            d1 = new
            continue
        if 2 * abs(l21) > d2:
            q = (2 * l21 + d2) // (2 * d2)
            z0, z1, z2 = z0 - q * y0, z1 - q * y1, z2 - q * y2
            l20 -= q * l10
            l21 -= q * d2
        if 100 * (d3 * d1 + l21 * l21) >= 99 * d2 * d2:
            if 2 * abs(l20) > d1:
                q = (2 * l20 + d1) // (2 * d1)
                z0, z1, z2 = z0 - q * x0, z1 - q * x1, z2 - q * x2
            return (x0, x1, x2), (y0, y1, y2), (z0, z1, z2)
        y0, y1, y2, z0, z1, z2, l10, l20 = z0, z1, z2, y0, y1, y2, l20, l10
        d2 = (d1 * d3 + l21 * l21) // d2


def _legendre_zero(
    A: int, B: int, C: int, pa: Iterable[int], pb: Iterable[int], pc: Iterable[int]
) -> tuple[int, int, int] | None:
    """A nonzero zero of Q = A*X^2 + B*Y^2 + C*Z^2, or None when Q is anisotropic.

    pa, pb, pc are the primes of A, B, C; m = |ABC|, N = |A|X^2 + |B|Y^2 +
    |C|Z^2 is Q's majorant and G = Q/(ABC). For A, B, C squarefree and
    pairwise coprime, Legendre's theorem: Q is isotropic iff not all of one
    sign and the roots of step 1 exist; 2 follows by the product formula.
    1. Roots of -C/B mod A, -C/A mod B, -B/A mod C give the lattice L of
       Y = lam*Z mod A, X = mu*Z mod B, X = nu*Y mod C, of index m. Q and its
       bilinear form are divisible by m on L, so G is integral and
       unimodular there, of determinant 1 and signature (1, 2).
    2. LLL with delta = 99/100 under N, of determinant m^3 on L, gives
       N(b1) <= m/(delta - 1/4) = (50/37)*m (Lenstra, Lenstra and Lovasz
       1982, Prop. 1.6, with 1/(delta - 1/4) for 2), so |G(b1)| <= 1. If
       G(b1) != 0 then N(b1) >= m, which bounds N(b2) < 1.51*m and N(b3) <
       1.98*m, and Cauchy-Schwarz for N puts every G(b_i, b_j) in {-1, 0, 1}.
    3. Splitting off b1 (Simon 2005): G(b1) = 0 gives b1. Otherwise
       L = Z*b1 + b1^perp, and c_i = b_i - G(b1)*G(b_i, b1)*b1 span b1^perp,
       whose Gram matrix [[p, r], [r, s]] has determinant G(b1) and entries
       at most 2 in size.
       If G(b1) = -1, p*s - r^2 = -1 forces p = 0 (c2 is a zero), s = 0
       (c3), or r = 0, s = -p (c2 + c3). If G(b1) = 1, b1^perp is negative
       definite and p*s - r^2 = 1 forces p = -1 or s = -1, and b1 + c2 or
       b1 + c3 is a zero.
    So the zero is k1*b1 + k2*b2 + k3*b3 with |k1| <= 2 and |k2|, |k3| <= 1:
    N(zero) <= 25*m, and N(zero) <= (50/37)*m when it is b1.
    """
    if min(A, B, C) > 0 or max(A, B, C) < 0:
        return None
    if ((lam := _root(-C, B, pa)) is None or (mu := _root(-C, A, pb)) is None
            or (nu := _root(-B, A, pc)) is None):
        return None
    # The basis's first coordinates are 0 and mu mod |B|, nu*A and nu*lam mod |C|.
    b, c = abs(B), abs(C)
    inv = pow(b, -1, c)
    b1, b2, b3 = _lll([(b * c, 0, 0), (b * (nu * A * inv % c), A, 0),
                       (mu + b * ((nu * lam - mu) * inv % c), lam, 1)], (abs(A), b, c))
    eps = (A * b1[0] * b1[0] + B * b1[1] * b1[1] + C * b1[2] * b1[2]) // (A * B * C)
    if eps == 0:
        return b1

    def g(u: Sequence[int], v: Sequence[int]) -> int:
        return (A * u[0] * v[0] + B * u[1] * v[1] + C * u[2] * v[2]) // (A * B * C)

    def plus(u: Sequence[int], v: Sequence[int]) -> list[int]:
        return [x + y for x, y in zip(u, v)]

    c2, c3 = ([x - eps * g(b, b1) * y for x, y in zip(b, b1)] for b in (b2, b3))
    if eps == -1:
        found = next((v for v in (c2, c3, plus(c2, c3)) if g(v, v) == 0), None)
    else:
        found = next((plus(b1, v) for v in (c2, c3) if g(v, v) == -1), None)
    if found is None:
        raise RuntimeError("the reduced basis did not give a zero of the Legendre form")
    return tuple(found)
