"""Legendre's equation A*X^2 + B*Y^2 + C*Z^2 = 0 over Z, by lattice reduction.

A, B, C are squarefree and pairwise coprime, and their primes are known,
so nothing here factors. Legendre's criterion decides solvability, and a
zero is read off one integral LLL reduction, unrolled for rank 3, of a
lattice in Z^3 of index |ABC| (Cremona and Rusin, "Efficient solution of
rational conics", Math. Comp. 72, 2003), on which Q/(ABC) is unimodular,
by splitting off the first reduced vector as in D. Simon, "Solving
quadratic equations using reduced unimodular quadratic forms", Math.
Comp. 74, 2005.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def _legendre(u: int, p: int) -> int:
    """The Legendre symbol (u/p) of a p-unit u, p an odd prime, by Euler's criterion."""
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod_prime(n: int, p: int) -> Optional[int]:
    """A square root of n modulo the prime p (Tonelli-Shanks), or None."""
    n %= p
    if p == 2 or n == 0:
        return n
    if _legendre(n, p) == -1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) == 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _crt(residues: Iterable[tuple[int, int]]) -> int:
    """The least r >= 0 with r = r_m mod m for each (r_m, m), moduli pairwise coprime."""
    r, mod = 0, 1
    for rm, m in residues:
        r += mod * ((rm - r) * pow(mod, -1, m) % m)
        mod *= m
    return r


def _root(num: int, den: int, primes: Iterable[int]) -> Optional[int]:
    """A square root of num/den modulo the product of distinct primes, den a
    unit there, or None when one of the primes has none."""
    roots = [(_sqrt_mod_prime(num * pow(den, -1, p), p), p) for p in primes]
    return None if any(r is None for r, _ in roots) else _crt(roots)


def _lll(basis: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple[Sequence[int], ...]:
    """LLL-reduce a rank-3 lattice basis under the form sum w_i*x_i^2, all w_i > 0.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) with delta = 99/100, unrolled for three vectors b0, b1, b2.
    The Gram-Schmidt data are the integers d1, d2, d3 (the Gram determinants
    of b0, of b0 and b1, of all three) and l10, l20, l21, so every step is
    exact; they are computed once and updated by each reduction and swap.
    Each pass size-reduces b1 and tests it, then b2; a swap at either
    restarts the pass, as k = max(k - 1, 1) does in the algorithm.
    """
    (b0, b1, b2), (w0, w1, w2) = basis, weights
    (d1, l10, l20), (_, g11, g12), (_, _, g22) = (
        [w0 * u[0] * v[0] + w1 * u[1] * v[1] + w2 * u[2] * v[2] for v in basis] for u in basis
    )
    d2, l21 = d1 * g11 - l10 * l10, d1 * g12 - l20 * l10
    d3 = (d2 * (d1 * g22 - l20 * l20) - l21 * l21) // d1
    while True:
        if 2 * abs(l10) > d1:
            q = (2 * l10 + d1) // (2 * d1)  # nearest to l10/d1
            b1 = (b1[0] - q * b0[0], b1[1] - q * b0[1], b1[2] - q * b0[2])
            l10 -= q * d1
        if 100 * (d2 + l10 * l10) < 99 * d1 * d1:
            b0, b1 = b1, b0
            new = (d2 + l10 * l10) // d1
            l21, s = (d2 * l20 - l10 * l21) // d1, l21
            l20 = (new * s + l10 * l21) // d2
            d1 = new
            continue
        if 2 * abs(l21) > d2:
            q = (2 * l21 + d2) // (2 * d2)
            b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1], b2[2] - q * b1[2])
            l20 -= q * l10
            l21 -= q * d2
        if 100 * (d3 * d1 + l21 * l21) >= 99 * d2 * d2:
            if 2 * abs(l20) > d1:
                q = (2 * l20 + d1) // (2 * d1)
                b2 = (b2[0] - q * b0[0], b2[1] - q * b0[1], b2[2] - q * b0[2])
            return b0, b1, b2
        b1, b2, l10, l20 = b2, b1, l20, l10
        d2 = (d1 * d3 + l21 * l21) // d2


def _legendre_zero(
    A: int, B: int, C: int, pa: Iterable[int], pb: Iterable[int], pc: Iterable[int]
) -> Optional[tuple[int, int, int]]:
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
    lam, mu, nu = _root(-C, B, pa), _root(-C, A, pb), _root(-B, A, pc)
    if None in (lam, mu, nu):
        return None
    bc = abs(B * C)
    b1, b2, b3 = _lll(
        [
            (bc, 0, 0),
            (_crt(((0, abs(B)), (nu * A, abs(C)))), A, 0),
            (_crt(((mu, abs(B)), (nu * lam, abs(C)))), lam, 1),
        ],
        (abs(A), abs(B), abs(C)),
    )

    def g(u: Sequence[int], v: Sequence[int]) -> int:
        return (A * u[0] * v[0] + B * u[1] * v[1] + C * u[2] * v[2]) // (A * B * C)

    def plus(u: Sequence[int], v: Sequence[int]) -> list[int]:
        return [x + y for x, y in zip(u, v)]

    eps = g(b1, b1)
    found: Optional[Sequence[int]] = b1
    if eps:
        c2, c3 = ([x - eps * g(b, b1) * y for x, y in zip(b, b1)] for b in (b2, b3))
        if eps == -1:
            found = next((v for v in (c2, c3, plus(c2, c3)) if g(v, v) == 0), None)
        else:
            found = next((plus(b1, v) for v in (c2, c3) if g(v, v) == -1), None)
    if found is None:
        raise RuntimeError("the reduced basis did not give a zero of the Legendre form")
    return tuple(found)
