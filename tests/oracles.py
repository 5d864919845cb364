"""Independent brute-force oracles the library is cross-checked against.

Nothing here calls into the package: Hilbert symbols are settled by
congruence searches, local squares by residue scans, isotropy by integer
vector searches. Slow but screamingly simple. The rest are the plainer
code that package kernels were specialized from: quaternion formulas, split
central roots and conic back-substitution on Fractions, LLL for any rank,
and column-by-column Gauss-Jordan over GF(2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence


def _strip_square_factors(n: int, p: int) -> int:
    while n % (p * p) == 0:
        n //= p * p
    return n


@lru_cache(maxsize=None)
def _square_set(m: int) -> frozenset[int]:
    return frozenset(w * w % m for w in range(m))


@lru_cache(maxsize=None)
def hilbert_oracle_finite(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers by searching z^2 = a*x^2 + b*y^2 mod p^K.

    Square factors of a and b are dropped first (they do not change the
    symbol), leaving valuations 0 or 1. K = 5 at p = 2 and K = 3 at odd
    p | ab are the classical Hensel bounds at which a primitive congruence
    solution lifts to a p-adic one; K = 1 suffices when p is odd and
    coprime to ab. A primitive solution has a unit coordinate, which can be
    scaled to 1, so three one-variable-fixed scans cover everything.
    """
    a = _strip_square_factors(a, p)
    b = _strip_square_factors(b, p)
    if p == 2:
        k = 5
    elif a % p == 0 or b % p == 0:
        k = 3
    else:
        k = 1
    m = p**k
    squares = _square_set(m)
    a %= m
    b %= m
    for y in range(m):  # x = 1
        if (a + b * y * y) % m in squares:
            return 1
    for x in range(m):  # y = 1
        if (b + a * x * x) % m in squares:
            return 1
    b_values = {b * y * y % m for y in range(m)}
    for x in range(m):  # z = 1
        if (1 - a * x * x) % m in b_values:
            return 1
    return -1


def hilbert_oracle_real(a: int, b: int) -> int:
    """z^2 = a*x^2 + b*y^2 has a nontrivial real zero iff a or b is positive."""
    return 1 if a > 0 or b > 0 else -1


def local_square_oracle(q: Fraction, p: int) -> bool:
    """Is q a square in Q_p? Residue scan, no reciprocity-style formulas."""
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    if v % 2:
        return False
    u = num * den  # same square class as the unit part num/den
    if p == 2:
        return u % 16 in (1, 9)  # the odd squares mod 16
    return (u % p) in {x * x % p for x in range(p)}


def _scaled_int_entries(entries: Sequence[Fraction]) -> list[int]:
    den = math.lcm(*(Fraction(e).denominator for e in entries))
    return [int(e * den) for e in entries]


def ternary_zero_search(
    entries: Sequence[Fraction], height: int
) -> Optional[tuple[int, int, int]]:
    """A nontrivial integer zero of a ternary diagonal form, coords <= height.

    Signs of coordinates never matter for a diagonal form, so scanning
    nonnegative values is exhaustive. Meet-in-the-middle on the first entry.
    """
    a, b, c = _scaled_int_entries(entries)
    sq = [i * i for i in range(height + 1)]
    first_x: dict[int, int] = {}
    for x in range(height + 1):
        first_x.setdefault(a * sq[x], x)
    for y in range(height + 1):
        for z in range(height + 1):
            x = first_x.get(-(b * sq[y] + c * sq[z]))
            if x is not None and (x or y or z):
                return (x, y, z)
    return None


def trial_division(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by dividing by every d up to sqrt(n)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Quaternions of (alpha, beta | Q) as coordinate 4-tuples of Fractions, by
# the textbook formulas on Fractions.

def quaternion_product(alpha, beta, p, r):
    a, b = alpha, beta
    p0, p1, p2, p3 = p
    r0, r1, r2, r3 = r
    return (
        p0 * r0 + a * p1 * r1 + b * p2 * r2 - a * b * p3 * r3,
        p0 * r1 + p1 * r0 - b * p2 * r3 + b * p3 * r2,
        p0 * r2 + p2 * r0 + a * p1 * r3 - a * p3 * r1,
        p0 * r3 + p3 * r0 + p1 * r2 - p2 * r1,
    )


def quaternion_norm(alpha, beta, q) -> Fraction:
    q0, q1, q2, q3 = q
    return q0 * q0 - alpha * q1 * q1 - beta * q2 * q2 + alpha * beta * q3 * q3


def quaternion_square(alpha, beta, q):
    """(2*q0^2 - N(q)) + 2*q0*(pure part of q)."""
    q0, q1, q2, q3 = q
    return (2 * q0 * q0 - quaternion_norm(alpha, beta, q), 2 * q0 * q1, 2 * q0 * q2, 2 * q0 * q3)


def scaled(q):
    """(D, (n0, n1, n2, n3)) with q_k = n_k/D and D the lcm of the denominators."""
    D = math.lcm(*[x.denominator for x in q])
    return D, tuple([x.numerator * (D // x.denominator) for x in q])


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The nonnegative square root of q in Q, or None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def quaternion_sqrt_noncentral(alpha, beta, q):
    """r with r^2 = q for a non-central q, from r0^2 = (q0 + d)/2 first, then
    (q0 - d)/2, with d^2 = N(q), and r_i = q_i/(2*r0); or None."""
    d = rational_sqrt(quaternion_norm(alpha, beta, q))
    if d is None:
        return None
    for r0_squared in ((q[0] + d) / 2, (q[0] - d) / 2):
        r0 = rational_sqrt(r0_squared)
        if r0:
            return (r0, *(x / (2 * r0) for x in q[1:]))
    return None


def split_central_root(alpha, beta, vec, a):
    """The pure root (0, W) of the scalar a in a split (alpha, beta | Q), from
    an isotropic vector vec of its pure norm form <-alpha, -beta, alpha*beta>:
    with e_i the first entry where vec_i != 0, W = u_i + s*vec has form value
    -a for s = (-a - e_i)/(2*e_i*vec_i), u_i the i-th unit vector."""
    entries = (-alpha, -beta, alpha * beta)
    i = next(k for k, x in enumerate(vec) if x != 0)
    s = (-a - entries[i]) / (2 * entries[i] * vec[i])
    return (Fraction(0), *((1 if k == i else 0) + s * x for k, x in enumerate(vec)))


def conic_back_substitution(alpha, c, form, zero) -> tuple[Fraction, Fraction]:
    """(x, y) >= 0 with x^2 - alpha*y^2 = c from a zero (X, Y, Z) of its
    Legendre form (g, -s_a/g, -s_c/g), where alpha = s_a*t_a^2 and c =
    s_c*t_c^2 with s_a, s_c squarefree and g = gcd(s_a, s_c): x = t_c*g*X/Z
    and y = t_c*Y/(t_a*Z), on Fractions."""
    (g, B, C), (X, Y, Z) = form, zero
    ta, tc = rational_sqrt(alpha / (-g * B)), rational_sqrt(c / (-g * C))
    return abs(tc * g * X / Z), abs(tc * Y / (ta * Z))


# The integral LLL for any rank, as `legendre._lll` was before it was
# unrolled for rank 3; that one must return the same basis.

def lll(basis: Sequence[Sequence[int]], weights: Sequence[int]) -> list[list[int]]:
    """LLL-reduce a lattice basis under the form sum w_i*x_i^2, all w_i > 0.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) with delta = 99/100. The Gram-Schmidt data are the integers
    d[k + 1] (the Gram determinant of b[0..k]) and lam[k][j], so every step
    is exact; they are computed once and updated by each reduction and swap.
    """
    b = [list(v) for v in basis]
    n = len(b)
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(w * x * y for w, x, y in zip(weights, b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        d[k + 1] = lam[k][k]

    def reduce(k: int, j: int) -> None:
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # nearest to lam/d
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]
            lam[k][j] -= q * d[j + 1]

    k = 1
    while k < n:
        reduce(k, k - 1)
        t = lam[k][k - 1]
        if 100 * (d[k + 1] * d[k - 1] + t * t) >= 99 * d[k] ** 2:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        new = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            s = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
            lam[i][k - 1] = (new * s + t * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, 1)
    return b


# Gauss-Jordan over GF(2) column by column, as `sqclasses.solve_gf2` was
# before it reduced row by row; that one must return the same solution.

def solve_gf2_columns(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> Optional[tuple[int, ...]]:
    """One solution of rows (column bitmasks) = rhs bits, free variables set to 0, or None.

    Gauss-Jordan elimination on rows augmented with their rhs bit; a leftover
    zero-row with rhs 1 means the system is inconsistent.
    """
    n = ncols
    rows = [mask | (bit << n) for mask, bit in zip(rows, rhs)]
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


# Tonelli-Shanks as `legendre._sqrt_mod_prime` was before it decided a
# residue by the exponentiation that also gives the root; that one must
# return the same root.

def sqrt_mod_prime(n: int, p: int) -> Optional[int]:
    """A square root of n modulo the prime p, or None: Euler's criterion
    first, then n^((p+1)/4) for p = 3 mod 4, else Tonelli-Shanks."""
    n %= p
    if p == 2 or n == 0:
        return n
    if pow(n, (p - 1) // 2, p) == p - 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
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
