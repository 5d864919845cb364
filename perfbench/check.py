"""Answer checker that shares no code with quatsqrt.

Positive answers are re-squared (or substituted) with the benchmark's own
arithmetic. Negative answers are confirmed by a local obstruction: the
benchmark's own Hilbert symbols, computed from `sympy.factorint`, must show
a place where the relevant form is anisotropic. A "none" for an input built
with a planted solution is always wrong.

`check` returns (branch, error, answer digits): the branch is decided by
the checker itself, and error is None when the answer is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from sympy import factorint

from gen import Case, is_rational_square

REAL = 0  # the real place; finite places are primes


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(factorint(abs(n)).items())) if abs(n) > 1 else ()


def _squarefree(q: Fraction) -> int:
    """The squarefree integer with the same square class as q != 0."""
    out = 1 if q > 0 else -1
    for n in (q.numerator, q.denominator):
        for p, e in _primes(n):
            if e % 2:
                out *= p
    return out


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a: Fraction, b: Fraction, v: int) -> int:
    """(a, b)_v for nonzero rationals; v = REAL or a prime."""
    a, b = _squarefree(Fraction(a)), _squarefree(Fraction(b))
    if v == REAL:
        return -1 if a < 0 and b < 0 else 1
    ea, u = (1, a // v) if a % v == 0 else (0, a)
    eb, w = (1, b // v) if b % v == 0 else (0, b)
    if v == 2:
        def eps(x):
            return (x - 1) // 2 % 2

        def omega(x):
            return (x * x - 1) // 8 % 2

        return -1 if (eps(u) * eps(w) + ea * omega(w) + eb * omega(u)) % 2 else 1
    sign = -1 if ea and eb and v % 4 == 3 else 1
    return sign * (_legendre(u, v) if eb else 1) * (_legendre(w, v) if ea else 1)


def places(values: Sequence[Fraction]) -> list[int]:
    """The real place, 2, and every prime dividing a numerator or denominator."""
    primes = {2}
    for q in values:
        q = Fraction(q)
        for n in (q.numerator, q.denominator):
            primes.update(p for p, _ in _primes(n))
    return [REAL] + sorted(primes)


def _local_square(q: Fraction, v: int) -> bool:
    s = _squarefree(q)
    if v == REAL:
        return s > 0
    if s % v == 0:
        return False
    return s % 8 == 1 if v == 2 else _legendre(s, v) == 1


def anisotropic_place(entries: Sequence[Fraction]) -> Optional[int]:
    """A place where the diagonal form (dimension 3 or 4) is anisotropic, or None.

    Dimension 3: <a, b, c> is anisotropic at v iff (-b/a, -c/a)_v = -1.
    Dimension 4 (Serre, Ch. IV): anisotropic at v iff the determinant is a
    local square and the Hasse invariant is -(-1, -1)_v.
    """
    entries = [Fraction(x) for x in entries]
    for v in places(entries):
        if v == REAL:
            if all(x > 0 for x in entries) or all(x < 0 for x in entries):
                return v
            continue
        if len(entries) == 3:
            a, b, c = entries
            if hilbert(-b / a, -c / a, v) == -1:
                return v
            continue
        det = entries[0] * entries[1] * entries[2] * entries[3]
        hasse = 1
        for i in range(4):
            for j in range(i + 1, 4):
                hasse *= hilbert(entries[i], entries[j], v)
        if _local_square(det, v) and hasse == -hilbert(Fraction(-1), Fraction(-1), v):
            return v
    return None


@lru_cache(maxsize=None)
def is_split(alpha: Fraction, beta: Fraction) -> bool:
    return all(hilbert(alpha, beta, v) == 1 for v in places((alpha, beta)))


@lru_cache(maxsize=4096)
def _central_obstruction(alpha: Fraction, beta: Fraction, a: Fraction) -> Optional[int]:
    """A place where <a, -alpha, -beta, alpha*beta> is anisotropic, or None."""
    return anisotropic_place((a, -alpha, -beta, alpha * beta))


def central_root_exists(alpha: Fraction, beta: Fraction, a: Fraction) -> bool:
    """A root of the central a is a rational root or a pure one of norm -a,
    so it exists iff a is a square or <a, -alpha, -beta, alpha*beta> is isotropic."""
    if is_rational_square(a):
        return True
    return _central_obstruction(alpha, beta, a) is None


def squares_to(alpha: Fraction, beta: Fraction, r: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """Whether r*r = q in (alpha, beta | Q), in integers: with r = n/d and
    alpha = A/a, beta = B/b, r*r = (n0^2 + A/a n1^2 + B/b n2^2 - AB/ab n3^2,
    2 n0 n1, 2 n0 n2, 2 n0 n3) / d^2."""
    d = math.lcm(*(x.denominator for x in r))
    n0, n1, n2, n3 = (x.numerator * (d // x.denominator) for x in r)
    A, a, B, b = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    s = (n0 * n0 * a * b + A * b * n1 * n1 + B * a * n2 * n2 - A * B * n3 * n3, 2 * n0 * n1 * a * b,
         2 * n0 * n2 * a * b, 2 * n0 * n3 * a * b)
    # s / (d^2 a b) == q, compared without division.
    return all(x.numerator * d * d * a * b == y * x.denominator for x, y in zip(q, s))


def sqrt_branch(alpha: Fraction, beta: Fraction, q: Sequence[Fraction]) -> str:
    """Which of the four `sqrt` routines a (non-trivial) input reaches."""
    if any(q[1:]):
        return "noncentral"
    if is_split(alpha, beta):
        return "split"
    return "nonsplit_root" if central_root_exists(alpha, beta, q[0]) else "nonsplit_none"


def check_sqrt(case: Case, params: Sequence[Fraction], answer: Optional[Sequence[Fraction]]):
    """answer is None or (alpha, beta, r0, r1, r2, r3): the root and its algebra."""
    alpha, beta, *q = map(_frac, params)
    q = tuple(q)
    branch = sqrt_branch(alpha, beta, q)
    if answer is not None:
        answer = tuple(map(_frac, answer))
        if answer[:2] != (alpha, beta):
            return branch, f"root lives in ({answer[0]}, {answer[1]}), not ({alpha}, {beta})"
        root = answer[2:]
        if not squares_to(alpha, beta, root, q):
            return branch, f"root {root} does not square to {q}"
        return branch, None
    if case.planted is not None:
        return branch, "no root reported for an input built as r*r"
    if branch == "noncentral":
        return branch, "no root reported for a non-central input; unconfirmed"
    if is_rational_square(q[0]):
        return branch, "no root reported for a rational square"
    if _central_obstruction(alpha, beta, q[0]) is None:
        return branch, "no root reported, but the form is isotropic at every place"
    return branch, None


def check_conic(case: Case, params, solution):
    alpha, c = (Fraction(x) for x in params)
    if solution is not None:
        x, y = (Fraction(s) for s in solution)
        if x * x - alpha * y * y != c:
            return "conic", f"({x}, {y}) does not solve x^2 - {alpha} y^2 = {c}"
        return "conic", None
    if case.planted is not None:
        return "conic", "unsolvable reported for a conic with a planted solution"
    if all(hilbert(alpha, c, v) == 1 for v in places((alpha, c))):
        return "conic", "unsolvable reported, but no local symbol is -1"
    return "conic", None


def _flags(argv: Sequence[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _fracs(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def _represents(x0: Fraction, x1: Fraction, d: Fraction) -> bool:
    return anisotropic_place((x0, x1, -d)) is None


def check_cli(case: Case, outcome: tuple[int, str, str]):
    """Parse one CLI call's stdout and exit code and check them like the library's."""
    code, stdout, stderr = outcome
    argv = case.params
    f = _flags(argv)
    branch = "cli"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return branch, f"stdout is not one JSON line: {stdout!r}"
    if stderr:
        return branch, f"unexpected stderr {stderr!r}"
    want = 0
    cmd = argv[0]
    if cmd == "sqrt":
        params = [Fraction(f["alpha"]), Fraction(f["beta"])] + _fracs(f["q"])
        if payload.get("status") == "ok":
            if payload.get("verified") is not True:
                return branch, "root not marked verified"
            _, err = check_sqrt(case, params, params[:2] + _fracs(",".join(payload["root"])))
        elif payload == {"status": "not_a_square"}:
            want = 1
            _, err = check_sqrt(case, params, None)
        else:
            err = f"unexpected payload {payload}"
    elif cmd == "hilbert":
        v = REAL if f["place"] == "inf" else int(f["place"])
        expected = hilbert(Fraction(f["a"]), Fraction(f["b"]), v)
        err = None if payload == {"symbol": expected} else f"expected symbol {expected}"
    elif cmd == "is-split":
        expected = is_split(Fraction(f["alpha"]), Fraction(f["beta"]))
        err = None if payload == {"split": expected} else f"expected split={expected}"
    elif cmd == "conic":
        params = (Fraction(f["alpha"]), Fraction(f["c"]))
        if payload.get("status") == "ok":
            _, err = check_conic(case, params, (payload["x"], payload["y"]))
        elif payload == {"status": "unsolvable"}:
            want = 1
            _, err = check_conic(case, params, None)
        else:
            err = f"unexpected payload {payload}"
    elif cmd == "isotropic":
        form = _fracs(f["form"])
        if payload.get("isotropic") is True:
            w = [Fraction(x) for x in payload.get("witness", ())]
            ok = len(w) == 3 and any(w) and sum(a * x * x for a, x in zip(form, w)) == 0
            err = None if ok else f"bad witness {w}"
        elif payload == {"isotropic": False}:
            err = None if anisotropic_place(form) is not None else "form is isotropic"
        else:
            err = f"unexpected payload {payload}"
    else:
        x0, x1 = _fracs(f["xi"])
        z0, z1 = _fracs(f["zeta"])
        if payload.get("status") == "ok":
            d = Fraction(payload["d"])
            ok = d != 0 and _represents(x0, x1, d) and _represents(z0, z1, d)
            err = None if ok else f"{d} is not represented by both forms"
        elif payload == {"status": "empty_intersection"}:
            want = 1
            ok = anisotropic_place((x0, x1, -z0, -z1)) is not None
            err = None if ok else "forms share a value, but none was reported"
        else:
            err = f"unexpected payload {payload}"
    if err is None and code != want:
        err = f"exit code {code}, expected {want}"
    return branch, err


def answer_digits(values) -> int:
    """Decimal digits of the largest numerator or denominator among values."""
    out = 0
    for x in values:
        x = _frac(x)
        out = max(out, len(str(abs(x.numerator))), len(str(x.denominator)))
    return out


def check(workload: str, case: Case, outcome) -> tuple[str, Optional[str], Optional[int]]:
    """(branch, rejection or None, answer digits or None) for one completed operation."""
    if workload.startswith("sqrt"):
        branch, err = check_sqrt(case, case.params, outcome)
        return branch, err, None if outcome is None else answer_digits(outcome[2:])
    if workload == "conic":
        branch, err = check_conic(case, case.params, outcome)
        return branch, err, None if outcome is None else answer_digits(outcome)
    branch, err = check_cli(case, outcome)
    try:
        payload = json.loads(outcome[1])
    except ValueError:
        payload = {}
    if "root" in payload:
        return branch, err, answer_digits(payload["root"])
    if "x" in payload:
        return branch, err, answer_digits((payload["x"], payload["y"]))
    return branch, err, None
