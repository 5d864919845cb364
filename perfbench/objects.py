"""Library objects for generated cases, and the set-up probe that times them.

run.py builds every case it measures with `build`. Run as a script, this
file is run.py's set-up probe, started in a fresh interpreter:

    python3 perfbench/objects.py SRC WORKLOAD < cases.marshal

It reads the cases' params from stdin in `marshal` format (rationals as
(numerator, denominator) pairs, CLI arguments as strings), then times
importing quatsqrt from SRC and building the cases' library objects, and
prints the seconds. Before the clock starts it imports nothing but `sys`,
`time` and `marshal`, so the import is timed as a user's first import, and
turning the pairs into Fractions is not timed.
"""

import marshal
import sys
import time


def build(qs, workload: str, params: tuple, algebras: dict):
    """The library object one operation of `workload` takes. sqrt-hard gets
    a new algebra per case; the other sqrt workloads share theirs through
    `algebras`."""
    if workload.startswith("sqrt"):
        alpha, beta, *q = params
        if workload == "sqrt-hard":
            algebra = qs.QuaternionAlgebra(alpha, beta)
        else:
            algebra = algebras.get((alpha, beta))
            if algebra is None:
                algebra = algebras[(alpha, beta)] = qs.QuaternionAlgebra(alpha, beta)
        return algebra.quaternion(*q)
    if workload == "conic":
        return params
    return list(params)


def encode(params: tuple) -> tuple:
    """params with each rational as a (numerator, denominator) pair."""
    return tuple(p if isinstance(p, str) else (p.numerator, p.denominator) for p in params)


def main() -> None:
    src, workload = sys.argv[1:]
    cases = marshal.load(sys.stdin.buffer)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import quatsqrt

    import_s = time.perf_counter() - t0
    from fractions import Fraction

    params = [tuple(p if isinstance(p, str) else Fraction(*p) for p in case) for case in cases]
    algebras: dict = {}
    t0 = time.perf_counter()
    for p in params:
        build(quatsqrt, workload, p, algebras)
    build_s = time.perf_counter() - t0
    if not quatsqrt.__file__.startswith(src):
        sys.exit(f"error: imported quatsqrt from {quatsqrt.__file__}, not {src}")
    print(repr(import_s + build_s))


if __name__ == "__main__":
    main()
