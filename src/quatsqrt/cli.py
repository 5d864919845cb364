"""Command-line interface.

Every invocation writes exactly one line of JSON to stdout. Exit codes:
0 for a computed affirmative answer, 1 for a definite negative
(not_a_square, unsolvable, empty_intersection), 2 for invalid input with a
one-line diagnostic on stderr, 3 for an internal error (a failed exact
check, an exhausted search) with one "error: internal:" line on stderr.
Nothing is read from or written to disk, and equal inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction

from .forms import DiagonalForm, is_isotropic, isotropic_vector, solve_conic
from .hilbert import hilbert_symbol
from .places import parse_place
from .quaternions import QuaternionAlgebra, sqrt
from .rationals import parse_rational
from .sqclasses import common_value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through exceptions instead of exiting."""

    def error(self, message: str) -> None:
        raise _UsageError(message)


def _rational(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _nonzero(text: str, flag: str) -> Fraction:
    value = _rational(text, flag)
    if value == 0:
        raise _UsageError(f"{flag}: must be nonzero")
    return value


def _rational_list(text: str, flag: str, expected: int | None = None) -> list[Fraction]:
    parts = text.split(",")
    if expected is not None and len(parts) != expected:
        raise _UsageError(f"{flag}: expected {expected} comma-separated values")
    return [_rational(part, flag) for part in parts]


def _form(text: str, flag: str, expected: int | None = None) -> DiagonalForm:
    entries = _rational_list(text, flag, expected)
    if any(x == 0 for x in entries):
        raise _UsageError(f"{flag}: entries must be nonzero")
    return DiagonalForm(tuple(entries))


def _fmt(values: Sequence[Fraction]) -> list[str]:
    return [str(v) for v in values]


def _cmd_sqrt(args: argparse.Namespace) -> tuple[int, dict]:
    algebra = QuaternionAlgebra(
        _nonzero(args.alpha, "--alpha"), _nonzero(args.beta, "--beta")
    )
    q = algebra.quaternion(*_rational_list(args.q, "--q", 4))
    root = sqrt(q)
    if root is None:
        return 1, {"status": "not_a_square"}
    # sqrt returns a root only after re-squaring it against q.
    return 0, {"status": "ok", "root": _fmt(root.coords), "verified": True}


def _cmd_hilbert(args: argparse.Namespace) -> tuple[int, dict]:
    a = _nonzero(args.a, "--a")
    b = _nonzero(args.b, "--b")
    try:
        place = parse_place(args.place)
    except ValueError as exc:
        raise _UsageError(f"--place: {exc}") from None
    return 0, {"symbol": hilbert_symbol(a, b, place)}


def _cmd_is_split(args: argparse.Namespace) -> tuple[int, dict]:
    algebra = QuaternionAlgebra(
        _nonzero(args.alpha, "--alpha"), _nonzero(args.beta, "--beta")
    )
    return 0, {"split": algebra.is_split()}


def _cmd_conic(args: argparse.Namespace) -> tuple[int, dict]:
    alpha = _nonzero(args.alpha, "--alpha")
    c = _nonzero(args.c, "--c")
    sol = solve_conic(alpha, c)
    if sol is None:
        return 1, {"status": "unsolvable"}
    x, y = sol
    return 0, {"status": "ok", "x": str(x), "y": str(y)}


def _cmd_isotropic(args: argparse.Namespace) -> tuple[int, dict]:
    form = _form(args.form, "--form")
    answer = is_isotropic(form)
    payload: dict = {"isotropic": answer}
    if answer and form.dim == 3:
        payload["witness"] = _fmt(isotropic_vector(form))
    return 0, payload


def _cmd_common_value(args: argparse.Namespace) -> tuple[int, dict]:
    xi, zeta = _form(args.xi, "--xi", 2), _form(args.zeta, "--zeta", 2)
    d = common_value(xi, zeta)
    if d is None:
        return 1, {"status": "empty_intersection"}
    return 0, {"status": "ok", "d": str(d)}


def _build_parser() -> _Parser:
    parser = _Parser(prog="quatsqrt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sqrt", help="square root of a quaternion")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--q", required=True, help="q0,q1,q2,q3")
    p.set_defaults(handler=_cmd_sqrt)

    p = sub.add_parser("hilbert", help="Hilbert symbol at a place")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--place", required=True, help='"inf" or a prime')
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("is-split", help="does the algebra split")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(handler=_cmd_is_split)

    p = sub.add_parser("conic", help="solve x^2 - alpha*y^2 = c")
    p.add_argument("--alpha", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_conic)

    p = sub.add_parser("isotropic", help="isotropy of a diagonal form")
    p.add_argument("--form", required=True, help="comma-separated entries")
    p.set_defaults(handler=_cmd_isotropic)

    p = sub.add_parser("common-value", help="value represented by two binary forms")
    p.add_argument("--xi", required=True, help="x0,x1")
    p.add_argument("--zeta", required=True, help="z0,z1")
    p.set_defaults(handler=_cmd_common_value)

    return parser


_VALUE_FLAGS = frozenset(
    ("--alpha", "--beta", "--q", "--a", "--b", "--place", "--c", "--form", "--xi", "--zeta")
)


def _merge_flag_values(argv: Sequence[str]) -> list[str]:
    """Join each value flag, or a prefix of one longer than '--' for argparse to
    resolve, with its argument so values may start with '-'."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        value_flag = len(argv[i]) > 2 and any(f.startswith(argv[i]) for f in _VALUE_FLAGS)
        if value_flag and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Execute one request; returns (exit code, stdout line or empty)."""
    try:
        args = _build_parser().parse_args(_merge_flag_values(argv))
        for name, value in vars(args).items():
            if value == []:  # argparse before 3.13 reads the value "--" as no value
                raise _UsageError(f"argument --{name}: expected one argument")
        code, payload = args.handler(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3, ""
    return code, json.dumps(payload, separators=(",", ":"))


def main(argv: Sequence[str] | None = None) -> int:
    code, out = run(sys.argv[1:] if argv is None else argv)
    if out:
        print(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
