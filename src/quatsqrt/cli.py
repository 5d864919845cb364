"""Command-line interface.

Every invocation writes exactly one line of JSON to stdout. Exit codes:
0 for a computed affirmative answer, 1 for a definite negative
(not_a_square, unsolvable, empty_intersection), 2 for invalid input with a
one-line diagnostic on stderr, 3 for an internal error (a failed exact
check, an exhausted search) with one "error: internal:" line on stderr.
Nothing is read from or written to disk, and equal inputs produce
byte-identical output.

The one exception is --help, at the top or after a command: it prints
argparse's usage text, not JSON, and exits 0.
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


def _algebra(args: argparse.Namespace) -> QuaternionAlgebra:
    return QuaternionAlgebra(_nonzero(args.alpha, "--alpha"), _nonzero(args.beta, "--beta"))


def _cmd_sqrt(args: argparse.Namespace) -> tuple[int, dict]:
    q = _algebra(args).quaternion(*_rational_list(args.q, "--q", 4))
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
    return 0, {"split": _algebra(args).is_split()}


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


# command -> (help, handler, ((flag, help or None), ...)); every flag takes a
# value and is required.
_COMMANDS = {
    "sqrt": ("square root of a quaternion", _cmd_sqrt,
             (("--alpha", None), ("--beta", None), ("--q", "q0,q1,q2,q3"))),
    "hilbert": ("Hilbert symbol at a place", _cmd_hilbert,
                (("--a", None), ("--b", None), ("--place", '"inf" or a prime'))),
    "is-split": ("does the algebra split", _cmd_is_split, (("--alpha", None), ("--beta", None))),
    "conic": ("solve x^2 - alpha*y^2 = c", _cmd_conic, (("--alpha", None), ("--c", None))),
    "isotropic": ("isotropy of a diagonal form", _cmd_isotropic,
                  (("--form", "comma-separated entries"),)),
    "common-value": ("value represented by two binary forms", _cmd_common_value,
                     (("--xi", "x0,x1"), ("--zeta", "z0,z1"))),
}
_VALUE_FLAGS = frozenset(flag for _, _, flags in _COMMANDS.values() for flag, _ in flags)


def _build_parser() -> _Parser:
    # --help prints the docstring's first paragraphs, without the one on --help.
    parser = _Parser(prog="quatsqrt", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, hint in flags:
            p.add_argument(flag, required=True, help=hint)
        p.set_defaults(handler=handler)
    return parser


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
