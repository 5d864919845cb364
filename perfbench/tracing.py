"""Spans around quatsqrt's layer boundaries, recorded from outside the package.

`Tracer.install` replaces each traced function in every quatsqrt namespace
that binds it (the defining module, modules that imported it by name, the
package's re-exports) and the two traced methods on their classes;
`uninstall` puts the originals back. Untraced runs never construct a Tracer.

A span is (name, start, end, parent, operation id); spans stay in memory in
compact arrays and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, function) pairs, named "<module>.<function>" in spans and metrics.
FUNCTIONS = (
    ("rationals", "factor"),
    ("rationals", "is_prime"),
    ("rationals", "squarefree_part"),
    ("places", "support_places"),
    ("places", "is_local_square"),
    ("hilbert", "hilbert_symbol"),
    ("hilbert", "hasse_invariant"),
    ("forms", "solve_conic"),
    ("forms", "is_isotropic"),
    ("forms", "represents"),
    ("sqclasses", "common_value"),
    ("sqclasses", "singular_basis"),
    ("sqclasses", "solve_gf2"),
    ("quaternions", "sqrt"),
    ("cli", "run"),
)
# (module, class, method) triples, named "<module>.<method>".
METHODS = (
    ("quaternions", "QuaternionAlgebra", "is_split"),
    ("quaternions", "Quaternion", "square"),
)
DISTINCT = ("rationals.factor", "hilbert.hilbert_symbol")
OUTCOMES = ("forms.solve_conic", "sqclasses.solve_gf2")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = 0
        self.stack: list[int] = []
        self.args: dict[str, set] = {name: set() for name in DISTINCT}
        self.solved: dict[str, int] = {name: 0 for name in OUTCOMES}
        self.factor_digits_max = 0
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.op_id += 1
        self.stack.clear()
        self._trim()

    def _trim(self) -> None:
        """A budget alarm can interrupt a wrapper between its appends: drop
        the partly recorded span."""
        fields = (self.span_name, self.start, self.end, self.parent, self.op)
        n = min(len(a) for a in fields)
        for a in fields:
            del a[n:]

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, op = (
            self.span_name, self.start, self.end, self.parent, self.op
        )
        stack = self.stack
        distinct = self.args.get(name)
        count_solved = name in self.solved
        is_factor = name == "rationals.factor"

        def wrapper(*args, **kwargs):
            idx = len(start)
            t = perf_counter()
            start.append(t)
            end.append(t)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                if stack and stack[-1] == idx:
                    stack.pop()
            if distinct is not None:
                distinct.add(args)
            if count_solved and result is not None:
                self.solved[name] += 1
            if is_factor:
                q = Fraction(args[0])
                digits = max(len(str(abs(q.numerator))), len(str(q.denominator)))
                self.factor_digits_max = max(self.factor_digits_max, digits)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k == "quatsqrt" or k.startswith("quatsqrt.")}
        targets = {}
        for mod, fn in FUNCTIONS:
            original = getattr(mods[f"quatsqrt.{mod}"], fn)
            targets[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, cls_name, meth in METHODS:
            cls = getattr(mods[f"quatsqrt.{mod}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def spans(self):
        """(name, start, end, parent index, operation id) for every span."""
        self._trim()
        for i in range(len(self.start)):
            yield (self.names[self.span_name[i]], self.start[i], self.end[i], self.parent[i], self.op[i])

    def write(self, path) -> None:
        """Gzipped: one JSON header line (span names, array type codes and
        lengths), then the raw bytes of each array in header order."""
        self._trim()
        arrays = {"name": self.span_name, "start": self.start, "end": self.end,
                  "parent": self.parent, "op": self.op}
        header = {"names": self.names,
                  "arrays": [[k, a.typecode, len(a)] for k, a in arrays.items()]}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                out.write(a.tobytes())


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of Tracer.write: (span names, arrays by field)."""
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for key, code, n in header["arrays"]:
            a = array(code)
            a.frombytes(f.read(n * a.itemsize))
            arrays[key] = a
    return header["names"], arrays


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the part of it covered by its child spans.

    Spans are in the order they were recorded, so each span's children come
    in order of their start.
    """
    covered = array("d", bytes(8 * len(starts)))
    reach = array("d", starts)
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo, hi = max(starts[i], reach[p]), min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (e - s - c for s, e, c in zip(starts, ends, covered)))


def analyze(tracer: Tracer, ops: int, branch_of_op: dict[int, str]):
    """Per-layer metrics per workload operation (calls, self ms, ratios),
    and per branch: operations, time under sqclasses.common_value as a share
    of the time in top-level spans, and each layer's share of self time."""
    tracer._trim()
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names, span_name, parent, op = tracer.names, tracer.span_name, tracer.parent, tracer.op
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    cv = tracer.name_id.get("sqclasses.common_value")
    sb = tracer.name_id.get("sqclasses.singular_basis")
    rounds = 0
    branch_ops: dict[str, set] = defaultdict(set)
    total: dict[str, float] = defaultdict(float)
    under_cv: dict[str, float] = defaultdict(float)
    layer: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, nid in enumerate(span_name):
        calls[nid] += 1
        self_s[nid] += selfs[i]
        branch = branch_of_op[op[i]]
        branch_ops[branch].add(op[i])
        layer[branch][names[nid].split(".")[0]] += selfs[i]
        if parent[i] < 0:
            total[branch] += tracer.end[i] - tracer.start[i]
        if nid == cv:
            under_cv[branch] += tracer.end[i] - tracer.start[i]
        elif nid == sb:
            p = parent[i]
            while p >= 0 and span_name[p] != cv:
                p = parent[p]
            rounds += p >= 0
    count = dict(zip(names, calls))
    metrics = {}
    for name, n, t in zip(names, calls, self_s):
        metrics[f"{name}.calls"] = n / ops
        metrics[f"{name}.self_ms"] = t * 1e3 / ops
    for name, seen in tracer.args.items():
        metrics[f"{name}.distinct_frac"] = len(seen) / count[name] if count.get(name) else 0.0
    for name, solved in tracer.solved.items():
        metrics[f"{name}.solved_frac"] = solved / count[name] if count.get(name) else 0.0
    metrics["rationals.factor.digits_max"] = tracer.factor_digits_max
    ncv = count.get("sqclasses.common_value", 0)
    metrics["sqclasses.common_value.rounds_per_call"] = rounds / ncv if ncv else 0.0
    profile = {
        branch: {
            "ops": len(branch_ops[branch]),
            "under_common_value": under_cv[branch] / total[branch],
            "self_share": {k: v / total[branch] for k, v in sorted(
                layer[branch].items(), key=lambda kv: -kv[1])},
        }
        for branch in sorted(total) if total[branch]
    }
    return metrics, profile
