"""quatsqrt benchmark: one seeded workload, measured as a closed loop.

    python3 perfbench/run.py --workload sqrt-nonsplit-root --seed 1 --seconds 28 --trace 0

One client in one process sends the next operation only after the previous
one returns. Workloads (see gen.py for the generators):

  sqrt-noncentral     sqrt of non-central squares over 24 small algebras
  sqrt-split-none     sqrt of central elements of the split ones of them and
                      of central scalars without a root in the non-split ones
  sqrt-nonsplit-root  sqrt of central squares in the non-split ones
  conic               direct solve_conic(alpha, c), |alpha| <= 10^6
  sqrt-mixed          the kinds of the first three in turn
  sqrt-hard           sqrt of central elements, a new algebra per case with
                      |alpha|, |beta| <= 10^4; factoring dominates and some
                      cases exceed their budget, which counts as a failure
  cli                 `python -m quatsqrt.cli` subprocess calls over every
                      subcommand

BENCHMARK.json gates the first four: the noncentral and nonsplit_root
branches of sqrt each have their own latency gate, the split and
nonsplit_none branches, of like latency, share one, and conic has its own.
sqrt-mixed is the traced profile of the small tier; sqrt-hard is not gated
because its over-budget cases are failures by design; cli is not gated
because process start-up on a shared 2-vCPU host moved its p90 by 29-37%
(IQR over median) across ten seeds. They run the same way by hand.

--trace 0 measures untraced and reports the end-to-end metrics. --trace 1
runs operations untraced for a third of --seconds, then the same operations
traced on fresh copies of their inputs; it reports per-layer metrics, the
tracing overhead and where each branch spends its time, and writes the spans
to .perfbench/ at the root of the checkout (tracing.read_spans reads them).

Every answer is checked after the timed loop by check.py, which shares no
code with quatsqrt. Each case runs under a time budget enforced with
SIGALRM (a subprocess timeout for cli); an operation that raises, exceeds
its budget or is rejected by the checker counts as failed. A rejected answer
makes the command exit 1. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report with sample counts and input digests. --report FILE also
writes every figure of the report to FILE as JSON.

spread.py repeats a run over many seeds and reports each metric's spread;
selftest.py tests the benchmark's own parts (python3 -m pytest
perfbench/selftest.py); baseline.json holds the figures measured at the
commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import marshal
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import gen
import objects
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Per-case budget in seconds. sqrt-hard's is the tier's real limit; the
# others sit far above their slowest cases and only guard against hangs.
BUDGET_S = dict.fromkeys(gen.WORKLOADS, 30.0) | {"sqrt-hard": 5.0}
# Cases built during set-up; the loop draws further cases from the same
# seeded stream if it runs out, so no input is measured twice, except in
# the workloads of REPEATED.
POOL = dict.fromkeys(gen.WORKLOADS, 1500) | {"sqrt-hard": 60, "cli": 120,
                                             "sqrt-nonsplit-root": 200}
SETUP_REPEATS = 11
# sqrt-nonsplit-root measures one element stream for every seed (see
# gen.NONSPLIT_ROOT_SEED), and only its pool, over and over until the time
# is up; a case's latency is the p90 of its passes. The shared host runs for
# seconds at a time at half speed or less: with each case measured once, p90
# moved by 26-48% (IQR over median) between runs; over the passes of eight
# 28 s runs, the p90 over cases of each case's mean moved by 8%, of each
# case's p90 by 4%. After the first pass, only the cases within a factor
# REMEASURE of that pass's p90 are measured again: no change of host speed
# takes the others near p90, and without them a pass takes a fifth of the
# time, so a case near p90 is measured 11-15 times in a run.
REPEATED = {"sqrt-nonsplit-root"}
REMEASURE = 2.0
SQRT_BRANCHES = ("noncentral", "split", "nonsplit_root", "nonsplit_none")

# The gated end-to-end metrics (BENCHMARK.json): the ones every workload
# has and that stay steady between runs. The shared host alternates between
# two speeds about 2x apart, often within one run. op_p50_ms is reported but
# not gated: most sqrt-noncentral operations take nearly the same time, so
# its median jumped between the two speeds' values (IQR over median 0.52 over
# ten seeds) while p90 moved 0.17. ops_per_s is reported but not gated
# either: on sqrt-nonsplit-root it counts the slowest cases once and the
# others once a pass, so it moves with the number of passes a run makes.
END_TO_END = {
    "setup_s": "s",
    "op_p90_ms": "ms",
}
# The per-layer metrics printed with --trace 1 (BENCHMARK.json per_layer).
PER_LAYER = {
    "rationals.factor.calls": "1/op",
    "rationals.factor.self_ms": "ms/op",
    "rationals.factor.distinct_frac": "ratio",
    "rationals.factor.digits_max": "digits",
    "rationals.is_prime.calls": "1/op",
    "rationals.is_prime.self_ms": "ms/op",
    "rationals.squarefree_part.calls": "1/op",
    "rationals.squarefree_part.self_ms": "ms/op",
    "places.support_places.calls": "1/op",
    "places.support_places.self_ms": "ms/op",
    "places.is_local_square.calls": "1/op",
    "places.is_local_square.self_ms": "ms/op",
    "hilbert.hilbert_symbol.calls": "1/op",
    "hilbert.hilbert_symbol.self_ms": "ms/op",
    "hilbert.hilbert_symbol.distinct_frac": "ratio",
    "hilbert.hasse_invariant.calls": "1/op",
    "hilbert.hasse_invariant.self_ms": "ms/op",
    "forms.solve_conic.calls": "1/op",
    "forms.solve_conic.self_ms": "ms/op",
    "forms.solve_conic.solved_frac": "ratio",
    "forms.is_isotropic.calls": "1/op",
    "forms.is_isotropic.self_ms": "ms/op",
    "forms.represents.calls": "1/op",
    "forms.represents.self_ms": "ms/op",
    "sqclasses.common_value.calls": "1/op",
    "sqclasses.common_value.self_ms": "ms/op",
    "sqclasses.common_value.rounds_per_call": "count",
    "sqclasses.solve_gf2.calls": "1/op",
    "sqclasses.solve_gf2.self_ms": "ms/op",
    "sqclasses.solve_gf2.solved_frac": "ratio",
    "quaternions.sqrt.calls": "1/op",
    "quaternions.sqrt.self_ms": "ms/op",
    "quaternions.is_split.calls": "1/op",
    "quaternions.is_split.self_ms": "ms/op",
    "quaternions.square.calls": "1/op",
    "quaternions.square.self_ms": "ms/op",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Sample(NamedTuple):
    """One timed operation; index is the case's place in the measured list."""

    case: gen.Case
    outcome: object
    seconds: float
    error: Optional[str]
    index: int


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside an operation; BaseException so no library
    `except Exception` can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def import_quatsqrt():
    """Import quatsqrt from this checkout's src/, refusing any other copy."""
    if not (SRC / "quatsqrt" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'quatsqrt'} not found; run from a quatsqrt checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quatsqrt
    import quatsqrt.cli

    if Path(quatsqrt.__file__).resolve().parent != (SRC / "quatsqrt").resolve():
        sys.exit(f"error: imported quatsqrt from {quatsqrt.__file__}, not {SRC}")
    return quatsqrt


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Workload:
    """The seeded case stream of one workload, turned into library calls."""

    def __init__(self, name: str, seed: int, in_process_cli: bool = False):
        self.name = name
        self.seed = seed
        self.in_process_cli = in_process_cli
        self.stream = gen.stream(name, seed)
        self.algebras: dict = {}
        self.qs = import_quatsqrt()
        self.env = _cli_env()

    def take(self, n: int):
        return self.build([next(self.stream) for _ in range(n)])

    def build(self, cases):
        return [(c, objects.build(self.qs, self.name, c.params, self.algebras)) for c in cases]

    def call(self, built):
        """Run one operation; returns the raw outcome the checker reads."""
        qs = self.qs
        if self.name.startswith("sqrt"):
            root = qs.quaternions.sqrt(built)
            if root is None:
                return None
            return (root.algebra.alpha, root.algebra.beta) + root.coords
        if self.name == "conic":
            return qs.forms.solve_conic(*built)
        if self.in_process_cli:
            code, out = qs.cli.run(built)
            return code, out, ""
        proc = subprocess.run(
            [sys.executable, "-m", "quatsqrt.cli", *built],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=BUDGET_S["cli"],
        )
        return proc.returncode, proc.stdout, proc.stderr


def _stream_order(wl: Workload, cases):
    """Each case once, drawing more from the stream when the list runs out."""
    for i in itertools.count():
        if i == len(cases):
            cases.extend(wl.take(max(1, len(cases) // 4)))
        yield i


def _repeat_order(cases, samples):
    """The cases over and over; after the first pass, only those within a
    factor REMEASURE of its p90 (samples holds the first pass once it is done)."""
    yield from range(len(cases))
    first = [math.inf if s.error else s.seconds for s in samples[: len(cases)]]
    p90 = percentile(first, 0.9)
    band = [i for i, t in enumerate(first) if p90 / REMEASURE <= t <= p90 * REMEASURE]
    yield from itertools.cycle(band or range(len(cases)))


def run_loop(wl: Workload, cases, seconds: float, limit: int | None = None,
             tracer=None, repeat: bool = False, between=None, every: float = 0.0) -> list[Sample]:
    """Closed loop over cases: each once, drawing more from the stream if
    needed, or, with repeat, over and over (_repeat_order).

    Stops after `seconds` of wall time, or after `limit` operations. A
    sample's error is "timeout", an exception's traceback, or None.
    `between`, if given, is called between operations at the start and
    then every `every` seconds of the loop; its time does not count.
    """
    budget = BUDGET_S[wl.name]
    use_alarm = not (wl.name == "cli" and not wl.in_process_cli)
    samples: list[Sample] = []
    order = _repeat_order(cases, samples) if repeat else _stream_order(wl, cases)
    deadline = time.perf_counter() + seconds
    next_call = deadline - seconds if between is not None else math.inf
    for i in order:
        if len(samples) == limit or limit is None and time.perf_counter() >= deadline:
            break
        if time.perf_counter() >= next_call:
            t0 = time.perf_counter()
            between()
            paused = time.perf_counter() - t0
            deadline += paused
            next_call = t0 + paused + every
        case, built = cases[i]
        if tracer is not None:
            tracer.begin_op()
        error = outcome = None
        t0 = time.perf_counter()
        try:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                outcome = wl.call(built)
            finally:
                if use_alarm:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (BudgetExceeded, subprocess.TimeoutExpired):
            error = "timeout"
        except Exception:  # a raising operation is a failed one
            error = traceback.format_exc()
        samples.append(Sample(case, outcome, time.perf_counter() - t0, error, i))
    return samples


class Row(NamedTuple):
    """One checked operation. error is the operation's own failure (timeout
    or exception), rejected the checker's verdict on its answer; case is
    the sample's index, shared by the passes over one case."""

    branch: str
    ms: float
    error: Optional[str]
    rejected: Optional[str]
    digits: Optional[int]
    case: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.rejected is not None


def check_samples(workload: str, samples) -> list[Row]:
    """Classify and check every sample, after the timed loop. A failed
    operation gets the branch the checker decides for its input."""
    import check  # imports sympy, which set-up children should not pay for

    rows = []
    for case, outcome, elapsed, error, index in samples:
        rejected = digits = None
        if error is None:
            branch, rejected, digits = check.check(workload, case, outcome)
        elif workload.startswith("sqrt"):
            branch = check.sqrt_branch(case.params[0], case.params[1], case.params[2:])
        else:
            branch = workload
        rows.append(Row(branch, elapsed * 1e3, error, rejected, digits, index))
    return rows


def percentile(values, q: float) -> float:
    """The q-quantile, smoothed: the mean of the order statistics within one
    standard error (sqrt(n q (1-q)) ranks) of the nearest rank ceil(q*n).
    Where the sorted values jump, as they do in a heavy tail, the plain
    nearest rank moved by the size of the jump when noise reordered two
    values across it; the mean moves by a fraction of it. An infinite value
    in the window (a failed operation) makes the result infinite."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    width = math.ceil(math.sqrt(n * q * (1 - q)))
    window = ordered[max(0, rank - 1 - width): rank + width]
    return math.fsum(window) / len(window)


def _latency(passes: list[Row]) -> float:
    """One case's latency over its passes: their p90, infinite if any
    failed, as a failed operation has missed every latency limit."""
    if any(r.failed for r in passes):
        return math.inf
    return percentile([r.ms for r in passes], 0.9)


def summarize(workload: str, rows, busy_s: float) -> tuple[dict, dict]:
    """(Every end-to-end figure the workload has, by its documented name;
    the latency sample count of each branch). Latencies are per case: a row
    without a case index is a case of its own."""
    out: dict = {}
    attempted = len(rows)
    failed = sum(1 for r in rows if r.failed)
    out["ops_per_s"] = (attempted - failed) / busy_s
    out["failed_frac"] = failed / attempted
    passes: dict = {}
    for k, r in enumerate(rows):
        passes.setdefault(k if r.case is None else r.case, []).append(r)
    cases = [(p[0].branch, _latency(p)) for p in passes.values()]
    lat = [ms for _, ms in cases]
    out["op_p50_ms"] = percentile(lat, 0.5)
    out["op_p90_ms"] = percentile(lat, 0.9)
    counts = {}
    branches = SQRT_BRANCHES if workload.startswith("sqrt") else (workload,)
    for branch in branches:
        vals = [ms for b, ms in cases if b == branch]
        counts[branch] = len(vals)
        if vals:
            out[f"{branch}_p50_ms"] = percentile(vals, 0.5)
            out[f"{branch}_p90_ms"] = percentile(vals, 0.9)
    digits = [r.digits for r in rows if r.digits is not None]
    if digits:
        out["answer_digits_p50"] = statistics.median(digits)
    return out, counts


def setup_probe(workload: str, cases: list) -> Callable[[], float]:
    """A function timing, in a fresh interpreter, the import of quatsqrt and
    the building of `cases` as library objects (objects.py). The cases reach
    the interpreter ready-made, so generating them is not timed."""
    blob = marshal.dumps([objects.encode(c.params) for c in cases])

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, str(Path(objects.__file__).resolve()), str(SRC), workload],
            input=blob, capture_output=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed: {proc.stderr.decode().strip()}")
        return float(proc.stdout)

    return probe


def _child_ms(code: str, env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60, check=True)
    return float(proc.stdout)


def cli_probe(seed: int, repeats: int = 5) -> dict:
    """cli layer: bare interpreter, `import quatsqrt.cli`, in-process cli.run."""
    env = _cli_env()
    interp = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, timeout=60, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
    code = ("import time; t = time.perf_counter(); import quatsqrt.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    imports = [_child_ms(code, env) for _ in range(repeats)]
    wl = Workload("cli", seed, in_process_cli=True)
    cases = wl.take(45)
    runs = []
    for _, argv in cases:
        t0 = time.perf_counter()
        wl.call(argv)
        runs.append((time.perf_counter() - t0) * 1e3)
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports),
        "cli.run_ms": statistics.median(runs),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(header: str, metrics: dict, units: dict, notes: dict) -> None:
    print(header)
    for name, value in metrics.items():
        note = notes.get(name, "")
        unit = units.get(name, "ms" if name.endswith("_ms") else "")
        print(f"  {name:42s} {_fmt(value):>14s} {unit:7s} {note}".rstrip())


UNITS = dict(END_TO_END, ops_per_s="1/s", failed_frac="ratio", op_p50_ms="ms",
             answer_digits_p50="digits")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=Path, help="also write every reported figure here as JSON")
    args = ap.parse_args(argv)

    import_quatsqrt()
    signal.signal(signal.SIGALRM, _on_alarm)
    name, seed = args.workload, args.seed
    print(f"workload {name}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"budget {BUDGET_S[name]:g} s/case  python {sys.version.split()[0]}  nproc {os.cpu_count()}")

    wl = Workload(name, seed, in_process_cli=bool(args.trace))
    cases = wl.take(POOL[name])
    pool = [c for c, _ in cases]
    pool_digest = gen.digest(pool)
    if not args.trace:
        # Set-up is timed at intervals through the run, so that its median
        # spans the host's fast and slow spells. The first probe, unrecorded,
        # also reads the files into the page cache.
        probe = setup_probe(name, pool)
        probe()
        setup_times: list[float] = []
        samples = run_loop(wl, cases, args.seconds, repeat=name in REPEATED,
                           between=lambda: setup_times.append(probe()),
                           every=args.seconds / SETUP_REPEATS)
        setup_s = statistics.median(setup_times)
    else:
        # A third of the time untraced, then the same cases traced; tracing
        # slows the library by about half, so the run stays near --seconds.
        untraced = run_loop(wl, cases, args.seconds / 3, repeat=name in REPEATED)
        fresh = Workload(name, seed, in_process_cli=True)
        copy = fresh.build([s.case for s in untraced])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            samples = run_loop(fresh, copy, 0, limit=len(copy), tracer=tracer)
        finally:
            tracer.uninstall()
        untraced_s = sum(s.seconds for s in untraced)

    rows = check_samples(name, samples)
    busy_s = sum(s.seconds for s in samples)
    summary, counts = summarize(name, rows, busy_s)
    attempted = len(rows)
    failed = sum(1 for r in rows if r.failed)
    rejected = sum(1 for r in rows if r.rejected)
    if args.trace:
        rejected += sum(1 for r in check_samples(name, untraced) if r.rejected)
    errors = [(s.case.text(), r.error or r.rejected) for s, r in zip(samples, rows) if r.failed]
    print(f"  inputs: pool of {POOL[name]} cases sha256 {pool_digest}")
    print(f"  measured: {attempted} cases sha256 {gen.digest(s.case for s in samples)}")

    if not args.trace:
        summary["setup_s"] = setup_s
        notes = {f"{b}_p50_ms": f"n={n} cases" for b, n in counts.items()}
        notes["failed_frac"] = f"{failed} failed of {attempted} attempted"
        notes["setup_s"] = f"median of {len(setup_times)}"
        if name in REPEATED:
            notes["op_p90_ms"] = f"{len(pool)} cases, measured {attempted} times in all"
        ordered = {k: summary[k] for k in ("setup_s", "ops_per_s", "failed_frac") if k in summary}
        ordered.update((k, v) for k, v in summary.items() if k not in ordered)
        report("end-to-end:", ordered, UNITS, notes)
        figures = {"metrics": ordered, "branch_counts": counts}
        metrics = {k: summary[k] for k in END_TO_END}
        units = END_TO_END
    else:
        layers, profile = tracing.analyze(tracer, attempted, {i + 1: r.branch for i, r in enumerate(rows)})
        layers.update(cli_probe(seed))
        layers["trace.overhead_frac"] = busy_s / untraced_s - 1
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.bin.gz"
        tracer.write(spans_path)
        print(f"  spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
        notes = {"trace.overhead_frac": f"traced vs untraced time on the same {attempted} cases"}
        report("per-layer (per workload operation):", layers, PER_LAYER, notes)
        print("time by branch (shares of the time in top-level spans):")
        for branch, p in profile.items():
            shares = ", ".join(f"{layer} {share:.0%}" for layer, share in p["self_share"].items())
            print(f"  {branch}: {p['ops']} ops, {p['under_common_value']:.0%} under "
                  f"sqclasses.common_value; self time: {shares}")
        figures = {"metrics": layers, "time_by_branch": profile}
        metrics = {k: layers[k] for k in PER_LAYER}
        units = PER_LAYER
    if args.report:
        figures.update(workload=name, seed=seed, attempted=attempted, failed=failed,
                       inputs_sha256=pool_digest)
        args.report.write_text(json.dumps(figures, indent=1) + "\n")
    for case_text, err in errors[:10]:
        print(f"  failed: {case_text}: {err.strip().splitlines()[-1]}")
    tracebacks = [err for _, err in errors if err.startswith("Traceback")]
    if tracebacks:
        print(tracebacks[0], file=sys.stderr)

    correct = not rejected
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
