"""Self-tests of the benchmark's own parts.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's test_*.py pattern so the library's suite does
not pick it up.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

import check
import gen
import run
import tracing

# The end-to-end figures the report prints by name, gated or not.
REPORTED_END_TO_END = {
    "setup_s", "ops_per_s", "failed_frac",
    "noncentral_p50_ms", "noncentral_p90_ms", "split_p50_ms", "split_p90_ms",
    "nonsplit_root_p50_ms", "nonsplit_root_p90_ms", "nonsplit_none_p50_ms", "nonsplit_none_p90_ms",
    "conic_p50_ms", "conic_p90_ms", "cli_p50_ms", "cli_p90_ms", "answer_digits_p50",
}


def _first(workload, seed, n=60):
    return list(itertools.islice(gen.stream(workload, seed), n))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert gen.digest(_first(workload, 5)) == gen.digest(_first(workload, 5))
    if workload == "sqrt-nonsplit-root":  # the same stream for every seed
        assert gen.digest(_first(workload, 5)) == gen.digest(_first(workload, 6))
    else:
        assert gen.digest(_first(workload, 5)) != gen.digest(_first(workload, 6))


@pytest.mark.parametrize("workload, branches", [
    ("sqrt-noncentral", ["noncentral"]), ("sqrt-nonsplit-root", ["nonsplit_root"]),
    ("sqrt-split-none", ["split", "nonsplit_none"]),
])
def test_branch_workloads_keep_to_their_branches(workload, branches):
    for k, case in enumerate(_first(workload, 4)):
        branch = check.sqrt_branch(case.params[0], case.params[1], case.params[2:])
        assert branch == branches[k % len(branches)]


def test_setup_probe_builds_the_cases():
    cases = _first("sqrt-split-none", 2, 20)
    assert 0 < run.setup_probe("sqrt-split-none", cases)() < 10


def test_loop_calls_between_at_intervals_outside_the_timed_operations():
    wl = run.Workload("conic", 1)
    calls = []
    samples = run.run_loop(wl, wl.take(5), 0.5, between=lambda: calls.append(time.sleep(0.2)),
                           every=0.1)
    assert 3 <= len(calls) <= 6
    assert all(s.seconds < 0.2 for s in samples)
    assert len(run.run_loop(wl, wl.take(5), 0, limit=3)) == 3  # as the traced replay runs


def test_planted_squares_square_to_the_input():
    for case in _first("sqrt-mixed", 1):
        alpha, beta, *q = case.params
        if case.planted is not None:
            assert gen.quat_mul(alpha, beta, case.planted, case.planted) == tuple(q)


def test_integer_square_check_agrees_with_the_product():
    alpha, beta = Fraction(1, 2), Fraction(-3, 5)
    r = (Fraction(2, 3), Fraction(-1, 7), Fraction(5), Fraction(3, 4))
    q = gen.quat_mul(alpha, beta, r, r)
    assert check.squares_to(alpha, beta, r, q)
    assert not check.squares_to(alpha, beta, r, q[:3] + (q[3] + Fraction(1, 9),))
    assert not check.squares_to(alpha, -beta, r, q)
    for case in _first("sqrt-mixed", 2):
        if case.planted is not None:
            alpha, beta, *q = case.params
            assert check.squares_to(alpha, beta, case.planted, q)


def test_checker_accepts_a_true_root_and_rejects_a_corrupted_one():
    case = next(c for c in _first("sqrt-mixed", 3) if c.kind == "pure_square")
    alpha, beta = case.params[:2]
    assert check.check_sqrt(case, case.params, (alpha, beta) + case.planted)[1] is None
    r0, r1, r2, r3 = case.planted
    assert check.check_sqrt(case, case.params, (alpha, beta, r0, r1 + 1, r2, r3))[1] is not None
    assert check.check_sqrt(case, case.params, (alpha, -beta) + case.planted)[1] is not None


def test_checker_rejects_a_false_none():
    planted = next(c for c in _first("sqrt-mixed", 3) if c.kind == "noncentral_square")
    assert check.check_sqrt(planted, planted.params, None)[1] is not None
    # -1 is a square in Hamilton's quaternions (i*i), though not in Q.
    hamilton = gen.Case("scalar", (Fraction(-1), Fraction(-1), Fraction(-1), 0, 0, 0))
    branch, error = check.check_sqrt(hamilton, hamilton.params, None)
    assert branch == "nonsplit_root" and error is not None
    # 2 has no root there: <2, 1, 1, 1> is positive definite.
    two = gen.Case("scalar", (Fraction(-1), Fraction(-1), Fraction(2), 0, 0, 0))
    assert check.check_sqrt(two, two.params, None) == ("nonsplit_none", None)


def test_checker_on_conics():
    solvable = gen.Case("conic_random", (Fraction(2), Fraction(1, 2)))
    assert check.check_conic(solvable, solvable.params, None)[1] is not None
    assert check.check_conic(solvable, solvable.params, (1, Fraction(1, 2)))[1] is None
    assert check.check_conic(solvable, solvable.params, (1, 1))[1] is not None
    unsolvable = gen.Case("conic_random", (Fraction(-1), Fraction(-1)))
    assert check.check_conic(unsolvable, unsolvable.params, None)[1] is None


def test_checker_on_cli_outputs():
    case = gen.Case("sqrt_nonsplit", ("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "0,2,0,0"))
    good = '{"status":"ok","root":["1","1","0","0"],"verified":true}'
    assert check.check_cli(case, (0, good, ""))[1] is None
    assert check.check_cli(case, (1, good, ""))[1] is not None
    assert check.check_cli(case, (1, '{"status":"not_a_square"}', ""))[1] is not None
    hilbert = gen.Case("hilbert", ("hilbert", "--a", "-1", "--b", "-1", "--place", "inf"))
    assert check.check_cli(hilbert, (0, '{"symbol":-1}', ""))[1] is None
    assert check.check_cli(hilbert, (0, '{"symbol":1}', ""))[1] is not None


def test_hilbert_symbol_matches_a_congruence_search():
    """z^2 = a x^2 + b y^2 has a primitive solution mod p^k (k = 5 at 2, 3 at
    odd p), found with one coordinate scaled to 1."""
    def search(a, b, p):
        m = p ** (5 if p == 2 else 3)
        squares = {w * w % m for w in range(m)}
        b_values = {b * y * y % m for y in range(m)}
        return 1 if (
            any((a + b * y * y) % m in squares for y in range(m))
            or any((a * x * x + b) % m in squares for x in range(m))
            or any((1 - a * x * x) % m in b_values for x in range(m))
        ) else -1

    for a, b in itertools.product((-6, -3, -1, 2, 5, 7, 15), repeat=2):
        for p in (2, 3, 5, 7):
            assert check.hilbert(Fraction(a), Fraction(b), p) == search(a, b, p), (a, b, p)
        assert check.hilbert(Fraction(a), Fraction(b), check.REAL) == (-1 if a < 0 and b < 0 else 1)


def test_self_time_on_a_synthetic_span_tree():
    # 0: [0, 10] with children 1: [1, 4] and 2: [5, 6]; 3: [2, 3] is a
    # grandchild inside 1, so it does not count against 0.
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert list(tracing.self_times(starts, ends, parents)) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_it():
    qs = run.import_quatsqrt()
    original = qs.hilbert.hilbert_symbol
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner in (qs, qs.hilbert, qs.forms, qs.sqclasses, qs.quaternions, qs.cli):
            assert owner.hilbert_symbol is not original
        algebra = qs.QuaternionAlgebra(-1, -1)
        tracer.begin_op()
        assert qs.sqrt(algebra.quaternion(3, 0, 0, 0)) is None
        names = {name for name, *_ in tracer.spans()}
        assert {"quaternions.sqrt", "quaternions.is_split", "sqclasses.common_value",
                "hilbert.hilbert_symbol", "rationals.factor"} <= names
    finally:
        tracer.uninstall()
    assert qs.hilbert.hilbert_symbol is original and qs.sqclasses.hilbert_symbol is original
    assert "is_split" in vars(qs.QuaternionAlgebra)


def test_metric_names_match_the_documented_ones():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    rows = [run.Row("noncentral", 1.0, None, None, 2), run.Row("split", 1.0, None, None, 2),
            run.Row("nonsplit_none", 1.0, None, None, None),
            run.Row("nonsplit_root", 2.0, "timeout", None, None)]
    printed = set(run.summarize("sqrt-mixed", rows, 1.0)[0])
    printed |= set(run.summarize("conic", [run.Row("conic", 1.0, None, None, 3)], 1.0)[0])
    printed |= set(run.summarize("cli", [run.Row("cli", 1.0, None, None, 1)], 1.0)[0])
    printed.add("setup_s")
    assert REPORTED_END_TO_END <= printed
    assert set(run.END_TO_END) <= printed


def test_percentile_is_the_mean_near_the_nearest_rank():
    assert run.percentile([2.5] * 7, 0.9) == 2.5
    assert run.percentile(range(1, 101), 0.9) == 90  # ranks 87-93
    assert run.percentile(range(1, 101), 0.5) == 50  # ranks 45-55
    assert run.percentile([1.0] * 185 + [math.inf] * 15, 0.9) == 1.0
    assert run.percentile([1.0] * 184 + [math.inf] * 16, 0.9) == math.inf


def _rows(ms, cases, failed=()):
    return [run.Row("nonsplit_root", ms, "timeout" if k in failed else None, None, 2, k)
            for k in cases]


def test_repeated_cases_take_the_p90_of_their_passes():
    assert run._latency(_rows(1.0, [0] * 9) + _rows(4.0, [0])) == 2.0  # ranks 8-10
    rows = _rows(5.0, range(200)) + _rows(1.0, range(200))
    summary, counts = run.summarize("sqrt-nonsplit-root", rows, 1.0)
    assert summary["op_p50_ms"] == summary["op_p90_ms"] == 3.0
    assert counts["nonsplit_root"] == 200 and summary["ops_per_s"] == 400
    # Without case indices every row is a case of its own.
    plain = [r._replace(case=None) for r in rows]
    assert run.summarize("sqrt-split-none", plain, 1.0)[0]["op_p50_ms"] == 61 / 21  # ranks 190-210


def test_a_failed_pass_ranks_its_case_last():
    rows = _rows(5.0, range(200)) + _rows(1.0, range(200), failed=range(186, 200))
    summary, _ = run.summarize("sqrt-nonsplit-root", rows, 1.0)
    assert summary["op_p90_ms"] == 3.0 and summary["failed_frac"] == 14 / 400
    rows = _rows(5.0, range(200)) + _rows(1.0, range(200), failed=range(184, 200))
    assert run.summarize("sqrt-nonsplit-root", rows, 1.0)[0]["op_p90_ms"] == math.inf


def test_repeat_order_measures_again_only_cases_near_the_first_pass_p90():
    cases = list(range(40))
    samples = []
    order = run._repeat_order(cases, samples)
    times = {3: 1.0, 7: 100.0, 8: 100.0}  # p90 is 10, as are the others
    for i in range(40):
        assert next(order) == i
        samples.append(run.Sample(None, None, times.get(i, 10.0), None, i))
    again = [next(order) for _ in range(74)]
    assert again == [i for i in range(40) if i not in times] * 2


def test_spans_round_trip_through_the_file(tmp_path):
    qs = run.import_quatsqrt()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        qs.solve_conic(2, Fraction(1, 2))
    finally:
        tracer.uninstall()
    tracer.write(tmp_path / "spans.bin.gz")
    names, arrays = tracing.read_spans(tmp_path / "spans.bin.gz")
    spans = [(names[n], s, e, p, o) for n, s, e, p, o in zip(*arrays.values())]
    assert spans == list(tracer.spans())
