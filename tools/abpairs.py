"""Alternating parent/change pairs of benchmark runs, judged by the pair rule.

    python tools/abpairs.py PARENT CHANGE --workload W --pairs N --seconds S

PARENT and CHANGE are two checkouts of the repository. Each pair runs each
checkout's own perfbench/run.py once, untraced (--trace 0), with
PYTHONDONTWRITEBYTECODE=1 and after deleting that checkout's
src/**/__pycache__, so both sides compile their sources as a first import
does. The side that runs first alternates from pair to pair.

For each end-to-end metric of the change's BENCHMARK.json it prints both
sides' medians and quartiles and the number of pairs the change wins (ties
count for neither). A gain is shown when there are at least ten pairs, the
change wins at least nine tenths of them and the medians differ, in the
better direction, by more than the parent's interquartile range. The exit
code is 1 when any run fails, is rejected by the benchmark's checker or
reports "failed" > 0 or "correct": false, and 0 otherwise, whether or not a
gain is shown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional


def run_once(root: Path, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """The last stdout line of one untraced run of root's benchmark, or None
    when the run exits nonzero or prints no JSON."""
    for cache in (root / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=os.environ | {"PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        print(f"  {root}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(name: str, better: str, parent: list[float], change: list[float]) -> bool:
    """Print one metric's medians, quartiles and wins; whether a gain is shown."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    pm, cm = statistics.median(parent), statistics.median(change)
    gain = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1
    print(f"{name} ({better} is better)")
    print(f"  parent  median {pm:.6g}  quartiles {p1:.6g} .. {p3:.6g}")
    print(f"  change  median {cm:.6g}  quartiles {c1:.6g} .. {c3:.6g}  ({cm / pm - 1:+.1%})")
    print(f"  change wins {wins}/{len(parent)}; median gap {abs(pm - cm):.6g} against the "
          f"parent's IQR {p3 - p1:.6g}: gain {'shown' if gain else 'not shown'}")
    return gain


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1, help="the same for every run (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    values: dict = {side: {m["name"]: [] for m in spec} for side in sides}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            if result is None or not result.get("correct") or result.get("failed", 1) > 0:
                ok = False
                print(f"pair {pair + 1} {side}: run failed: {result}")
                continue
            metrics = {m["name"]: result["metrics"][m["name"]]["value"] for m in spec}
            for name, value in metrics.items():
                values[side][name].append(value)
            shown = "  ".join(f"{name} {value:.6g}" for name, value in metrics.items())
            print(f"pair {pair + 1} {side}: {shown}  attempted {result['attempted']}", flush=True)
    if not ok:
        print("some runs failed: no pair rule is applied")
        return 1
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}")
    for m in spec:
        judge(m["name"], m["better"], values["parent"][m["name"]], values["change"][m["name"]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
