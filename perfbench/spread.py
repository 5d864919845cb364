"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workloads sqrt-split-none,conic --seeds 1-10 --out spread.json

Runs are untraced and sequential, one process at a time. For every workload
and every end-to-end figure run.py reports (gated or not) it prints the
median of the runs and the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The run's JSON result line, and the figures it wrote with --report."""
    OUT.mkdir(exist_ok=True)
    report = OUT / f"report-{workload}-seed{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--report", str(report)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(report.read_text())["metrics"]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="a seed or an inclusive range like 1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    seeds = _seeds(args.seeds)
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds, "seeds": seeds, "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs, reports = [], []
        for seed in seeds:
            result, report = run_once(workload, seed, args.seconds)
            runs.append(result)
            reports.append(report)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        gated = {name: summarize([r["metrics"][name]["value"] for r in runs])
                 for name in runs[0]["metrics"]}
        out["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "gated": gated,
            "report": {name: summarize([r[name] for r in reports])
                       for name in reports[0] if all(name in r for r in reports)},
        }
        for name, s in gated.items():
            print(f"  {workload:18s} {name:30s} median {s['median']:12.6g}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
