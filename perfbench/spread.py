"""Run the benchmark several times with different seeds and report, for
each end-to-end metric, the median and the spread between the first and
third quartiles as a share of the median.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload reduce --seeds 1-10 [--out FILE] [--record-fingerprints]

Runs are made one after another, never in parallel.  With ``--out`` the
summary is also written as JSON (``perfbench/baseline.json`` holds the
first one); ``--record-fingerprints`` stores each run's output
fingerprint in ``perfbench/fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(benchmark: dict, workload: str, seed: int, record: bool) -> dict:
    cmd = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ] + (["--record-fingerprint"] if record else [])
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(benchmark: dict, results: list) -> dict:
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bound,
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = []
    for seed in seeds(args.seeds):
        result = one_run(benchmark, args.workload, seed, args.record_fingerprints)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        results.append(result)
    summary = summarise(benchmark, results)
    for name, s in summary.items():
        flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above a third of the bound"
        print(f"{name:16} median {s['median']:12.5g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
        print(" " * 17 + " ".join(f"{v:.4g}" for v in s["values"]))
    if args.out:
        Path(args.out).write_text(json.dumps({args.workload: summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
