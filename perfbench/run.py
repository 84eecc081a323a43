"""Benchmark for the logrewrite library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload identities --seed 1 --seconds 40 --trace 0

Runs rounds of one workload (see README.md): at least two, then more
while another fits in ``--seconds``.  Every round re-imports
``logrewrite`` from ``src/``, so module-level caches start empty in each
round as they do for a command-line user.  A round sets up (import and
parse, and for ``reduce`` completion of the four systems) three times,
then runs the workload's operations one at a time, timing each call into
the library.  Outside the timed region, each output is rendered once with
the library's own ``render_*`` functions, fingerprinted and checked by
the independent checker in ``check.py``.

With ``--trace 1`` the run makes one untraced and one traced round of the
same inputs, prints the per-layer metrics and writes every span to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
OUT = HERE / "out"
# set-up is repeated (with a fresh import each time) so that setup_s is a
# statistic of several samples even on workloads with few rounds
SETUPS_PER_ROUND = 3

import spans  # noqa: E402  (sibling modules of this script)
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import ``logrewrite`` anew, dropping every module of a previous round."""
    for name in [n for n in sys.modules if n == "logrewrite" or n.startswith("logrewrite.")]:
        del sys.modules[name]
    return importlib.import_module("logrewrite")


def upper_quartile(values: list) -> float:
    """The statistic taken over a run's repeated measurements.

    The host's speed switches between a fast and a slow state for seconds
    at a time.  The median of a run's rounds then lands in either state
    depending on when the run happened; the upper quartile follows the
    slow state, which the host is in most of the time, and varies far
    less from run to run (see README.md).
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def digest(blob) -> str:
    return hashlib.sha256(repr(blob).encode()).hexdigest()


class Run:
    """What the rounds of one run have measured and seen."""

    def __init__(self, workload):
        self.workload = workload
        self.setups: list = []
        self.walls: list = []
        self.rounds: list = []  # per round with a success: operation -> latency
        self.verified: dict = {}  # operation -> digest of its output, or None if it failed
        self.setup_digest = None
        self.first_round: list = []  # operation names of round 0, for the fingerprint
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, name: str, exc: Exception, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def round(self, index: int, tracer=None) -> None:
        wl = self.workload
        clock = time.perf_counter
        try:
            for last in [False] * (SETUPS_PER_ROUND - 1) + [True]:
                start = clock()
                lib = fresh_import()
                if tracer is not None and last:
                    tracer.install()
                state = wl.setup(lib)
                self.setups.append(clock() - start)
            if self.setup_digest is None:
                blob = wl.setup_blob(lib, state)
                wl.check_setup(blob)
                self.setup_digest = digest(blob)
            ops = wl.operations(lib, state, index)
        except Exception as exc:  # a broken set-up fails every operation
            self.attempted += wl.ops_per_round
            self.fail("setup", exc, count=wl.ops_per_round)
            return
        if index == 0:
            self.first_round = [name for name, _ in ops]
        gc.collect()
        times: dict = {}
        for name, fn in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = name
            t = clock()
            try:
                result = fn()
            except Exception as exc:
                self.fail(name, exc)
                continue
            times[name] = clock() - t
            if name not in self.verified:
                # render and check outside the timed region, once per output
                try:
                    blob = wl.render(lib, state, name, result)
                    wl.check(name, blob)
                    self.verified[name] = digest(blob)
                except Exception as exc:
                    self.verified[name] = None
                    self.fail(name, exc, count=0)
            if self.verified[name] is None:
                self.failed += 1
        if times:
            self.rounds.append(times)
            self.walls.append(sum(times.values()))

    def fingerprint(self) -> str:
        parts = [self.setup_digest] + [self.verified.get(n) for n in self.first_round]
        return digest(parts)[:16]


def percentile_99(values: list) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Each time metric is computed per round, over the round's successful
    operations; the run reports the upper quartile over its rounds."""
    rounds = [list(times.values()) for times in run.rounds]

    def over_rounds(stat):
        return upper_quartile([stat(lat) for lat in rounds]) * 1e3 if rounds else math.nan

    metrics = {
        "setup_s": (upper_quartile(run.setups) if run.setups else math.nan, "s"),
        "wall_s": (upper_quartile(run.walls) if run.walls else math.nan, "s"),
        "op_ms.p50": (over_rounds(statistics.median), "ms"),
        "op_ms.p99": (over_rounds(percentile_99), "ms"),
        "op_ms.geomean": (over_rounds(statistics.geometric_mean), "ms"),
        "success_frac": (1 - run.failed / max(1, run.attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"fail_frac": (run.failed / max(1, run.attempted), "ratio")}
    if run.workload.seeded:
        detail["query_ms.p50"] = metrics["op_ms.p50"]
        detail["query_ms.p99"] = metrics["op_ms.p99"]
    else:
        for name in run.first_round:
            samples = [times[name] for times in run.rounds if name in times]
            if samples:
                detail[f"group_s.{name}"] = (upper_quartile(samples), "s")
    return metrics, detail


def traced(run: Run, workload: str, seed: int) -> dict:
    run.round(0)
    untraced_wall = run.walls[-1] if run.walls else math.nan
    tracer = spans.Tracer()
    run.round(0, tracer)
    traced_wall = run.walls[-1] if len(run.walls) == 2 else math.nan
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.csv"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    metrics = {}
    for name, value in tracer.metrics().items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "ratio" if name.endswith("_frac") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def as_json(metrics: dict) -> dict:
    """Metrics as ``{name: {value, unit}}``; a value that could not be
    measured (nothing succeeded) is null."""
    return {
        name: {"value": None if isinstance(v, float) and math.isnan(v) else v, "unit": unit}
        for name, (v, unit) in metrics.items()
    }


def report_fingerprint(run: Run, workload: str, seed: int, record: bool) -> None:
    key = f"{workload}/seed{seed}" if run.workload.seeded else workload
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    fp = run.fingerprint()
    if record and run.failed == 0:
        recorded[key] = fp
        FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    if key not in recorded:
        status = "no recorded value"
    elif recorded[key] == fp:
        status = "matches the recorded value"
    else:
        status = f"CHANGED from the recorded {recorded[key]}"
    print(f"fingerprint {key}: {fp} ({status})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-fingerprint", action="store_true",
        help="store this run's output fingerprint in perfbench/fingerprints.json",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "logrewrite" / "__init__.py").is_file():
        print(f"error: no logrewrite sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    run = Run(WORKLOADS[args.workload](args.seed))
    if args.trace:
        metrics = traced(run, args.workload, args.seed)
    else:
        # at least two rounds; then another only if it should end in time
        start = time.perf_counter()
        run.round(0)
        for index in itertools.count(1):
            before = time.perf_counter()
            run.round(index)
            now = time.perf_counter()
            if now + (now - before) > start + args.seconds:
                break
        metrics, detail = end_to_end(run)
        print(json.dumps({
            "rounds": len(run.walls),
            "operations_per_round": run.workload.ops_per_round,
            "detail": as_json(detail),
        }))
    for line in run.errors:
        print(f"failure: {line}", file=sys.stderr)
    report_fingerprint(run, args.workload, args.seed, args.record_fingerprint)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
