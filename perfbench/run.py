"""Figure-regeneration benchmark for the AMNT reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload parsec-grid --seed 1 --seconds 30 --trace 0

Each run of the workload happens in a fresh interpreter
(``perfbench/child.py``) with the trace, stream and plan caches cold,
and is repeated until ``--seconds`` have been spent. Every run's per-cell
output digests are checked against ``perfbench/reference.json`` when it
holds the seed, and otherwise against the first run of this invocation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced runs and reports the per-layer metrics. The last
line of standard output is the result object; the line before it, and
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, record the
environment and every cell digest. Exits non-zero, printing no result,
if any run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER_UNITS  # noqa: E402

WORKLOAD_NAMES = ("parsec-grid", "level-sweep", "storage-persist", "crash-campaign")
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120


class RunFailed(RuntimeError):
    """A child run exited non-zero or printed no record."""


def child_env() -> Dict[str, str]:
    """The caller's environment minus ``REPRO_*`` knobs (cache limits,
    store directory), so every run sees the program's defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_child(*extra: str) -> dict:
    command = [sys.executable, str(BENCH_DIR / "child.py"), *extra]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunFailed(
            f"{' '.join(extra)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{' '.join(extra)} printed nothing")
    return json.loads(lines[-1])


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    if not REFERENCE.is_file():
        return None
    document = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return document.get("digests", {}).get(workload, {}).get(str(seed))


class Checker:
    """Counts cells attempted and failed across the runs of one invocation.

    A cell fails if it reports a problem of its own, or if its digest
    differs from the expected one: the reference for this seed when there
    is one, else the first run's digest at the same position. Cells
    missing from a run, against the expected list, fail too.
    """

    def __init__(self, expected: Optional[List[str]]) -> None:
        self.expected = expected
        self.source = "reference" if expected is not None else "first-run"
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, cells: List[list]) -> None:
        digests = [digest for _, digest, _ in cells]
        if self.expected is None:
            self.expected = digests
        expected = self.expected
        for index, (cell_id, digest, problem) in enumerate(cells):
            self.attempted += 1
            if problem:
                self.failed += 1
                self.mismatches.append(f"{cell_id}: {problem}")
            elif index >= len(expected) or expected[index] != digest:
                self.failed += 1
                self.mismatches.append(f"{cell_id}: digest {digest}")
        missing = max(0, len(expected) - len(cells))
        self.attempted += missing
        self.failed += missing
        if missing:
            self.mismatches.append(f"{missing} cells missing")


def environment() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def combined_digest(cells: List[list]) -> str:
    blob = "\n".join(digest for _, digest, _ in cells).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def measure(args) -> dict:
    """Run the workload repeatedly; returns the raw per-run records.

    Each run is followed by one set-up-only interpreter, so set-up is
    sampled across the whole measurement, not in one burst.
    """
    run_child("--setup-only")  # warm-up (writes a fresh checkout's bytecode)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT_DIR.mkdir(exist_ok=True)
    plain: List[dict] = []
    traced: List[dict] = []
    setups: List[float] = []
    durations: List[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        began = time.perf_counter()
        plain.append(run_child(*base))
        setups.append(plain[-1]["setup_s"])
        setups.append(run_child("--setup-only")["setup_s"])
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{len(traced)}.json"
            traced.append(run_child(*base, "--trace", "--spans", str(spans)))
        durations.append(time.perf_counter() - began)
        enough = len(plain) >= (MIN_TRACED_PAIRS if args.trace else MIN_RUNS)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            break
    return {
        "setup_s": setups,
        "plain": plain,
        "traced": traced,
        "measured_s": time.perf_counter() - start,
    }


def end_to_end(runs: dict, checker: Checker) -> Dict[str, dict]:
    plain = runs["plain"]
    return {
        "setup_s": {"value": statistics.median(runs["setup_s"]), "unit": "s"},
        "wall_s": {
            "value": statistics.median(r["wall_s"] for r in plain),
            "unit": "s",
        },
        "accesses_per_s": {
            "value": statistics.median(r["accesses"] / r["wall_s"] for r in plain),
            "unit": "1/s",
        },
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in plain),
            "unit": "MB",
        },
        "cells_ok_ratio": {
            "value": (checker.attempted - checker.failed) / checker.attempted,
            "unit": "ratio",
        },
    }


def per_layer(runs: dict, checker: Checker) -> Dict[str, dict]:
    traced = runs["traced"]
    values: Dict[str, float] = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    # Each traced run directly follows an untraced one: the median of the
    # pairs' ratios cancels host-speed drift between pairs.
    values["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for t, p in zip(traced, runs["plain"])
    )
    values["failed_ratio"] = checker.failed / checker.attempted
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        runs = measure(args)
    except (RunFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1

    reference = load_reference(args.workload, args.seed)
    checker = Checker(reference)
    for record in runs["plain"] + runs["traced"]:
        checker.check(record["cells"])
    first = runs["plain"][0]["cells"]
    traced_equal = all(
        [d for _, d, _ in r["cells"]] == [d for _, d, _ in first]
        for r in runs["traced"]
    )
    metrics = per_layer(runs, checker) if args.trace else end_to_end(runs, checker)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "checked_against": checker.source,
        "digest": combined_digest(first),
        "traced_digests_equal_untraced": traced_equal if args.trace else None,
        "mismatches": checker.mismatches[:20],
        "runs": len(runs["plain"]),
        "traced_runs": len(runs["traced"]),
        "measured_s": runs["measured_s"],
        "absent_layer_functions": runs["traced"][0]["absent"] if args.trace else [],
        "context": runs["plain"][0].get("context"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                **detail,
                "metrics": metrics,
                "cells": first,
                "raw": {
                    "setup_s": runs["setup_s"],
                    "wall_s": [r["wall_s"] for r in runs["plain"]],
                    "traced_wall_s": [r["wall_s"] for r in runs["traced"]],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in runs["plain"]],
                },
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    correct = checker.failed == 0 and (traced_equal or not args.trace)
    print(json.dumps({"perfbench": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
