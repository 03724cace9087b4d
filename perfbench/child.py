"""One benchmark run, in the fresh interpreter ``run.py`` starts for it.

Usage (from the repository root)::

    python3 perfbench/child.py --workload parsec-grid --seed 1 [--trace] \
        [--spans perfbench/out/spans.json]
    python3 perfbench/child.py --setup-only

Prints one JSON line: set-up seconds, the workload's wall seconds, peak
RSS, simulated accesses and per-cell digests — plus, with ``--trace``,
the per-layer metrics of :func:`perfbench.layers.layer_metrics`. The
program under test is imported from ``src/`` of the same checkout only;
if it is missing the run fails instead of measuring something else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Entry-point modules every workload needs; importing them is set-up.
ENTRY_MODULES = (
    "repro.bench.experiments",
    "repro.faults.campaign",
    "repro.workloads.storage",
)


def setup() -> float:
    """Seconds to import ``repro`` and its entry points and load the
    protocol registry and the default config."""
    import importlib

    start = time.perf_counter()
    importlib.import_module("repro")
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    from repro.config import default_config
    from repro.core.protocol import protocol_names

    protocol_names()
    default_config()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(ROOT)]
    setup_s = setup()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from perfbench.layers import TARGETS
        from perfbench.tracer import Tracer

        tracer = Tracer(TARGETS).install()
        start = time.perf_counter()
        output = tracer.span("workload", workload.run, args.seed)
        wall_s = time.perf_counter() - start
        tracer.uninstall()
    else:
        start = time.perf_counter()
        output = workload.run(args.seed)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    cells = workload.cells(output)
    record.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        accesses=workload.accesses(cells),
        cells=[[cell.cell_id, cell.digest(), cell.problem] for cell in cells],
    )
    if workload.context is not None:
        record["context"] = workload.context(cells)
    if tracer is not None:
        from perfbench.layers import layer_metrics

        record["layers"] = layer_metrics(tracer.spans)
        record["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
