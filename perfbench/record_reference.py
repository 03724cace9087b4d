"""Record the reference per-cell digests that ``run.py`` checks against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

Runs every workload once for each of seeds 0-31 and 2024 (the
default ``--seed`` of ``run.py``) in a fresh interpreter, refuses to
record a cell that reports a problem, and writes
``perfbench/reference.json`` with the workload sizes it was recorded at.
Re-record only when the program's outputs are meant to change; the
benchmark's tests fail if the recorded sizes drift from the workloads'.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.run import REFERENCE, WORKLOAD_NAMES, run_child  # noqa: E402

SEEDS = (*range(32), 2024)


def current_sizes() -> dict:
    return {
        name: getattr(workloads, name)
        for name in (
            "PARSEC_ACCESSES",
            "LEVEL_ACCESSES_EACH",
            "STORAGE_ACCESSES",
            "CRASH_ACCESSES",
        )
    }


def main() -> int:
    digests = {name: {} for name in WORKLOAD_NAMES}
    for seed in SEEDS:
        for name in WORKLOAD_NAMES:
            record = run_child("--workload", name, "--seed", str(seed))
            problems = [cell for cell in record["cells"] if cell[2]]
            if problems:
                print(f"{name} seed {seed}: {problems[:5]}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = [digest for _, digest, _ in record["cells"]]
            print(f"{name} seed {seed}: {len(record['cells'])} cells", flush=True)
    document = {"sizes": current_sizes(), "digests": digests}
    REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
