"""The four benchmark workloads: what each runs, and how its output is
split into per-cell digests and checked.

A workload's ``run(seed)`` is the timed region: it calls the public entry
point a user runs (a figure function, ``simulate``, or ``run_campaign``)
with ``workers=1``. ``cells(output)`` turns the returned value into
:class:`Cell` records outside the timed region. Entry points are imported
inside ``run`` so importing this module costs nothing and the tracer can
patch them first.

Sizes are scaled down from the figure defaults so one run takes four to
six seconds on a 2-CPU container; see METHODS.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

PARSEC_ACCESSES = 5_000
LEVEL_ACCESSES_EACH = 3_000
LEVEL_LEVELS = (2, 3, 4, 5, 6, 7)
STORAGE_ACCESSES = 12_000
STORAGE_PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt")
#: The ``repro faults`` CLI defaults, at a shorter trace.
CRASH_ACCESSES = 1_200
CRASH_PROTOCOLS = ("leaf", "strict", "amnt", "amnt++")


@dataclass(frozen=True)
class Cell:
    """One checked output: its id, a JSON-able payload, and any problem
    the payload shows on its own ("" when it looks sound)."""

    cell_id: str
    payload: Any
    problem: str = ""

    def digest(self) -> str:
        return cell_digest(self.cell_id, self.payload)


def cell_digest(cell_id: str, payload: Any) -> str:
    """16 hex digits of SHA-256 over the id and canonical JSON payload.

    Floats serialize by ``repr``, so any change in the last bit shows.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    blob = f"{cell_id}\0{text}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


# ---------------------------------------------------------------------------
# parsec-grid: Figure 4
# ---------------------------------------------------------------------------

def run_parsec_grid(seed: int):
    from repro.bench.experiments import fig4_single_program

    return fig4_single_program(accesses=PARSEC_ACCESSES, seed=seed, workers=1)


def cells_parsec_grid(figure) -> List[Cell]:
    cells = []
    for bench, row in figure.items():
        for protocol, value in row.items():
            problem = ""
            if not _positive(value):
                problem = "non-positive normalized cycles"
            elif protocol == "volatile" and value != 1.0:
                problem = "baseline not 1.0"
            cells.append(Cell(f"{bench}/{protocol}", value, problem))
    return cells


def accesses_parsec_grid(cells: List[Cell]) -> int:
    return len(cells) * PARSEC_ACCESSES


#: The paper's published Fig. 4 averages, normalized to volatile. Printed
#: beside this model's geomeans as context; the model is not validated
#: against hardware, so they gate nothing.
PAPER_FIG4_AVERAGES = {"leaf": 1.08, "strict": 2.39, "amnt": 1.16}


def context_parsec_grid(cells: List[Cell]) -> Dict[str, Any]:
    by_protocol: Dict[str, List[float]] = {}
    for cell in cells:
        protocol = cell.cell_id.split("/")[1]
        by_protocol.setdefault(protocol, []).append(cell.payload)
    geomeans = {
        protocol: math.exp(sum(map(math.log, values)) / len(values))
        for protocol, values in by_protocol.items()
    }
    return {"fig4_geomean": geomeans, "paper_fig4_average": PAPER_FIG4_AVERAGES}


# ---------------------------------------------------------------------------
# level-sweep: Figures 6 and 7
# ---------------------------------------------------------------------------

def run_level_sweep(seed: int):
    from repro.bench.experiments import fig6_fig7_level_sweep

    return fig6_fig7_level_sweep(
        levels=LEVEL_LEVELS,
        accesses_each=LEVEL_ACCESSES_EACH,
        seed=seed,
        workers=1,
    )


def cells_level_sweep(sweep) -> List[Cell]:
    """One cell per (pair, level, protocol): its cycles and hit rate."""
    cells = []
    for pair, series in sweep.items():
        for level in LEVEL_LEVELS:
            for protocol in ("amnt", "amnt++"):
                cycles = series[f"{protocol}_cycles"][level]
                hit_rate = series[f"{protocol}_hitrate"][level]
                problem = ""
                if not _positive(cycles):
                    problem = "non-positive normalized cycles"
                elif not 0.0 <= hit_rate <= 1.0:
                    problem = "hit rate outside [0, 1]"
                cells.append(
                    Cell(
                        f"{pair}/L{level}/{protocol}",
                        {"cycles": cycles, "hitrate": hit_rate},
                        problem,
                    )
                )
    return cells


def accesses_level_sweep(cells: List[Cell]) -> int:
    # Each (pair, level) runs volatile + the two output protocols, over
    # a two-program trace of LEVEL_ACCESSES_EACH accesses per program.
    simulated_cells = len(cells) // 2 * 3
    return simulated_cells * 2 * LEVEL_ACCESSES_EACH


# ---------------------------------------------------------------------------
# storage-persist: in-memory storage applications, one simulate() per cell
# ---------------------------------------------------------------------------

def run_storage_persist(seed: int):
    from repro.config import default_config
    from repro.sim.engine import simulate
    from repro.sim.machine import build_machine
    from repro.workloads.storage import (
        generate_storage_trace,
        storage_names,
        storage_profile,
    )

    config = default_config()
    results = {}
    for name in storage_names():
        trace = generate_storage_trace(
            storage_profile(name), seed=seed, accesses=STORAGE_ACCESSES
        )
        for protocol in STORAGE_PROTOCOLS:
            machine = build_machine(config, protocol, seed=seed)
            results[f"{name}/{protocol}"] = simulate(machine, trace, seed=seed)
    return results


def cells_storage_persist(results) -> List[Cell]:
    cells = []
    for cell_id, result in results.items():
        problem = ""
        if result.accesses != STORAGE_ACCESSES:
            problem = f"ran {result.accesses} of {STORAGE_ACCESSES} accesses"
        elif result.cycles <= 0:
            problem = "no cycles"
        cells.append(Cell(cell_id, result.to_json_dict(), problem))
    return cells


def accesses_storage_persist(cells: List[Cell]) -> int:
    return sum(cell.payload["accesses"] for cell in cells)


# ---------------------------------------------------------------------------
# crash-campaign: the fault-injection campaign with `repro faults` defaults
# ---------------------------------------------------------------------------

def run_crash_campaign(seed: int):
    from repro.faults.campaign import default_fault_config, run_campaign
    from repro.workloads.registry import profile_spec

    return run_campaign(
        CRASH_PROTOCOLS,
        [profile_spec("faults", "hotshift", CRASH_ACCESSES, seed)],
        config=default_fault_config(persist_model="writethrough"),
        phase_samples=3,
        tamper_crashes=2,
        tamper_target="data",
        seed=seed,
        workers=1,
    )


def cells_crash_campaign(report) -> List[Cell]:
    """Probes and crash cells, each judged by the campaign's own oracle:
    silent divergence, an anomaly, or a quarantined cell is a failure."""
    from repro.faults.oracle import VERDICT_SILENT

    cells = []
    outcomes = [("probe", o) for o in report.baselines]
    outcomes += [(f"cell{i}", o) for i, o in enumerate(report.cells)]
    for label, outcome in outcomes:
        problem = ""
        if outcome.verdict == VERDICT_SILENT:
            problem = "silent divergence"
        elif outcome.anomaly:
            problem = f"anomaly: {outcome.anomaly}"
        cell_id = f"{label}/{outcome.protocol}/{outcome.trigger}/{outcome.tamper}"
        cells.append(Cell(cell_id, asdict(outcome), problem))
    for index, failure in enumerate(report.failures):
        cells.append(Cell(f"failure{index}", failure.describe(), "cell failed"))
    return cells


def accesses_crash_campaign(cells: List[Cell]) -> int:
    return sum(
        cell.payload["accesses_completed"]
        for cell in cells
        if isinstance(cell.payload, dict)
    )


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int], Any]
    cells: Callable[[Any], List[Cell]]
    accesses: Callable[[List[Cell]], int]
    context: Optional[Callable[[List[Cell]], Dict[str, Any]]] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "parsec-grid",
            run_parsec_grid,
            cells_parsec_grid,
            accesses_parsec_grid,
            context_parsec_grid,
        ),
        Workload(
            "level-sweep", run_level_sweep, cells_level_sweep, accesses_level_sweep
        ),
        Workload(
            "storage-persist",
            run_storage_persist,
            cells_storage_persist,
            accesses_storage_persist,
        ),
        Workload(
            "crash-campaign",
            run_crash_campaign,
            cells_crash_campaign,
            accesses_crash_campaign,
        ),
    )
}
