"""Golden results: SHA-256 digests of fixed simulator runs.

The digests in ``tests/data/golden_results.json`` pin the exact output
of seven sets of runs, so any change to the MEE datapath, the sweep
engine, or the protocols that moves one bit of a result shows up as a
digest mismatch (``tests/test_golden.py``):

* ``grid/...`` — the 18-cell reference grid (3 PARSEC benchmarks x the
  6 figure protocols, :func:`repro.bench.perf.reference_cells`), once
  through :func:`~repro.sim.engine.simulate` on a full machine
  (``direct``) and once through the sweep executor (``sweep``);
* ``storage/...`` — kvstore/oltp/logger x the 6 figure protocols, both
  ways; their flush-tagged writes drive the fenced write path;
* ``functional/...`` — real-crypto runs of every registered protocol
  under both BMT disciplines, direct and compiled-plan replay; the
  digest also covers the BMT root register and the persisted tree
  bytes;
* ``crash/...`` — one :func:`~repro.sim.engine.drive_memory_boundary`
  run per crash-consistent protocol, crashed mid-trace, recovered and
  audited by the fault oracle; the digest covers the replay record, the
  oracle report, the engine/NVM/protocol statistics, and every NVM
  region image after recovery;
* ``multicore/...`` — :func:`~repro.sim.multicore.simulate_multicore`
  (private per-core caches in front of the shared LLC) on a two-program
  PARSEC mix and on one PARSEC trace, x the 6 figure protocols. Both
  cache levels are shrunk so each sees evictions and dirty victims,
  and the churn interval is short so page churn runs mid-trace;
* ``wear/...`` — :func:`~repro.sim.engine.simulate` with
  :func:`~repro.mem.wear.attach_wear_tracking`, every registered
  protocol, on the endurance ablation's ``xz`` profile and on a
  flush-tagged ``kvstore`` trace, with a shrunken LLC so dirty victims
  reach memory. The digest covers the tracker's per-line write counts
  in the order lines were first written (``report().hottest_line``
  breaks ties by that order) and the report;
* ``scatter/...`` — the multiprogram boot aging of Figs. 5-7
  (:meth:`~repro.os.buddy.BuddyAllocator.scatter`, then the AMNT++ boot
  :meth:`~repro.os.amntpp.AMNTPlusPlusRestructurer.restructure`):
  level-sweep cells (volatile, amnt, amnt++ at subtree levels 3 and 5
  on one scatter-aged multiprogram pair), ``simulate()`` on scatter-aged
  amnt and amnt++ machines with a churn interval short enough that
  reclamation restructures run mid-trace, and allocator images (each
  order's free list in list order, the free-set membership in insertion
  order, the statistics and the return value) after ``scatter`` and
  after ``restructure``, including ``max_order=0`` and a span larger
  than the allocator.

Timing results hash ``SimulationResult.to_json()`` as-is (field order
and stat-dictionary order included). The digests are a recording of
the code, not a specification: re-record them only for a change that is
meant to move results, and say so where the change is logged.

Record every case set (overwrites the data file)::

    PYTHONPATH=src python -m tests.golden

or re-record only the named case sets, keeping every other digest::

    PYTHONPATH=src python -m tests.golden multicore
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Iterator, Sequence, Tuple

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_results.json"

REFERENCE_SEED = 2024
STORAGE_ACCESSES = 4_000
FUNCTIONAL_ACCESSES = 600
FUNCTIONAL_SEED = 7
CRASH_ACCESSES = 600
CRASH_AT = 411
CRASH_PROTOCOLS = ("leaf", "strict", "amnt")
MULTICORE_ACCESSES = 4_000
MULTICORE_CHURN_INTERVAL = 512
MULTICORE_PRIVATE_KB = 16
MULTICORE_LLC_KB = 64
WEAR_ACCESSES = 2_000
WEAR_LLC_KB = 64
SCATTER_ACCESSES_EACH = 1_500
SCATTER_LEVELS = (3, 5)
SCATTER_CHURN_INTERVAL = 256
#: ``(total_pages, max_order, span_chunks, pages_per_region)``: the
#: default machine's allocator, small geometries, ``max_order=0`` and a
#: span of more chunks than the allocator holds.
SCATTER_ALLOCATORS = (
    (1 << 18, 10, 40, 1 << 12),
    (1 << 12, 4, 64, 1 << 7),
    (1 << 10, 0, 300, 1 << 6),
    (1 << 12, 6, 1_000, 1 << 8),
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    """Digest of one :class:`~repro.sim.results.SimulationResult`."""
    return sha256_text(result.to_json())


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def region_images(backend) -> Dict[str, Dict[str, str]]:
    """Every NVM region of a functional backend: key -> content hex."""
    from repro.mem.backend import MetadataRegion

    images = {}
    for region in MetadataRegion:
        images[region.name] = {
            repr(key): backend.read(region, key).hex()
            for key in sorted(backend.keys(region), key=repr)
        }
    return images


def tree_state(mee) -> Dict[str, object]:
    """The BMT root register and the persisted tree image."""
    from repro.mem.backend import MetadataRegion

    tree = mee.tree
    tree.materialize_all()
    region = MetadataRegion.TREE
    return {
        "root": tree.root_register.hex(),
        "tree": {
            repr(key): tree.backend.read(region, key).hex()
            for key in sorted(tree.backend.keys(region), key=repr)
        },
    }


# ----------------------------------------------------------------------
# the case sets
# ----------------------------------------------------------------------


def grid_cases() -> Iterator[Tuple[str, str]]:
    from repro.bench.perf import direct_cell, reference_cells
    from repro.config import default_config
    from repro.sim.parallel import ParallelSweepRunner

    config = default_config()
    cells = reference_cells()
    swept = ParallelSweepRunner(workers=1).run(cells, config)
    for cell, sweep_result in zip(cells, swept):
        label = f"grid/{cell.trace.label()}/{cell.protocol}"
        yield f"{label}/direct", result_digest(direct_cell(cell, config))
        yield f"{label}/sweep", result_digest(sweep_result)


def storage_cases() -> Iterator[Tuple[str, str]]:
    from repro.config import default_config
    from repro.sim.engine import simulate
    from repro.sim.machine import build_machine
    from repro.sim.runner import FIGURE_PROTOCOLS, run_protocol_sweep
    from repro.workloads.storage import (
        generate_storage_trace,
        storage_names,
        storage_profile,
    )

    config = default_config()
    for name in storage_names():
        trace = generate_storage_trace(
            storage_profile(name), seed=REFERENCE_SEED,
            accesses=STORAGE_ACCESSES,
        )
        swept = run_protocol_sweep(
            trace, config, FIGURE_PROTOCOLS, seed=REFERENCE_SEED
        )
        for protocol in FIGURE_PROTOCOLS:
            machine = build_machine(config, protocol, seed=REFERENCE_SEED)
            direct = simulate(machine, trace, seed=REFERENCE_SEED)
            yield f"storage/{name}/{protocol}/direct", result_digest(direct)
            yield (
                f"storage/{name}/{protocol}/sweep",
                result_digest(swept[protocol]),
            )


def functional_cases() -> Iterator[Tuple[str, str]]:
    from repro.config import default_config
    from repro.core.protocol import protocol_names, protocol_uses_modified_os
    from repro.sim.engine import simulate, simulate_from_plan
    from repro.sim.machine import build_machine, build_mee_machine
    from repro.sim.plan import compile_metadata_plan
    from repro.sim.replay import compile_boundary_stream
    from repro.util.units import MB
    from repro.workloads.registry import materialize_trace, profile_spec

    config = default_config(capacity_bytes=64 * MB)
    trace = materialize_trace(
        profile_spec(
            "parsec", "blackscholes", FUNCTIONAL_ACCESSES, FUNCTIONAL_SEED
        )
    )
    compiled = {}
    for modified in (False, True):
        stream = compile_boundary_stream(
            trace, config, seed=FUNCTIONAL_SEED, modified_os=modified
        )
        compiled[modified] = (stream, compile_metadata_plan(stream, config))

    def digest(result, mee) -> str:
        return sha256_text(
            result.to_json() + "\n" + _canonical(tree_state(mee))
        )

    for mode in ("eager", "lazy"):
        for protocol in protocol_names():
            label = f"functional/{mode}/{protocol}"
            machine = build_machine(
                config, protocol, functional=True,
                seed=FUNCTIONAL_SEED, integrity_mode=mode,
            )
            result = simulate(machine, trace, seed=FUNCTIONAL_SEED)
            yield f"{label}/direct", digest(result, machine.mee)
            stream, plan = compiled[protocol_uses_modified_os(protocol)]
            machine = build_mee_machine(
                config, protocol, functional=True, integrity_mode=mode
            )
            result = simulate_from_plan(stream, plan, machine)
            yield f"{label}/plan", digest(result, machine.mee)


def crash_cases() -> Iterator[Tuple[str, str]]:
    from repro.faults.campaign import default_fault_config
    from repro.faults.oracle import run_oracle
    from repro.faults.triggers import CrashScheduler, CrashTrigger
    from repro.sim.engine import drive_memory_boundary
    from repro.sim.machine import build_machine
    from repro.workloads.registry import materialize_trace, profile_spec

    config = default_fault_config()
    trace = materialize_trace(
        profile_spec("faults", "hotshift", CRASH_ACCESSES, REFERENCE_SEED)
    )
    for protocol in CRASH_PROTOCOLS:
        machine = build_machine(
            config, protocol, functional=True, seed=REFERENCE_SEED
        )
        mee = machine.mee
        scheduler = CrashScheduler(CrashTrigger("access", CRASH_AT))
        mee.fault_probe = scheduler
        record = drive_memory_boundary(
            machine, trace, seed=REFERENCE_SEED, scheduler=scheduler
        )
        mee.fault_probe = None
        mee.crash()
        report = run_oracle(mee, record)
        replay = asdict(record)
        replay["golden"] = {
            hex(base): payload.hex()
            for base, payload in sorted(record.golden.items())
        }
        replay["in_flight"] = repr(record.in_flight)
        payload = {
            "replay": replay,
            "phase_counts": sorted(scheduler.phase_counts.items()),
            "oracle": asdict(report),
            "mee_stats": mee.stats.snapshot(),
            "nvm_stats": mee.nvm.stats.snapshot(),
            "protocol_stats": mee.protocol.stats.snapshot(),
            "mdcache_stats": mee.mdcache.stats.snapshot(),
            "root": mee.tree.root_register.hex(),
            "regions": region_images(mee.nvm.backend),
        }
        yield f"crash/{protocol}", sha256_text(_canonical(payload))


def multicore_cases() -> Iterator[Tuple[str, str]]:
    from dataclasses import replace

    from repro.config import DataCacheConfig, default_config
    from repro.sim.machine import build_machine
    from repro.sim.multicore import simulate_multicore
    from repro.sim.runner import FIGURE_PROTOCOLS
    from repro.util.units import KB
    from repro.workloads.parsec import MULTIPROGRAM_PAIRS
    from repro.workloads.registry import (
        materialize_trace,
        multiprogram_spec,
        profile_spec,
    )

    config = replace(
        default_config(),
        llc=DataCacheConfig(
            capacity_bytes=MULTICORE_LLC_KB * KB, associativity=16
        ),
    )
    private = DataCacheConfig(
        capacity_bytes=MULTICORE_PRIVATE_KB * KB,
        associativity=8,
        access_latency_cycles=12,
    )
    pair = MULTIPROGRAM_PAIRS[0]
    traces = {
        "+".join(pair): multiprogram_spec(
            "parsec", pair, MULTICORE_ACCESSES // 2, REFERENCE_SEED
        ),
        "canneal": profile_spec(
            "parsec", "canneal", MULTICORE_ACCESSES, REFERENCE_SEED
        ),
    }
    for label, spec in traces.items():
        trace = materialize_trace(spec)
        for protocol in FIGURE_PROTOCOLS:
            machine = build_machine(config, protocol, seed=REFERENCE_SEED)
            result = simulate_multicore(
                machine, trace, private_config=private,
                seed=REFERENCE_SEED, churn_interval=MULTICORE_CHURN_INTERVAL,
            )
            yield f"multicore/{label}/{protocol}", result_digest(result)


def wear_cases() -> Iterator[Tuple[str, str]]:
    from dataclasses import replace

    from repro.config import DataCacheConfig, default_config
    from repro.core.protocol import protocol_names
    from repro.mem.wear import attach_wear_tracking
    from repro.sim.engine import simulate
    from repro.sim.machine import build_machine
    from repro.util.units import KB
    from repro.workloads.spec import spec_profile
    from repro.workloads.storage import generate_storage_trace, storage_profile
    from repro.workloads.synthetic import generate_trace

    config = replace(
        default_config(),
        llc=DataCacheConfig(capacity_bytes=WEAR_LLC_KB * KB, associativity=16),
    )
    traces = {
        "xz": generate_trace(
            spec_profile("xz").scaled(accesses=WEAR_ACCESSES),
            seed=REFERENCE_SEED,
        ),
        "kvstore": generate_storage_trace(
            storage_profile("kvstore"), seed=REFERENCE_SEED,
            accesses=WEAR_ACCESSES,
        ),
    }
    for label, trace in traces.items():
        for protocol in protocol_names():
            machine = build_machine(config, protocol, seed=REFERENCE_SEED)
            tracker = attach_wear_tracking(machine.mee)
            simulate(machine, trace, seed=REFERENCE_SEED)
            payload = {
                "lines": [
                    [repr(line), count]
                    for line, count in tracker._line_writes.items()
                ],
                "report": repr(asdict(tracker.report())),
            }
            yield f"wear/{label}/{protocol}", sha256_text(_canonical(payload))


def allocator_image(allocator) -> Dict[str, object]:
    """A buddy allocator's free lists (list order), free-set membership
    (insertion order) and statistics."""
    return {
        "free_area": [list(pfns) for pfns in allocator.free_area],
        "free_set": [list(members) for members in allocator._free_set],
        "stats": allocator.stats.snapshot(),
    }


def scatter_cases() -> Iterator[Tuple[str, str]]:
    from repro.bench.experiments import MULTIPROGRAM_SCATTER_CHUNKS
    from repro.config import default_config
    from repro.os.amntpp import AMNTPlusPlusRestructurer
    from repro.os.buddy import BuddyAllocator
    from repro.sim.engine import simulate
    from repro.sim.machine import build_machine
    from repro.sim.parallel import ParallelSweepRunner, SweepCell
    from repro.util.rng import make_rng
    from repro.workloads.parsec import MULTIPROGRAM_PAIRS
    from repro.workloads.registry import materialize_trace, multiprogram_spec

    config = default_config()
    pair = MULTIPROGRAM_PAIRS[0]
    spec = multiprogram_spec(
        "parsec", pair, SCATTER_ACCESSES_EACH, REFERENCE_SEED
    )
    label = "+".join(pair)
    cells = [
        SweepCell(
            protocol=protocol,
            trace=spec,
            seed=REFERENCE_SEED,
            scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
            config=config.with_amnt(subtree_level=level),
        )
        for level in SCATTER_LEVELS
        for protocol in ("volatile", "amnt", "amnt++")
    ]
    swept = ParallelSweepRunner(workers=1).run(cells, config)
    for cell, result in zip(cells, swept):
        level = cell.config.amnt.subtree_level
        yield (
            f"scatter/sweep/{label}/L{level}/{cell.protocol}",
            result_digest(result),
        )

    trace = materialize_trace(spec)
    for protocol in ("amnt", "amnt++"):
        machine = build_machine(
            config, protocol, seed=REFERENCE_SEED,
            scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
        )
        result = simulate(
            machine, trace, seed=REFERENCE_SEED,
            churn_interval=SCATTER_CHURN_INTERVAL,
        )
        allocator = machine.mm.allocator
        if protocol == "amnt++" and not allocator.stats.get("restructures"):
            raise AssertionError("no reclamation restructure ran mid-trace")
        payload = {
            "result": result.to_json(),
            "allocator": allocator_image(allocator),
        }
        yield f"scatter/direct/{label}/{protocol}", sha256_text(
            _canonical(payload)
        )

    for total, max_order, span, region_pages in SCATTER_ALLOCATORS:
        name = f"scatter/allocator/{total}p-o{max_order}-s{span}"
        allocator = BuddyAllocator(total, max_order=max_order)
        produced = allocator.scatter(
            make_rng(f"{REFERENCE_SEED}/scatter"), span_chunks=span
        )
        payload = {"produced": produced, **allocator_image(allocator)}
        yield f"{name}/scatter", sha256_text(_canonical(payload))
        hooks = []
        restructurer = AMNTPlusPlusRestructurer(
            region_of_pfn=lambda pfn, size=region_pages: pfn // size,
            phase_hook=lambda: hooks.append(len(hooks)),
        )
        region = restructurer.restructure(allocator)
        payload = {
            "region": region,
            "hooks": len(hooks),
            **allocator_image(allocator),
        }
        yield f"{name}/restructure", sha256_text(_canonical(payload))


CASE_SETS: Dict[str, Callable[[], Iterator[Tuple[str, str]]]] = {
    "grid": grid_cases,
    "storage": storage_cases,
    "functional": functional_cases,
    "crash": crash_cases,
    "multicore": multicore_cases,
    "wear": wear_cases,
    "scatter": scatter_cases,
}


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def record(case_sets: Sequence[str] = ()) -> Dict[str, str]:
    """Run ``case_sets`` (default: all) and write their digests.

    Digests of case sets not named are kept as recorded.
    """
    names = tuple(case_sets) or tuple(CASE_SETS)
    digests: Dict[str, str] = {}
    if case_sets:
        digests = {
            label: digest
            for label, digest in load_golden().items()
            if label.split("/", 1)[0] not in names
        }
    for name in names:
        digests.update(CASE_SETS[name]())
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "description": (
            "SHA-256 digests of fixed simulator runs; see tests/golden.py"
        ),
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return digests


if __name__ == "__main__":
    written = record(sys.argv[1:])
    print(f"wrote {len(written)} digests to {GOLDEN_PATH}", file=sys.stderr)
