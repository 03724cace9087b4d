"""Layer boundaries of the ``repro`` pipeline and the metrics derived
from spans recorded at them.

Each :class:`~perfbench.tracer.Target` names a public function at the
edge of one layer. Layer time is the summed *self* time of that layer's
spans, so nested calls (``materialize_trace`` -> ``generate_trace``) and
calls into a lower layer (``run_cell`` -> ``simulate``) are never
counted twice. Counters come from the values the engine returns (and
the machine it ran on), so they are independent of host speed.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.tracer import Span, Target, self_times

#: Protocols whose engine cost is reported on its own; every workload
#: prints all of them (zero where a workload does not run one).
ENGINE_PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt", "amnt++")

#: Trace generators (as opposed to the cache lookup in front of them):
#: an outermost generator span is one trace produced.
GENERATORS = (
    "repro.workloads.synthetic:generate_trace",
    "repro.workloads.storage:generate_storage_trace",
    "repro.workloads.multiprogram:multiprogram_trace",
)


def protocol_metric(protocol: str) -> str:
    """Metric-name-safe protocol label (``amnt++`` -> ``amntpp``)."""
    return protocol.replace("+", "p")


def _machine_of(args: tuple, kwargs: dict):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "mee") and hasattr(value, "llc"):
            return value
    return None


def _engine_info(args: tuple, kwargs: dict, result) -> Dict[str, Any]:
    mee = result.mee_stats
    nvm = result.nvm_stats
    info = {
        "protocol": result.protocol,
        "accesses": result.accesses,
        "events": mee.get("mee.data_reads", 0) + mee.get("mee.data_writes", 0),
        "data_writes": mee.get("mee.data_writes", 0),
        "llc_hits": round(result.llc_hit_rate * result.accesses),
        "metadata_fills": nvm.get("nvm.reads.total", 0)
        - nvm.get("nvm.reads.data", 0),
        "persists": nvm.get("nvm.persists.total", 0),
        "page_faults": result.page_faults,
    }
    machine = _machine_of(args, kwargs)
    if machine is not None:
        stats = machine.mee.mdcache.stats
        info["mdcache_hits"] = stats.get("hits")
        info["mdcache_misses"] = stats.get("misses")
    return info


def _length_info(args: tuple, kwargs: dict, result) -> Dict[str, Any]:
    return {"accesses": len(result)}


def _stream_info(args: tuple, kwargs: dict, result) -> Dict[str, Any]:
    return {"accesses": result.accesses}


def _plan_info(args: tuple, kwargs: dict, result) -> Dict[str, Any]:
    return {"events": len(result)}


TARGETS = (
    Target("workloads.gen", "repro.workloads.registry:materialize_trace"),
    *(Target("workloads.gen", path, _length_info) for path in GENERATORS),
    Target("machine.build", "repro.sim.machine:build_machine"),
    Target("engine.direct", "repro.sim.engine:simulate", _engine_info),
    Target("engine.replay", "repro.sim.engine:simulate_from_stream", _engine_info),
    Target("engine.replay", "repro.sim.engine:simulate_from_plan", _engine_info),
    Target("replay.compile", "repro.sim.replay:compile_boundary_stream", _stream_info),
    Target("plan.compile", "repro.sim.plan:compile_metadata_plan", _plan_info),
    Target("parallel.dispatch", "repro.sim.parallel:ParallelSweepRunner.run"),
    Target("parallel.dispatch", "repro.sim.parallel:ParallelSweepRunner.map"),
    Target("parallel.cell", "repro.sim.parallel:run_cell"),
    Target("faults.cell", "repro.faults.campaign:run_fault_cell"),
    Target("faults.drive", "repro.sim.engine:drive_memory_boundary"),
    Target("faults.oracle", "repro.faults.oracle:run_oracle"),
    Target("faults.oracle", "repro.faults.crashstates:explore_crash_states"),
)

#: Per-layer metrics with their units; every traced run reports all of
#: them. ``trace.overhead_ratio`` and ``failed_ratio`` come from the
#: parent (they compare runs), the rest from :func:`layer_metrics`.
PER_LAYER_UNITS: Dict[str, str] = {
    "engine.ns_per_event": "ns",
    **{
        f"engine.ns_per_event.{protocol_metric(p)}": "ns"
        for p in ENGINE_PROTOCOLS
    },
    "engine.direct_s": "s",
    "engine.replay_s": "s",
    "replay.compile_s": "s",
    "replay.compiles": "count",
    "replay.compile_ns_per_access": "ns",
    "plan.compile_s": "s",
    "plan.compiles": "count",
    "plan.compile_ns_per_event": "ns",
    "machine.build_s": "s",
    "machine.builds": "count",
    "machine.build_ms": "ms",
    "workloads.gen_s": "s",
    "workloads.traces": "count",
    "workloads.gen_ns_per_access": "ns",
    "faults.drive_s": "s",
    "faults.oracle_s": "s",
    "faults.cells": "count",
    "faults.cell_ms.p50": "ms",
    "parallel.cells": "count",
    "parallel.overhead_s": "s",
    "parallel.cell_ms.p50": "ms",
    "parallel.cell_ms.tail": "ms",
    "mee.events_per_access": "ratio",
    "cache.llc_hit_rate": "ratio",
    "cache.mdcache_hit_rate": "ratio",
    "mem.metadata_fills_per_event": "ratio",
    "mem.persists_per_write": "ratio",
    "os.page_faults": "count",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail_value(values: Sequence[float]) -> float:
    """The highest order statistic with at least ten samples above it
    (clamped to the minimum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, len(ordered) - 11)]


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every span-derived per-layer metric, zero where a layer is idle."""
    own = self_times(spans)
    layer_s: Dict[str, float] = {}
    by_layer: Dict[str, List[Span]] = {}
    for span, seconds in zip(spans, own):
        layer_s[span.layer] = layer_s.get(span.layer, 0.0) + seconds
        by_layer.setdefault(span.layer, []).append(span)

    def spans_of(*layers: str) -> List[Span]:
        return [span for layer in layers for span in by_layer.get(layer, [])]

    def info_sum(items: Sequence[Span], key: str) -> int:
        return sum((span.info or {}).get(key, 0) for span in items)

    engine = spans_of("engine.direct", "engine.replay")
    engine_s = layer_s.get("engine.direct", 0.0) + layer_s.get("engine.replay", 0.0)
    events = info_sum(engine, "events")
    accesses = info_sum(engine, "accesses")
    mdcache_hits = info_sum(engine, "mdcache_hits")
    mdcache_probes = mdcache_hits + info_sum(engine, "mdcache_misses")

    metrics: Dict[str, float] = {
        "engine.ns_per_event": _ratio(engine_s * 1e9, events),
        "engine.direct_s": layer_s.get("engine.direct", 0.0),
        "engine.replay_s": layer_s.get("engine.replay", 0.0),
    }
    per_protocol: Dict[str, Tuple[float, int]] = {}
    for span in engine:
        seconds, protocol_events = per_protocol.get(span.info["protocol"], (0.0, 0))
        per_protocol[span.info["protocol"]] = (
            seconds + own[span.span_id],
            protocol_events + span.info["events"],
        )
    for protocol in ENGINE_PROTOCOLS:
        seconds, protocol_events = per_protocol.get(protocol, (0.0, 0))
        metrics[f"engine.ns_per_event.{protocol_metric(protocol)}"] = _ratio(
            seconds * 1e9, protocol_events
        )

    compiles = spans_of("replay.compile")
    metrics["replay.compile_s"] = layer_s.get("replay.compile", 0.0)
    metrics["replay.compiles"] = len(compiles)
    metrics["replay.compile_ns_per_access"] = _ratio(
        metrics["replay.compile_s"] * 1e9, info_sum(compiles, "accesses")
    )
    plans = spans_of("plan.compile")
    metrics["plan.compile_s"] = layer_s.get("plan.compile", 0.0)
    metrics["plan.compiles"] = len(plans)
    metrics["plan.compile_ns_per_event"] = _ratio(
        metrics["plan.compile_s"] * 1e9, info_sum(plans, "events")
    )

    builds = spans_of("machine.build")
    metrics["machine.build_s"] = layer_s.get("machine.build", 0.0)
    metrics["machine.builds"] = len(builds)
    metrics["machine.build_ms"] = _ratio(metrics["machine.build_s"] * 1e3, len(builds))

    traces = [
        span
        for span in spans_of("workloads.gen")
        if span.func in GENERATORS and not _has_generator_ancestor(spans, span)
    ]
    metrics["workloads.gen_s"] = layer_s.get("workloads.gen", 0.0)
    metrics["workloads.traces"] = len(traces)
    metrics["workloads.gen_ns_per_access"] = _ratio(
        metrics["workloads.gen_s"] * 1e9, info_sum(traces, "accesses")
    )

    fault_cells = spans_of("faults.cell")
    metrics["faults.drive_s"] = layer_s.get("faults.drive", 0.0)
    metrics["faults.oracle_s"] = layer_s.get("faults.oracle", 0.0)
    metrics["faults.cells"] = len(fault_cells)
    metrics["faults.cell_ms.p50"] = _median_ms(fault_cells)

    cells = spans_of("parallel.cell", "faults.cell")
    metrics["parallel.cells"] = len(cells)
    metrics["parallel.overhead_s"] = layer_s.get(
        "parallel.dispatch", 0.0
    ) + layer_s.get("parallel.cell", 0.0)
    metrics["parallel.cell_ms.p50"] = _median_ms(cells)
    metrics["parallel.cell_ms.tail"] = tail_value(
        [span.duration * 1e3 for span in cells]
    )

    metrics["mee.events_per_access"] = _ratio(events, accesses)
    metrics["cache.llc_hit_rate"] = _ratio(info_sum(engine, "llc_hits"), accesses)
    metrics["cache.mdcache_hit_rate"] = _ratio(mdcache_hits, mdcache_probes)
    metrics["mem.metadata_fills_per_event"] = _ratio(
        info_sum(engine, "metadata_fills"), events
    )
    metrics["mem.persists_per_write"] = _ratio(
        info_sum(engine, "persists"), info_sum(engine, "data_writes")
    )
    metrics["os.page_faults"] = info_sum(engine, "page_faults")
    return metrics


def _median_ms(items: Sequence[Span]) -> float:
    if not items:
        return 0.0
    return statistics.median(span.duration for span in items) * 1e3


def _has_generator_ancestor(spans: Sequence[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].func in GENERATORS:
            return True
        parent = spans[parent].parent
    return False
