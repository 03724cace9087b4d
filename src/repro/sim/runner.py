"""Experiment runner: protocol sweeps over identical traces.

Each protocol gets a *fresh machine* but the *same virtual trace*, so
differences come only from the protocol (and, for ``amnt++``, the
modified OS's physical placement — which is the experiment). The runner
is the building block every figure's benchmark harness uses.

Sweeps accept either a materialized :class:`Trace` or a picklable
:class:`~repro.workloads.registry.TraceSpec` and run as cells on
:class:`~repro.sim.parallel.ParallelSweepRunner` — in-process with
``workers=1``, over a process pool otherwise, bit-identical either way.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Union

from repro import telemetry
from repro.config import SystemConfig
from repro.sim.parallel import ParallelSweepRunner, SweepCell
from repro.sim.results import SimulationResult, normalized_cycles
from repro.util.rng import Seed
from repro.workloads.registry import TraceSpec, literal_spec
from repro.workloads.trace import Trace

#: The protocol lineup of the paper's runtime figures (4, 5, 8).
FIGURE_PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt")
FIGURE_PROTOCOLS_WITH_OS = FIGURE_PROTOCOLS + ("amnt++",)

TraceLike = Union[Trace, TraceSpec]


def run_protocol_sweep(
    trace: TraceLike,
    config: SystemConfig,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    seed: Seed = 0,
    scatter_span_chunks: int = 0,
    churn_interval: int = 16384,
    workers: int = 1,
    store=None,
) -> Dict[str, SimulationResult]:
    """Run ``trace`` under each protocol on a fresh machine.

    The sweep is one :class:`~repro.sim.parallel.SweepCell` per
    protocol, run by :class:`~repro.sim.parallel.ParallelSweepRunner`:
    the data side is compiled to a boundary stream and metadata plan
    once per OS variant and replayed into every protocol's MEE —
    bit-identical to :func:`~repro.sim.engine.simulate` per protocol.
    A raw :class:`Trace` is wrapped in a literal spec; pass a
    :class:`~repro.workloads.registry.TraceSpec` so ``workers > 1``
    pool workers regenerate it locally instead of unpickling it.

    With a :class:`~repro.store.ResultStore` as ``store`` the sweep is
    *incremental*: cells whose fingerprints are already in the store are
    replayed from disk, only the rest are computed (then written back),
    and the returned mapping is bit-identical to a store-less run.
    """
    spec = trace if isinstance(trace, TraceSpec) else literal_spec(trace)
    cells = [
        SweepCell(
            protocol=name,
            trace=spec,
            seed=seed,
            scatter_span_chunks=scatter_span_chunks,
            churn_interval=churn_interval,
        )
        for name in protocols
    ]
    with telemetry.span(f"sweep:{spec.label()}"):
        results = ParallelSweepRunner(workers=workers).run(
            cells, config, store=store
        )
    return dict(zip(protocols, results))


def sweep_normalized(
    trace: TraceLike,
    config: SystemConfig,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    seed: Seed = 0,
    scatter_span_chunks: int = 0,
    baseline: str = "volatile",
    workers: int = 1,
    store=None,
) -> Dict[str, float]:
    """Normalized cycles (the paper's y-axis) for each protocol."""
    protocols = tuple(protocols)
    if baseline not in protocols:
        protocols = (baseline,) + protocols
    results = run_protocol_sweep(
        trace,
        config,
        protocols,
        seed=seed,
        scatter_span_chunks=scatter_span_chunks,
        workers=workers,
        store=store,
    )
    return normalized_cycles(results, baseline=baseline)


def geometric_mean(values: Iterable[float]) -> float:
    """Geomean used for 'average overhead' style summary numbers.

    Computed as ``exp(mean(log(v)))`` rather than an n-th root of a
    running product: long sweeps with extreme normalized values would
    overflow to ``inf`` or underflow to ``0.0`` in the product form.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    log_sum = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))
