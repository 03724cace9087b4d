"""Extension — YCSB mixes on secure SCM.

The canonical cloud-serving request mixes, compiled to flush-tagged
traces (updates/inserts persist; reads do not), run under the main
protocols. The expected shape follows the mixes' write intensity:
workload A (50 % updates) separates the protocols sharply, C (read
only) barely at all, with B/D/F in between — and AMNT tracks the leaf
floor on every mix, which is what a storage engine adopting it cares
about.
"""

from dataclasses import replace

from repro.bench.charts import grouped_bar_chart
from repro.bench.reporting import format_series
from repro.config import DataCacheConfig, default_config
from repro.sim.results import normalized_cycles
from repro.sim.runner import run_protocol_sweep
from repro.util.units import KB
from repro.workloads.ycsb import generate_ycsb_trace, ycsb_names, ycsb_workload

PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "amnt")


def run_ycsb(operations: int, seed: int):
    # The YCSB footprint (100k x 64 B records ~ 6 MB) is modest, so a
    # smaller LLC keeps the runs memory-bound as a storage node's would
    # be once the heap around the store fills the cache.
    config = replace(
        default_config(),
        llc=DataCacheConfig(capacity_bytes=256 * KB, associativity=16),
    )
    figure = {}
    for name in ycsb_names():
        trace = generate_ycsb_trace(
            ycsb_workload(name), operations=operations, seed=seed
        )
        results = run_protocol_sweep(trace, config, PROTOCOLS, seed=seed)
        figure[f"YCSB-{name}"] = normalized_cycles(results)
    return figure


def test_ycsb_mixes(benchmark, bench_accesses, bench_seed, shape_checks):
    figure = benchmark.pedantic(
        run_ycsb,
        kwargs={"operations": bench_accesses // 2, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_series(figure, title="YCSB mixes — normalized cycles"))
    print()
    print(
        grouped_bar_chart(
            {name: figure[name] for name in ("YCSB-A", "YCSB-C")},
            members=list(PROTOCOLS),
            title="YCSB A (update heavy) vs C (read only)",
            reference=1.0,
        )
    )
    if not shape_checks:
        return  # smoke run: table printed, assertions need warmed caches

    # Write intensity orders the damage: A >= B >= C for strict.
    assert (
        figure["YCSB-A"]["strict"]
        >= figure["YCSB-B"]["strict"]
        >= figure["YCSB-C"]["strict"]
    )
    # Read-only C is indifferent to the persistence model.
    assert figure["YCSB-C"]["strict"] < 1.1
    assert figure["YCSB-C"]["leaf"] < 1.05
    # AMNT tracks the leaf floor on every mix.
    for name, row in figure.items():
        assert row["amnt"] <= row["leaf"] * 1.25, name
        assert row["amnt"] < row["strict"] or row["strict"] < 1.05, name