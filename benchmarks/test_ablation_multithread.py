"""Ablation — multithread vs multiprogram: when does AMNT need help?

The paper evaluates multithreaded SPEC (§6.5, one address space, four
cores) and multiprogram PARSEC (§6.2, distinct address spaces). AMNT's
hot-region assumption survives the former but not the latter — that
asymmetry is AMNT++'s entire reason to exist. This ablation puts both
on one table: the same write-heavy behaviour run as 4 threads (shared
footprint) versus as 2 co-scheduled programs (separate footprints over
an aged allocator), reporting AMNT's subtree hit rate and overhead in
each setting.
"""

from repro.bench.experiments import MULTIPROGRAM_SCATTER_CHUNKS
from repro.bench.reporting import format_table
from repro.config import default_config
from repro.sim.runner import run_protocol_sweep
from repro.workloads.multiprogram import multiprogram_trace
from repro.workloads.multithread import multithread_trace
from repro.workloads.parsec import parsec_profile


def run_contrast(accesses: int, seed: int):
    config = default_config()
    fluid = parsec_profile("fluidanimate")
    body = parsec_profile("bodytrack")

    scenarios = {
        "multithread (fluid x4)": (
            multithread_trace(fluid, threads=4, seed=seed, accesses_total=accesses),
            0,  # fresh allocator: one process, contiguous pages
        ),
        "multiprogram (body+fluid)": (
            multiprogram_trace([body, fluid], seed=seed, accesses_each=accesses // 2),
            MULTIPROGRAM_SCATTER_CHUNKS,
        ),
    }
    rows = []
    for label, (trace, scatter) in scenarios.items():
        results = run_protocol_sweep(
            trace, config, ("volatile", "amnt", "amnt++"), seed=seed,
            scatter_span_chunks=scatter,
        )
        baseline = results.pop("volatile")
        for protocol, result in results.items():
            rows.append(
                {
                    "scenario": label,
                    "protocol": protocol,
                    "norm_cycles": result.cycles / baseline.cycles,
                    "subtree_hit": result.subtree_hit_rate() or 0.0,
                }
            )
    return rows


def test_ablation_multithread_vs_multiprogram(
    benchmark, bench_accesses, bench_seed, shape_checks
):
    rows = benchmark.pedantic(
        run_contrast,
        kwargs={"accesses": bench_accesses, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows,
            title="Ablation — thread-level vs program-level sharing",
        )
    )
    if not shape_checks:
        return  # smoke run: table printed, assertions need warmed caches
    by_key = {(row["scenario"], row["protocol"]): row for row in rows}
    mt_amnt = by_key[("multithread (fluid x4)", "amnt")]
    mp_amnt = by_key[("multiprogram (body+fluid)", "amnt")]
    mp_pp = by_key[("multiprogram (body+fluid)", "amnt++")]

    # Threads share one address space: plain AMNT keeps its locality
    # (the first selection interval's writes always count as misses, so
    # short traces sit slightly below the asymptotic rate).
    assert mt_amnt["subtree_hit"] > 0.85
    # Programs do not: the hit rate collapses...
    assert mp_amnt["subtree_hit"] < mt_amnt["subtree_hit"]
    # ...until the modified OS restores it.
    assert mp_pp["subtree_hit"] > mp_amnt["subtree_hit"]
    assert mp_pp["norm_cycles"] < mp_amnt["norm_cycles"]
