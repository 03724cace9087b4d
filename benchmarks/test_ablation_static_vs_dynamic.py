"""Ablation — static vs dynamic hybrid persistence (the §2.3 thesis).

The paper's framing: static approaches (Triad-NVM's fixed level
partition, PLP's parallel strict updates) "miss out on potential
performance benefits by treating all addresses the same", and "to the
best of our knowledge, there is no work that proposes a dynamic
persistence scheme" — AMNT being that scheme. This ablation lines the
static designs up against AMNT on a hot-region workload where treating
addresses differently is exactly what pays: all four protocols offer
bounded (or instant) recovery, so the runtime column isolates the value
of *dynamic* hot-region adaptation.
"""

from repro.bench.reporting import format_table
from repro.config import default_config
from repro.core.recovery import RecoveryAnalysis
from repro.sim.runner import run_protocol_sweep
from repro.util.units import TB
from repro.workloads.spec import spec_profile
from repro.workloads.synthetic import generate_trace

PROTOCOLS = ("volatile", "leaf", "strict", "plp", "triad", "amnt")


def run_comparison(accesses: int, seed: int):
    config = default_config()
    analysis = RecoveryAnalysis(config)
    trace = generate_trace(
        spec_profile("xz").scaled(accesses=accesses), seed=seed
    )
    results = run_protocol_sweep(trace, config, PROTOCOLS, seed=seed)
    baseline = results[PROTOCOLS[0]].cycles
    rows = []
    for name, result in results.items():
        rows.append(
            {
                "protocol": name,
                "norm_cycles": result.cycles / baseline,
                "recovery_ms_2tb": (
                    analysis.recovery_ms(name, 2 * TB)
                    if name != "volatile"
                    else float("nan")
                ),
                "write_amp": result.metadata_write_amplification() or 0.0,
            }
        )
    return rows


def test_ablation_static_vs_dynamic(
    benchmark, bench_accesses, bench_seed, shape_checks
):
    rows = benchmark.pedantic(
        run_comparison,
        kwargs={"accesses": bench_accesses, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows,
            title="Ablation — static (triad/plp) vs dynamic (amnt) hybrid "
            "persistence on xz",
        )
    )
    if not shape_checks:
        return  # smoke run: table printed, assertions need warmed caches
    by_name = {row["protocol"]: row for row in rows}

    # Both static schemes improve on plain strict persistence...
    assert by_name["plp"]["norm_cycles"] < by_name["strict"]["norm_cycles"]
    assert by_name["triad"]["norm_cycles"] < by_name["strict"]["norm_cycles"]
    # ...but the dynamic scheme beats both at runtime (the §2.3 thesis),
    assert by_name["amnt"]["norm_cycles"] < by_name["triad"]["norm_cycles"]
    assert by_name["amnt"]["norm_cycles"] < by_name["plp"]["norm_cycles"]
    # ...with bounded recovery (unlike leaf persistence, its runtime
    # equal) and less write amplification than the strict family.
    assert by_name["amnt"]["recovery_ms_2tb"] < by_name["leaf"]["recovery_ms_2tb"]
    assert by_name["amnt"]["write_amp"] < by_name["strict"]["write_amp"]
