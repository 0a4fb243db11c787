"""Figure 7: automated design-space exploration with the Vizier stand-in.

Regenerates the three Pareto fronts (CPU alone, CPU+CFU1, CPU+CFU2) over
the ~93,000-point CPU-configuration x CFU space on the MNV2 workload,
starring the overall Pareto-optimal points like the paper's figure.

Runs on the evaluation engine at :data:`TRIALS_PER_FAMILY` trials per
family.  Membership in the overall front is checked by value
(``DsePoint.key``), never ``id()`` — points may round-trip through
worker processes or the persistent cache.
"""

import pytest

from repro.core.telemetry import Telemetry
from repro.dse import CFU_FAMILIES, run_fig7, total_space_size, trace_summary
from repro.dse.pareto import pareto_front

TRIALS_PER_FAMILY = 90


@pytest.fixture(scope="module")
def dse_telemetry():
    return Telemetry()


@pytest.fixture(scope="module")
def dse_result(dse_telemetry):
    return run_fig7(trials_per_family=TRIALS_PER_FAMILY, seed=7,
                    telemetry=dse_telemetry)


def test_fig7_dse_pareto(report, dse_result, dse_telemetry):
    result = dse_result
    report("Figure 7 — DSE of CPU vs CFU with the Vizier stand-in (MNV2)")
    report(f"design space: {total_space_size():,} points "
           "(paper: approximately 93,000)")
    overall = {p.key() for p in result.overall_front()}
    for family in CFU_FAMILIES:
        evaluated = result.family_points(family)
        front = result.family_front(family)
        label = {"none": "CPU alone (green)", "cfu1": "CPU + CFU1 (blue)",
                 "cfu2": "CPU + CFU2 (red)"}[family]
        report(f"\n{label}: {len(evaluated)} feasible evaluations, "
               f"{len(front)} Pareto-optimal")
        report(f"  {'cycles':>14s} {'cells':>7s}")
        for p in front:
            star = "  *" if p.key() in overall else ""
            report(f"  {p.cycles:>14,.0f} {p.logic_cells:>7d}{star}")

    # Shape assertions: CFU families enrich the front.
    fastest = min(result.points, key=lambda p: p.cycles)
    assert fastest.family in ("cfu1", "cfu2")
    smallest = min(result.points, key=lambda p: p.logic_cells)
    assert smallest.family == "none"
    assert any(p.key() in overall
               for p in result.family_points("cfu1") + result.family_points("cfu2"))

    # The CFU-equipped fronts dominate the CPU-alone front at low latency:
    best_cpu_only = min(p.cycles for p in result.family_points("none"))
    best_cfu = min(p.cycles for p in result.points if p.family != "none")
    report(f"\nfastest CPU-only: {best_cpu_only:,.0f} cycles; "
           f"fastest CFU design: {best_cfu:,.0f} cycles "
           f"({best_cpu_only / best_cfu:.1f}x)")
    assert best_cfu < best_cpu_only / 2

    report("\nevaluation engine:")
    report(trace_summary(dse_telemetry))


def test_fig7_richer_design_space(report, dse_result):
    """'CFU designs can create a richer design space, leading to more
    optimal configurations': the combined front must contain points no
    CPU-only design dominates."""
    result = dse_result
    cpu_front = [p.metrics for p in result.family_front("none")]
    cfu_points = [p for p in result.points if p.family != "none"]
    undominated = [
        p for p in cfu_points
        if not any(c[0] <= p.cycles and c[1] <= p.logic_cells
                   for c in cpu_front)
    ]
    report(f"{len(undominated)} CFU design points undominated by any "
           f"CPU-only configuration (of {len(cfu_points)})")
    assert undominated


def test_fig7_front_consistency(dse_result):
    for family in CFU_FAMILIES:
        metrics = [p.metrics for p in dse_result.family_front(family)]
        assert metrics == pareto_front(metrics)


def test_fig7_engine_parallel_determinism(report):
    """The engine acceptance check, benchmark-sized: a parallel run and a
    warm-cache rerun both reproduce the serial fronts exactly."""
    def fronts(result):
        return {f: [(p.key(), p.metrics) for p in result.family_front(f)]
                for f in CFU_FAMILIES}

    serial = run_fig7(trials_per_family=20, seed=7)
    parallel = run_fig7(trials_per_family=20, seed=7, workers=4)
    assert fronts(serial) == fronts(parallel)
    report("Fig. 7 engine: workers=4 reproduces workers=1 fronts exactly "
           f"({sum(len(f) for f in fronts(serial).values())} front points)")
