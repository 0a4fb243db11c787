"""Tensorized whole-space DSE benchmark: exact Fig. 7 fronts.

Measures the vectorized evaluation plane (:mod:`repro.dse.exhaustive`)
at full Fig. 7 scale — all 93,312 points (three CFU families over the
31,104-point VexRiscv space) in one run — and lands the ``exhaustive``
section of ``BENCH_dse.json``:

- **whole space** — wall time and points/sec for the exact sweep,
  per-family feasible counts, and each family's exact front as its
  sorted distinct (cycles, logic cells) points;
- **speedup** — the scalar ``evaluate_design`` loop timed on a random
  sample and extrapolated to the full space; building the planes and
  sweeping must be at least 100 times faster in the median of
  :data:`REPEATS` interleaved repeats, and every sampled point must be
  *bit-identical* between the two paths;
- **reduced-space ground truth** — on a fully-enumerable 72-point
  space, the vectorized front must equal the scalar enumeration's front
  exactly;
- **search regret** — ``run_fig7``'s RegularizedEvolution fronts scored
  against the exact fronts by hypervolume regret (0 = recovered the
  exact front), the number Fig. 7's sampled curves are judged by.
"""

import random
import time

from common import REPEATS, check, median_run, row, write_section

from repro.boards import ARTY_A7_35T
from repro.dse import (
    CFU_FAMILIES,
    Parameter,
    ParameterSpace,
    evaluate_design,
    run_fig7,
    search_regret,
    sweep,
    vexriscv_space,
)
from repro.dse.exhaustive import ExhaustiveSweeper, scalar_reference_points
from repro.models import load

SAMPLE = 48             # scalar-baseline sample size
SPEEDUP_MIN = 100.0     # tensorized sweep over the extrapolated scalar loop
SEARCH_TRIALS = 60      # evolution budget per family for the regret

SEED = 0

REDUCED_SPACE = ParameterSpace([
    Parameter("bypassing", (False, True)),
    Parameter("branch_prediction", ("none", "dynamic_target")),
    Parameter("multiplier", ("iterative", "single_cycle")),
    Parameter("divider", ("iterative",)),
    Parameter("shifter", ("barrel",)),
    Parameter("hw_error_checking", (False,)),
    Parameter("icache_bytes", (0, 4096, 32768)),
    Parameter("dcache_bytes", (0, 4096, 32768)),
    Parameter("icache_ways", (1,)),
])


def measure_scalar_baseline(model, sweeper):
    """Time the scalar oracle on a sample; verify bit-exactness on it."""
    space = sweeper.space
    rng = random.Random(SEED)
    points = [space.sample(rng) for _ in range(SAMPLE)]
    families = [CFU_FAMILIES[i % len(CFU_FAMILIES)]
                for i in range(SAMPLE)]
    start = time.monotonic()
    scalar = [evaluate_design(model, ARTY_A7_35T, point, family)
              for point, family in zip(points, families)]
    elapsed = time.monotonic() - start

    mismatches = 0
    for point, family, oracle in zip(points, families, scalar):
        cycles, cells, fit_ok = sweeper.evaluate_points([point], family)
        if oracle is None:
            mismatches += int(bool(fit_ok[0]))
        elif (not fit_ok[0] or cycles[0] != oracle.cycles
              or cells[0] != oracle.logic_cells):
            mismatches += 1
    return {
        "sample_points": SAMPLE,
        "elapsed_seconds": round(elapsed, 4),
        "points_per_sec": round(SAMPLE / elapsed, 2),
        "bit_exact_mismatches": mismatches,
    }


def measure_sweep(model, space):
    """One repeat: build the planes and sweep the whole space, then
    time the scalar loop on the sample.  Returns (result, timings)."""
    setup_start = time.monotonic()
    sweeper = ExhaustiveSweeper(model=model, board=ARTY_A7_35T, space=space)
    setup_seconds = time.monotonic() - setup_start
    result = sweep(sweeper=sweeper)
    baseline = measure_scalar_baseline(model, sweeper)
    scalar_full_space = result.points_evaluated / baseline["points_per_sec"]
    total_vector = setup_seconds + result.seconds
    return result, {
        "points_evaluated": result.points_evaluated,
        "sweep_seconds": round(result.seconds, 4),
        "setup_seconds": round(setup_seconds, 4),
        "points_per_sec": round(result.points_per_second, 1),
        "full_space_seconds": round(total_vector, 4),
        "scalar_baseline": baseline,
        "scalar_full_space_seconds_extrapolated": round(
            scalar_full_space, 1),
        "speedup_over_scalar": round(scalar_full_space / total_vector, 1),
    }


def measure_reduced_ground_truth(model):
    """Exhaustive scalar enumeration == vectorized plane, front and all."""
    reduced = ExhaustiveSweeper(model=model, space=REDUCED_SPACE)
    oracle = scalar_reference_points(model, ARTY_A7_35T, REDUCED_SPACE,
                                     "none")
    points = list(REDUCED_SPACE.grid())
    cycles, cells, fit_ok = reduced.evaluate_points(points, "none")
    pointwise_exact = all(
        (oracle[i] is None and not fit_ok[i])
        or (oracle[i] is not None and fit_ok[i]
            and cycles[i] == oracle[i].cycles
            and cells[i] == oracle[i].logic_cells)
        for i in range(len(points)))
    from repro.dse import pareto_front

    scalar_front = {p.metrics for p in pareto_front(
        [p for p in oracle.values() if p is not None],
        key=lambda p: p.metrics)}
    vector_front = set(reduced.family_plane("none").front_metrics())
    return {
        "space_size": REDUCED_SPACE.size(),
        "pointwise_bit_exact": pointwise_exact,
        "fronts_identical": vector_front == scalar_front,
        "front_size": len(vector_front),
    }


def measure_search_regret(result):
    """Score the black-box engine's fronts against the exact fronts."""
    start = time.monotonic()
    search = run_fig7(trials_per_family=SEARCH_TRIALS, seed=SEED)
    elapsed = time.monotonic() - start
    per_family = {}
    for family in CFU_FAMILIES:
        exact = result.front_metrics(family)
        found = [(p.cycles, p.logic_cells)
                 for p in search.family_front(family)]
        per_family[family] = {
            "regret": round(search_regret(exact, found), 6),
            "front_found": len(found),
            "front_exact": len(set(exact)),
        }
    return {
        "algorithm": "regularized_evolution",
        "trials_per_family": SEARCH_TRIALS,
        "seed": SEED,
        "search_seconds": round(elapsed, 2),
        "per_family": per_family,
        "max_regret": max(f["regret"] for f in per_family.values()),
    }


def test_exhaustive_whole_space(report):
    model = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    space = vexriscv_space()
    runs = []
    for _ in range(REPEATS):
        result, timings = measure_sweep(model, space)
        runs.append(timings)
    timings = median_run(runs, "speedup_over_scalar")
    baseline = timings["scalar_baseline"]
    ground_truth = measure_reduced_ground_truth(model)
    regret = measure_search_regret(result)

    families = {}
    for family, plane in result.planes.items():
        # One entry per distinct metric point: the plane also lists
        # every grid point that ties one.
        front = sorted(set(plane.front_metrics()))
        families[family] = {
            "evaluated": int(plane.fit_ok.size),
            "feasible": plane.feasible_count,
            "front_size": len(front),
            "front": [{"cycles": cycles, "logic_cells": cells}
                      for cycles, cells in front],
        }
    rows = [row("tensorized sweep vs scalar loop", "ratio", "higher",
                [r["speedup_over_scalar"] for r in runs], SPEEDUP_MIN)]
    broken = [f"swept {r['points_evaluated']:,} points, not 93,312"
              for r in runs if r["points_evaluated"] != 93_312]
    broken += [f"vectorized plane diverged from the scalar oracle on "
               f"{r['scalar_baseline']['bit_exact_mismatches']} sampled points"
               for r in runs if r["scalar_baseline"]["bit_exact_mismatches"]]
    if not ground_truth["pointwise_bit_exact"]:
        broken.append("vectorized plane diverged from scalar enumeration "
                      "(reduced space)")
    if not ground_truth["fronts_identical"]:
        broken.append("vectorized front != scalar front on the "
                      "enumerable reduced space")
    broken += [f"{family}: regret {stats['regret']} outside [0, 1]"
               for family, stats in regret["per_family"].items()
               if not 0.0 <= stats["regret"] <= 1.0]
    write_section("dse", "exhaustive", rows, **timings,
                  families=families,
                  reduced_ground_truth=ground_truth,
                  search_regret=regret)

    report(f"exhaustive sweep  : {timings['points_evaluated']:,} points in "
           f"{timings['sweep_seconds']:.2f}s "
           f"(+{timings['setup_seconds']:.2f}s setup, "
           f"{timings['points_per_sec']:,.0f} points/sec)")
    report(f"scalar baseline   : {baseline['points_per_sec']:.1f} "
           f"points/sec over {SAMPLE} sampled points -> "
           f"{timings['scalar_full_space_seconds_extrapolated']:,.0f}s "
           f"extrapolated full space")
    for family, stats in families.items():
        report(f"exact {family:<5} front : {stats['front_size']} points "
               f"({stats['feasible']:,}/{stats['evaluated']:,} feasible)")
    for family, stats in regret["per_family"].items():
        report(f"regret {family:<5}      : {stats['regret']:.4f} "
               f"(evolution@{SEARCH_TRIALS} front {stats['front_found']} "
               f"vs exact {stats['front_exact']})")
    check(report, rows, broken)
