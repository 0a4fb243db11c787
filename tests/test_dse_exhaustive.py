"""DSE validation against exhaustive enumeration.

On a reduced CPU space small enough for the *scalar* oracle to
enumerate, three things must agree exactly: the scalar enumeration, the
tensorized whole-space plane (:mod:`repro.dse.exhaustive`), and the
study service's ``exhaustive`` grid mode.  The black-box optimizer is
then scored against the true front with a measured hypervolume-regret
bound — on the full 93,312-point space the same tensorized plane makes
exact enumeration routine (fractions of a second), so Fig. 7's sampled
fronts are checked against ground truth, not against plausibility.
"""

import json
import os
import tracemalloc

import pytest

from repro.dse import (
    CFU_FAMILIES,
    DseService,
    Fig7Evaluator,
    MetricGoal,
    Parameter,
    ParameterSpace,
    RegularizedEvolution,
    Study,
    pareto_front,
    run_exhaustive_service,
    search_regret,
    sweep,
)
from repro.dse.exhaustive import ExhaustiveSweeper, pareto_front_indices
from repro.dse.service import space_to_spec

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


@pytest.fixture(scope="module")
def evaluator():
    return Fig7Evaluator()


@pytest.fixture(scope="module")
def sweeper(evaluator):
    return ExhaustiveSweeper(model=evaluator.model, space=REDUCED_SPACE)


@pytest.fixture(scope="module")
def true_front(evaluator):
    points = []
    for point in REDUCED_SPACE.grid():
        result = evaluator.evaluate(point, "none")
        if result is not None:
            points.append(result)
    assert len(points) == REDUCED_SPACE.size() == 72
    return pareto_front(points, key=lambda p: p.metrics)


def test_exhaustive_front_structure(true_front):
    metrics = [p.metrics for p in true_front]
    assert metrics == pareto_front(metrics)
    assert 2 <= len(true_front) <= 30
    # The fastest true design has caches; the smallest has none.
    fastest = min(true_front, key=lambda p: p.cycles)
    smallest = min(true_front, key=lambda p: p.logic_cells)
    assert fastest.parameters["dcache_bytes"] > 0
    assert smallest.parameters["icache_bytes"] == 0


def test_vectorized_plane_matches_scalar_enumeration(evaluator, sweeper,
                                                     true_front):
    """The tensorized plane is bit-identical to the scalar oracle."""
    points = list(REDUCED_SPACE.grid())
    cycles, cells, fit_ok = sweeper.evaluate_points(points, "none")
    for index, point in enumerate(points):
        scalar = evaluator.evaluate(point, "none")
        if scalar is None:
            assert not fit_ok[index]
        else:
            assert fit_ok[index]
            assert cycles[index] == scalar.cycles  # exact, not approx
            assert cells[index] == scalar.logic_cells
    plane = sweeper.family_plane("none")
    assert set(plane.front_metrics()) == {p.metrics for p in true_front}


def test_evolution_recovers_the_true_front(evaluator, true_front):
    study = Study(
        REDUCED_SPACE,
        goals=[MetricGoal("cycles"), MetricGoal("logic_cells")],
        algorithm=RegularizedEvolution(warmup=16, population_size=32),
        seed=11,
    )
    found = []

    def evaluate(parameters):
        point = evaluator.evaluate(parameters, "none")
        if point is None:
            return None
        found.append(point)
        return {"cycles": point.cycles, "logic_cells": point.logic_cells}

    study.run(evaluate, budget=60)  # < the 72-point exhaustive budget
    found_front = pareto_front(found, key=lambda p: p.metrics)

    # Measured: 0.0152 hypervolume regret at this seed/budget; the bound
    # leaves headroom without accepting a qualitatively worse front.
    regret = search_regret([p.metrics for p in true_front],
                           [p.metrics for p in found_front])
    assert regret <= 0.05

    # The single fastest design must be found exactly.
    assert (min(p.cycles for p in found_front)
            == min(p.cycles for p in true_front))


def test_pareto_front_indices_keeps_duplicate_metrics():
    """Regression: the vectorized skyline scan used to drop points whose
    (cycles, cells) tie an already-kept point.  The scalar oracle keeps
    all five of these; the index scan must agree."""
    import numpy as np

    points = [(10, 5), (10, 5), (12, 4), (12, 4), (9, 9)]
    cycles = np.array([p[0] for p in points], dtype=float)
    cells = np.array([p[1] for p in points])
    idx = pareto_front_indices(cycles, cells)
    scalar = pareto_front(points)
    assert len(scalar) == 5
    assert [(int(cycles[i]), int(cells[i])) for i in idx] == scalar


# A space whose icache_ways axis is metric-neutral at icache_bytes == 0:
# distinct designs with identical (cycles, cells) land on the front.
TIED_SPACE = ParameterSpace([
    Parameter("bypassing", (False, True)),
    Parameter("branch_prediction", ("none", "dynamic_target")),
    Parameter("multiplier", ("iterative", "single_cycle")),
    Parameter("divider", ("iterative",)),
    Parameter("shifter", ("barrel",)),
    Parameter("hw_error_checking", (False,)),
    Parameter("icache_bytes", (0, 4096)),
    Parameter("dcache_bytes", (0, 4096)),
    Parameter("icache_ways", (1, 2)),
])


def test_tied_space_fronts_are_identical_points(evaluator):
    """Vectorized sweep and scalar enumeration must agree on the exact
    front *points* — configurations, not just metrics — on a space
    containing metric-tied designs."""
    sweeper = ExhaustiveSweeper(model=evaluator.model, space=TIED_SPACE)
    scalar = [evaluator.evaluate(point, "none")
              for point in TIED_SPACE.grid()]
    scalar_front = pareto_front([p for p in scalar if p is not None],
                                key=lambda p: p.metrics)
    vector_front = sweeper.front_points("none")

    def ident(point):
        return (tuple(sorted(point.parameters.items())), point.metrics)

    assert sorted(map(ident, vector_front)) == sorted(map(ident, scalar_front))
    metrics = [p.metrics for p in vector_front]
    assert len(metrics) > len(set(metrics))  # the ties really exist


def test_front_respects_monotonicity(true_front):
    """Along the true front, spending more cells must buy speed."""
    ordered = sorted(true_front, key=lambda p: p.logic_cells)
    cycles = [p.cycles for p in ordered]
    assert all(b <= a for a, b in zip(cycles, cycles[1:]))


# --- the service's exhaustive (grid) mode --------------------------------------------

def _exhaustive_config(space, **extra):
    config = {
        "owner": "tests", "study_id": "grid", "budget": space.size(),
        "batch": 16, "max_inflight": 16, "algorithm": "exhaustive",
        "space": space_to_spec(space), "family": "none", "seed": 0,
    }
    config.update(extra)
    return config


def test_grid_search_suggestions_are_positional():
    """Trial k+1 is exactly the k-th point of space.grid()."""
    service = DseService()
    study = service.create_study(_exhaustive_config(REDUCED_SPACE))
    expected = list(REDUCED_SPACE.grid())
    seen = {}
    while True:
        granted = study.claim("w0", 16)
        if not granted:
            break
        completions = []
        for record in granted:
            seen[record.trial_id] = dict(record.parameters)
            completions.append({
                "trial_id": record.trial_id,
                "lease_token": record.lease_token,
                "metrics": {"cycles": float(record.trial_id),
                            "logic_cells": 1},
            })
        study.complete_batch(completions)
    assert len(seen) == len(expected)
    for trial_id, parameters in seen.items():
        assert parameters == expected[trial_id - 1]
    assert study.state == "DONE"


def test_grid_search_exhaustion_is_an_error():
    service = DseService()
    config = _exhaustive_config(REDUCED_SPACE,
                                budget=REDUCED_SPACE.size() + 1)
    study = service.create_study(config)
    with pytest.raises(ValueError, match="grid exhausted"):
        while study.claim("w0", 16):
            for record in list(study.records.values()):
                if record.state == "CLAIMED":
                    study.complete(record.trial_id, record.lease_token,
                                   metrics={"cycles": 1.0,
                                            "logic_cells": 1})


def test_complete_batch_isolates_per_item_failures():
    """One stale lease fails positionally; the rest of the batch lands."""
    service = DseService()
    study = service.create_study(_exhaustive_config(REDUCED_SPACE))
    granted = study.claim("w0", 3)
    assert len(granted) == 3
    results = study.complete_batch([
        {"trial_id": granted[0].trial_id,
         "lease_token": granted[0].lease_token,
         "metrics": {"cycles": 1.0, "logic_cells": 2}},
        {"trial_id": granted[1].trial_id, "lease_token": "bogus#token",
         "metrics": {"cycles": 2.0, "logic_cells": 3}},
        {"trial_id": granted[2].trial_id,
         "lease_token": granted[2].lease_token, "infeasible": True},
    ])
    assert results[0]["ok"] and results[2]["ok"]
    assert not results[1]["ok"] and results[1]["status"] == 409
    assert study.completed_count() == 2


def test_run_exhaustive_service_streams_the_exact_front(tmp_path, evaluator,
                                                        sweeper):
    service = DseService(store_dir=str(tmp_path))
    result, (study,) = run_exhaustive_service(
        service, sweeper=sweeper, families=("none",), chunk=16,
        owner="tests", study_prefix="exact")
    assert study.state == "DONE"
    assert study.completed_count() == REDUCED_SPACE.size()
    front = {(r["metrics"]["cycles"], r["metrics"]["logic_cells"])
             for r in study.front()}
    assert front == set(result.front_metrics("none"))

    # Restarting the service and re-running resumes as a no-op.
    resumed_service = DseService(store_dir=str(tmp_path))
    _, (resumed,) = run_exhaustive_service(
        resumed_service, sweeper=sweeper, families=("none",), chunk=16,
        owner="tests", study_prefix="exact")
    assert resumed.state == "DONE"
    assert resumed.completed_count() == REDUCED_SPACE.size()


def test_whole_space_distinct_fronts_match_committed_bench():
    """``BENCH_dse.json`` commits each family's exact front as its
    sorted distinct (cycles, logic cells) points, and perfbench's
    fig7-exhaustive check compares a fresh sweep against them."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_dse.json")
    with open(path) as handle:
        families = json.load(handle)["exhaustive"]["families"]
    result = sweep()
    for family in CFU_FAMILIES:
        committed = [(entry["cycles"], entry["logic_cells"])
                     for entry in families[family]["front"]]
        assert sorted(set(result.front_metrics(family))) == committed


def test_whole_space_sweep_holds_per_axis_tables_not_per_point_arrays(
        evaluator):
    """A full-space sweeper keeps only its small per-axis tables (index
    and fold arrays over the grid cost 3.1 MiB), and a three-family
    sweep peaks below the 8.6 MiB that those arrays plus a probe per
    trace entry cost.  The model is preloaded, so it is not counted."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sweeper = ExhaustiveSweeper(model=evaluator.model)
        kept, _ = tracemalloc.get_traced_memory()
        sweep(sweeper=sweeper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert kept - baseline < 0.5 * 2**20
    assert peak - baseline < 6.5 * 2**20
