"""Parallel DSE engine tests: determinism across worker counts, the
persistent evaluation cache, worker-pool fault injection, and the
value-based dedup that object-identity dedup used to get wrong."""

import json
import os

import pytest

from repro.core.telemetry import Telemetry
from repro.dse import (
    CFU_FAMILIES,
    DsePoint,
    DseResult,
    EvaluationCache,
    Fig7Evaluator,
    MISS,
    ParameterSpace,
    Parameter,
    Study,
    WorkerPool,
    WorkerPoolError,
    cache_key,
    run_fig7,
    vexriscv_space,
)
from repro.dse.cache import CACHE_SCHEMA_VERSION


def family_fronts(result):
    """Value-identity view of the per-family Pareto fronts."""
    return {family: [(p.key(), p.metrics) for p in result.family_front(family)]
            for family in CFU_FAMILIES}


# --- determinism regression (the acceptance criterion) -------------------------------

def test_fig7_workers_do_not_change_the_fronts():
    serial = run_fig7(trials_per_family=30, seed=0, workers=1)
    parallel = run_fig7(trials_per_family=30, seed=0, workers=4)
    assert family_fronts(serial) == family_fronts(parallel)
    assert ([p.key() for p in serial.points]
            == [p.key() for p in parallel.points])


def test_fig7_warm_cache_rerun_evaluates_nothing(tmp_path):
    cache_dir = tmp_path / "dse-cache"
    cold_telemetry = Telemetry()
    cold = run_fig7(trials_per_family=30, seed=0, cache_dir=cache_dir,
                    telemetry=cold_telemetry)
    assert cold_telemetry.value("dse_cache_misses") == 90
    assert "dse_cache_hits" not in cold_telemetry

    warm_telemetry = Telemetry()
    warm = run_fig7(trials_per_family=30, seed=0, cache_dir=cache_dir,
                    telemetry=warm_telemetry)
    assert "dse_cache_misses" not in warm_telemetry  # zero evaluations
    assert warm_telemetry.value("dse_cache_hits") == 90
    assert family_fronts(cold) == family_fronts(warm)


def test_fig7_warm_cache_serves_parallel_runs_too(tmp_path):
    cache_dir = tmp_path / "dse-cache"
    cold = run_fig7(trials_per_family=12, seed=3, cache_dir=cache_dir)
    telemetry = Telemetry()
    warm = run_fig7(trials_per_family=12, seed=3, cache_dir=cache_dir,
                    workers=3, telemetry=telemetry)
    assert "dse_cache_misses" not in telemetry
    assert family_fronts(cold) == family_fronts(warm)


def test_fig7_trace_has_per_trial_spans(tmp_path):
    telemetry = Telemetry()
    run_fig7(trials_per_family=10, seed=1, telemetry=telemetry)
    trial_spans = [s for s in telemetry.spans if s.name == "trial"]
    assert len(trial_spans) == 30
    for span in trial_spans:
        assert span.attrs["family"] in CFU_FAMILIES
        assert isinstance(span.attrs["cache_hit"], bool)
        assert isinstance(span.attrs["fit"], bool)
    progress = [e for e in telemetry.events if e["name"] == "progress"]
    assert {e["family"] for e in progress} == set(CFU_FAMILIES)
    assert {e["name"] for e in telemetry.events} >= {"family_start",
                                                    "family_done", "progress"}

    path = tmp_path / "trace.jsonl"
    telemetry.export_jsonl(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    exported = [r for r in records if r.get("name") == "trial"]
    assert len(exported) == 30
    assert all("cache_hit" in r and "fit" in r and "family" in r
               for r in exported)


# --- value-based dedup (regression for the id()-based version) -----------------------

def test_dse_result_dedups_points_by_value_not_identity():
    point = DsePoint(family="cfu1", parameters={"a": 1, "b": "x"},
                     cycles=100.0, logic_cells=5)
    clone = DsePoint.from_record(point.to_record())  # the cache round-trip
    assert clone is not point and clone.key() == point.key()
    result = DseResult()
    result.add(point)
    result.add(clone)  # id()-based dedup would have counted this twice
    assert len(result.points) == 1

    other = DsePoint(family="cfu1", parameters={"a": 2, "b": "x"},
                     cycles=100.0, logic_cells=5)
    result.add(other)  # same metrics, different config: a real new point
    assert len(result.points) == 2


def test_dse_result_constructed_from_points_keeps_dedup_state():
    point = DsePoint(family="none", parameters={"a": 1}, cycles=1.0,
                     logic_cells=1)
    result = DseResult(points=[point])
    result.add(DsePoint.from_record(point.to_record()))
    assert len(result.points) == 1


def test_dse_result_records_round_trip_by_value():
    result = DseResult()
    result.add(DsePoint(family="none", parameters={"b": 2, "a": 1},
                        cycles=10.0, logic_cells=3))
    result.add(DsePoint(family="cfu1", parameters={"a": 1, "b": 2},
                        cycles=8.0, logic_cells=7))
    records = result.to_records()
    assert records == json.loads(json.dumps(records))  # plain JSON
    rebuilt = DseResult.from_records(records)
    assert [p.key() for p in rebuilt.points] == \
        [p.key() for p in result.points]
    # rebuilding from records that repeat a configuration dedups by
    # value, exactly like add()
    doubled = DseResult.from_records(records + records)
    assert [p.key() for p in doubled.points] == \
        [p.key() for p in result.points]


def test_family_front_is_insertion_order_independent():
    """Two configs with identical metrics: whichever arrives first must
    not decide the front (service completions arrive in worker order)."""
    low = DsePoint(family="none", parameters={"a": 1}, cycles=5.0,
                   logic_cells=5)
    high = DsePoint(family="none", parameters={"a": 2}, cycles=5.0,
                    logic_cells=5)
    one_way = DseResult()
    one_way.add(low)
    one_way.add(high)
    other_way = DseResult()
    other_way.add(high)
    other_way.add(low)
    assert [p.key() for p in one_way.family_front("none")] == \
        [p.key() for p in other_way.family_front("none")]
    # the representative is the value-smallest config, deterministically
    assert one_way.family_front("none")[0].key() == low.key()


def test_pareto_front_sorts_by_the_full_metric_tuple():
    from repro.dse import pareto_front

    # three non-dominated points, two tied on the first objective (only
    # possible with three or more goals): the tie must break on the
    # remaining objectives, not on discovery order
    points = [(1.0, 5.0, 2.0), (1.0, 2.0, 5.0), (2.0, 1.0, 1.0)]
    expected = [(1.0, 2.0, 5.0), (1.0, 5.0, 2.0), (2.0, 1.0, 1.0)]
    assert pareto_front(points) == expected
    assert pareto_front(list(reversed(points))) == expected


def test_summary_stars_survive_a_cache_round_trip(tmp_path):
    first = run_fig7(trials_per_family=10, seed=5, cache_dir=tmp_path)
    second = run_fig7(trials_per_family=10, seed=5, cache_dir=tmp_path)
    # every line, including the overall-front stars, must match even
    # though the second run's points are deserialized objects
    assert first.summary() == second.summary()
    assert "*" in first.summary()


# --- the persistent cache ------------------------------------------------------------

def _point(**overrides):
    record = {"family": "cfu2", "parameters": {"x": 1, "y": "big"},
              "cycles": 123.5, "logic_cells": 42}
    record.update(overrides)
    return DsePoint.from_record(record)


def test_cache_round_trips_points_across_instances(tmp_path):
    key = cache_key({"x": 1}, "cfu2", model="m", board="b")
    EvaluationCache(tmp_path).put(key, _point())
    reloaded = EvaluationCache(tmp_path).get(key)  # fresh instance: disk path
    assert reloaded == _point()


def test_cache_persists_infeasible_verdicts(tmp_path):
    key = cache_key({"x": 2}, "cfu1", model="m", board="b")
    EvaluationCache(tmp_path).put(key, None)
    assert EvaluationCache(tmp_path).get(key) is None  # cached, not MISS


def test_cache_miss_is_distinguishable_from_infeasible(tmp_path):
    cache = EvaluationCache(tmp_path)
    assert cache.get("0" * 64) is MISS


def test_cache_tolerates_truncated_and_garbage_files(tmp_path):
    cache = EvaluationCache(tmp_path)
    key = cache_key({"x": 3}, "none", model="m", board="b")
    cache.put(key, _point())
    path = cache._path(key)

    for garbage in ("", '{"schema": 1, "fit":', "\x00\xff not json"):
        with open(path, "w") as handle:
            handle.write(garbage)
        fresh = EvaluationCache(tmp_path)
        assert fresh.get(key) is MISS  # ignored, not crashed on
        fresh.put(key, _point())       # ...and rebuilt in place
        assert EvaluationCache(tmp_path).get(key) == _point()
        with open(path, "w") as handle:
            handle.write(garbage)


def test_cache_ignores_foreign_schema_versions(tmp_path):
    cache = EvaluationCache(tmp_path)
    key = cache_key({"x": 4}, "none", model="m", board="b")
    cache.put(key, _point())
    path = cache._path(key)
    with open(path) as handle:
        record = json.load(handle)
    record["schema"] = CACHE_SCHEMA_VERSION + 1
    with open(path, "w") as handle:
        json.dump(record, handle)
    assert EvaluationCache(tmp_path).get(key) is MISS


def test_cache_files_are_sharded_by_key_prefix(tmp_path):
    cache = EvaluationCache(tmp_path)
    key = cache_key({"x": 5}, "none", model="m", board="b")
    cache.put(key, None)
    assert os.path.exists(os.path.join(tmp_path, key[:2], key + ".json"))


def test_evaluator_returns_identical_object_on_memory_hit():
    evaluator = Fig7Evaluator()
    point = vexriscv_space().sample(__import__("random").Random(0))
    first = evaluator.evaluate(point, "none")
    second = evaluator.evaluate(point, "none")
    assert first is second
    assert evaluator.telemetry.value("dse_cache_misses") == 1
    assert evaluator.telemetry.value("dse_cache_hits") == 1


def test_evaluator_batch_dedups_within_one_batch():
    evaluator = Fig7Evaluator()
    point = vexriscv_space().sample(__import__("random").Random(1))
    outcomes = evaluator.evaluate_batch([(point, "none"), (point, "none")])
    assert evaluator.telemetry.value("dse_cache_misses") == 1
    assert outcomes[0].point is outcomes[1].point
    assert not outcomes[0].cache_hit and outcomes[1].cache_hit


# --- fault injection -----------------------------------------------------------------

def _toy_study(seed=0):
    space = ParameterSpace([Parameter("x", tuple(range(8)))])
    return Study(space, goals=["loss"], seed=seed)


def _explode(parameters):
    raise RuntimeError(f"synthesis crashed on {parameters}")


def _explode_on_three(parameters):
    if parameters["x"] == 3:
        raise RuntimeError("synthesis crashed")
    return {"loss": parameters["x"]}


def _quadratic_loss(parameters):
    # module-level: process pools pickle evaluation functions by name
    return {"loss": (parameters["x"] - 5) ** 2}


def test_serial_pool_failure_names_the_item():
    with WorkerPool(workers=1) as pool:
        with pytest.raises(WorkerPoolError, match="worker failed on item"):
            pool.map(_explode_on_three, [{"x": 1}, {"x": 3}, {"x": 5}])


def test_multiprocessing_pool_failure_propagates_and_terminates():
    pool = WorkerPool(workers=2)
    try:
        with pytest.raises(WorkerPoolError, match="batch of 4"):
            pool.map(_explode, [{"x": i} for i in range(4)])
    finally:
        pool.close()  # idempotent after the failure teardown


def test_study_run_fails_loudly_with_no_partial_silent_result():
    study = _toy_study()
    with WorkerPool(workers=2) as pool:
        with pytest.raises(WorkerPoolError):
            study.run(_explode, budget=8, batch=4, pool=pool)
    # the failing batch's trials were never silently completed
    assert study.completed_trials() == []


def test_study_run_with_pool_matches_serial_run():
    serial = _toy_study(seed=11).run(_quadratic_loss, budget=12, batch=4)
    with WorkerPool(workers=3) as pool:
        parallel = _toy_study(seed=11).run(_quadratic_loss, budget=12,
                                           batch=4, pool=pool)
    assert ([t.parameters for t in serial.trials]
            == [t.parameters for t in parallel.trials])
    assert ([t.metrics for t in serial.completed_trials()]
            == [t.metrics for t in parallel.completed_trials()])


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)
