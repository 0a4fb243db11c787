"""DSE tests: Pareto utilities, study API, algorithms, the Fig. 7 space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    CACHE_SIZES,
    CFU_FAMILIES,
    Fig7Evaluator,
    MetricGoal,
    Parameter,
    ParameterSpace,
    RandomSearch,
    RegularizedEvolution,
    Study,
    TpeLite,
    dominates,
    hypervolume_2d,
    pareto_front,
    point_to_cpu_config,
    run_fig7,
    total_space_size,
    vexriscv_space,
)

points = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 100)), min_size=1, max_size=40
)


def test_dominates_basics():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (2, 2))
    assert not dominates((1, 2), (2, 1))
    assert not dominates((1, 1), (1, 1))


@given(pts=points)
def test_pareto_front_is_nondominated(pts):
    front = pareto_front(pts)
    for a in front:
        for b in front:
            assert not dominates(a, b) or a == b


@given(pts=points)
def test_every_point_dominated_by_front_or_on_it(pts):
    front = pareto_front(pts)
    for p in pts:
        assert p in front or any(dominates(f, p) for f in front)


@given(pts=points)
def test_front_sorted_by_first_objective(pts):
    front = pareto_front(pts)
    xs = [p[0] for p in front]
    assert xs == sorted(xs)


@given(pts=points, seed=st.integers(0, 2**16))
def test_pareto_front_is_order_invariant(pts, seed):
    import random

    shuffled = list(pts)
    random.Random(seed).shuffle(shuffled)
    assert sorted(pareto_front(pts)) == sorted(pareto_front(shuffled))


@given(pts=points)
def test_pareto_front_is_idempotent(pts):
    front = pareto_front(pts)
    assert pareto_front(front) == front


# --- cache key canonicalization ------------------------------------------------------

param_dicts = st.dictionaries(
    st.sampled_from(["icache", "dcache", "mul", "div", "shift", "bp"]),
    st.one_of(st.booleans(), st.integers(0, 1 << 17),
              st.sampled_from(["none", "iterative", "single_cycle"])),
    min_size=1, max_size=6,
)


@given(parameters=param_dicts, seed=st.integers(0, 2**16))
def test_cache_key_ignores_dict_insertion_order(parameters, seed):
    from repro.dse import cache_key

    import random

    names = list(parameters)
    random.Random(seed).shuffle(names)
    reordered = {name: parameters[name] for name in names}
    assert cache_key(parameters, "cfu1", model="m", board="b") \
        == cache_key(reordered, "cfu1", model="m", board="b")


@given(a=param_dicts, b=param_dicts)
def test_cache_key_distinct_configs_do_not_collide(a, b):
    import json

    from repro.dse import cache_key

    key_a = cache_key(a, "cfu1", model="m", board="b")
    key_b = cache_key(b, "cfu1", model="m", board="b")
    # canonical-JSON equality, not dict equality: JSON (and the key)
    # rightly distinguishes True from 1 where Python's == does not
    same = (json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))
    assert (key_a == key_b) == same


@given(parameters=param_dicts)
def test_cache_key_separates_families_models_and_boards(parameters):
    from repro.dse import cache_key

    keys = {
        cache_key(parameters, "cfu1", model="m", board="b"),
        cache_key(parameters, "cfu2", model="m", board="b"),
        cache_key(parameters, "cfu1", model="other", board="b"),
        cache_key(parameters, "cfu1", model="m", board="other"),
    }
    assert len(keys) == 4


def test_hypervolume_simple():
    front = [(1, 3), (2, 1)]
    # area: x in [1,2): y from 3 -> height 7; x in [2,10): height 9
    assert hypervolume_2d(front, reference=(10, 10)) == 7 + 72


def test_parameter_space_size_and_sampling():
    space = vexriscv_space()
    assert space.size() == 31_104
    assert total_space_size() == 93_312  # "approximately 93,000" (Sec III-C)
    import random

    point = space.sample(random.Random(0))
    space.validate(point)
    config = point_to_cpu_config(point)
    assert config.icache_bytes in CACHE_SIZES


def test_mutation_changes_one_knob():
    import random

    space = vexriscv_space()
    rng = random.Random(1)
    point = space.sample(rng)
    child = space.mutate(point, rng, num_mutations=1)
    diffs = [k for k in point if point[k] != child[k]]
    assert len(diffs) == 1


def test_grid_enumerates_small_space():
    space = ParameterSpace([
        Parameter("a", (1, 2, 3)),
        Parameter("b", ("x", "y")),
    ])
    assert len(list(space.grid())) == 6


def test_grid_is_lazy_and_order_stable():
    """grid() is a generator in C order (last parameter fastest).

    The order is load-bearing: the tensorized exhaustive sweep and the
    service's positional grid replay both map flat index k to the k-th
    yielded point.
    """
    import itertools

    space = ParameterSpace([
        Parameter("a", (1, 2, 3)),
        Parameter("b", ("x", "y")),
        Parameter("c", (False, True)),
    ])
    first = space.grid()
    assert iter(first) is first  # a generator, not a materialized list
    assert next(first) == {"a": 1, "b": "x", "c": False}
    expected = [dict(zip(("a", "b", "c"), combo))
                for combo in itertools.product((1, 2, 3), ("x", "y"),
                                               (False, True))]
    assert list(space.grid()) == expected
    assert list(space.grid()) == expected  # each call restarts

    full = vexriscv_space()
    head = list(itertools.islice(full.grid(), 3))
    assert head[0]["dcache_bytes"] == 0 and head[1]["dcache_bytes"] == 0
    assert [p["icache_ways"] for p in head] == [1, 2, 1]  # last knob fastest


def test_validate_rejects_bad_point():
    space = vexriscv_space()
    with pytest.raises(ValueError):
        space.validate({"bypassing": "maybe"})


# --- study API -----------------------------------------------------------------------

def _toy_space():
    return ParameterSpace([
        Parameter("x", tuple(range(16))),
        Parameter("y", tuple(range(16))),
    ])


def _toy_eval(params):
    # minimum at (12, 3)
    return {"loss": (params["x"] - 12) ** 2 + (params["y"] - 3) ** 2}


def test_study_run_and_best_trial():
    study = Study(_toy_space(), goals=["loss"], seed=3)
    study.run(_toy_eval, budget=60)
    best = study.best_trial()
    assert best.metrics["loss"] <= 25


def test_infeasible_trials_excluded():
    study = Study(_toy_space(), goals=["loss"], seed=4)

    def evaluate(params):
        if params["x"] > 8:
            return None  # "does not fit"
        return _toy_eval(params)

    study.run(evaluate, budget=40)
    assert all(t.parameters["x"] <= 8 for t in study.completed_trials())
    assert any(t.infeasible for t in study.trials)


def test_maximize_goal():
    study = Study(_toy_space(), goals=[MetricGoal("score", "maximize")], seed=5)
    study.run(lambda p: {"score": p["x"] + p["y"]}, budget=80)
    best = study.best_trial()
    assert best.metrics["score"] >= 24


@pytest.mark.parametrize("algorithm_cls", [RandomSearch, RegularizedEvolution,
                                           TpeLite])
def test_algorithms_make_progress(algorithm_cls):
    study = Study(_toy_space(), goals=["loss"], algorithm=algorithm_cls(),
                  seed=7)
    study.run(_toy_eval, budget=120)
    assert study.best_trial().metrics["loss"] <= 16


def test_adaptive_beats_random_on_average():
    def best_loss(algorithm, seed):
        study = Study(_toy_space(), goals=["loss"], algorithm=algorithm,
                      seed=seed)
        study.run(_toy_eval, budget=90)
        return study.best_trial().metrics["loss"]

    random_scores = [best_loss(RandomSearch(), s) for s in range(5)]
    evo_scores = [best_loss(RegularizedEvolution(warmup=15), s)
                  for s in range(5)]
    assert sum(evo_scores) <= sum(random_scores)


def test_multiobjective_front():
    study = Study(_toy_space(), goals=["a", "b"], seed=9)
    study.run(lambda p: {"a": p["x"], "b": 15 - p["x"] + p["y"] * 0}, budget=64)
    front = study.optimal_trials()
    assert front
    metrics = [study.metric_tuple(t) for t in front]
    assert metrics == pareto_front(metrics)


# --- Fig. 7 runner ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig7_result():
    return run_fig7(trials_per_family=30, seed=2)


def test_fig7_covers_all_families(fig7_result):
    for family in CFU_FAMILIES:
        assert fig7_result.family_points(family)


def test_fig7_cfu_dominates_low_latency(fig7_result):
    """'CFU designs can create a richer design space': the fastest design
    overall must be CFU-equipped."""
    fastest = min(fig7_result.points, key=lambda p: p.cycles)
    assert fastest.family in ("cfu1", "cfu2")


def test_fig7_cpu_alone_is_cheapest(fig7_result):
    smallest = min(fig7_result.points, key=lambda p: p.logic_cells)
    assert smallest.family == "none"


def test_fig7_fronts_are_nondominated(fig7_result):
    for family in CFU_FAMILIES:
        front = fig7_result.family_front(family)
        metrics = [p.metrics for p in front]
        assert metrics == pareto_front(metrics)


def test_fig7_evaluator_caches():
    evaluator = Fig7Evaluator()
    space = vexriscv_space()
    import random

    point = space.sample(random.Random(0))
    first = evaluator.evaluate(point, "none")
    second = evaluator.evaluate(point, "none")
    assert first is second


# --- CFU latency characterization --------------------------------------------

def test_characterize_cfu_envelope():
    from repro.accel.library import LIBRARY
    from repro.dse.characterize import OPERAND_CLASSES, characterize_cfu

    _, rtl_cls, opcodes = LIBRARY["popcount"]
    envelope = characterize_cfu(rtl_cls(), opcodes, ops=6, seed=1)
    assert envelope.lanes == len(opcodes) * len(OPERAND_CLASSES)
    assert len(envelope.profiles) == envelope.lanes
    for profile in envelope.profiles:
        assert profile.ops == 6
        assert 0 < profile.min_cycles <= profile.mean_cycles \
            <= profile.max_cycles
    # Reproducible: same seed, same envelope record.
    again = characterize_cfu(rtl_cls(), opcodes, ops=6, seed=1)
    assert again.to_record() == envelope.to_record()


#: ``(funct3, funct7, operand class, min, max, total cycles)`` per
#: (opcode, class) pair at ``ops=6, seed=1``, recorded from the
#: lane-parallel backend before the scalar adapter took over.
_ALL_CLASSES = ("zeros", "ones", "alternating", "small", "signed-extremes",
                "random")
PINNED_ENVELOPES = {
    "kws-cfu2": [(f3, f7, name, 1, 1, 6)
                 for f3, f7 in ((1, 0), (1, 1), (2, 0), (3, 0), (4, 0))
                 for name in _ALL_CLASSES],
    "mnv2-cfu1": [(6, f7, name, cycles, cycles, 6 * cycles)
                  for f7, cycles in ((0, 7), (1, 7), (2, 22))
                  for name in _ALL_CLASSES],
}


@pytest.mark.parametrize("name", sorted(PINNED_ENVELOPES))
def test_characterize_envelope_is_pinned(name):
    from repro.dse.characterize import characterization_targets, \
        characterize_cfu

    target = characterization_targets()[name]
    envelope = characterize_cfu(target.factory(), target.opcodes, ops=6,
                                seed=1, setup=target.setup)
    assert [(p.funct3, p.funct7, p.operand_class, p.min_cycles,
             p.max_cycles, p.total_cycles)
            for p in envelope.profiles] == PINNED_ENVELOPES[name]
    record = envelope.to_record()
    assert (record["cfu"], record["lanes"], record["ops_per_lane"],
            record["data_dependent"]) == (name, len(envelope.profiles), 6,
                                          False)
