"""Cross-validation of the vectorized evaluation plane.

The batch cost model and the tensorized fit plane must be *bit-exact*
against the scalar oracle — ``estimate_inference`` and
``evaluate_design`` — on randomized samples from the full 31,104-point
space and exhaustively on a reduced space.  Equality is ``==`` on
floats, never ``pytest.approx``: the replay performs the identical
IEEE-754 operations, so any drift is a bug, not noise.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.boards import ARTY_A7_35T
from repro.cpu.vexriscv import VexRiscvConfig
from repro.dse import (
    GridTensors,
    Parameter,
    ParameterSpace,
    evaluate_design,
    pareto_front,
    pareto_front_indices,
    search_regret,
    vexriscv_space,
)
from repro.dse.exhaustive import ExhaustiveSweeper
from repro.dse.space import point_to_cpu_config
from repro.models import load
from repro.perf import COST_AXES, BatchCostModel, estimate_inference
from repro.soc import Soc

REDUCED_SPACE = ParameterSpace([
    Parameter("bypassing", (False, True)),
    Parameter("branch_prediction", ("none", "static", "dynamic_target")),
    Parameter("multiplier", ("none", "single_cycle")),
    Parameter("divider", ("none", "iterative")),
    Parameter("shifter", ("iterative", "barrel")),
    Parameter("hw_error_checking", (False, True)),
    Parameter("icache_bytes", (0, 32768)),
    Parameter("dcache_bytes", (0, 4096)),
    Parameter("icache_ways", (1, 2)),
])

#: REDUCED_SPACE declared in another order than COST_AXES and the
#: resource axes: icache_ways first, dcache_bytes before icache_bytes,
#: the core axes shuffled.
SHUFFLED_SPACE = ParameterSpace([REDUCED_SPACE[name] for name in (
    "icache_ways", "dcache_bytes", "shifter", "icache_bytes", "multiplier",
    "hw_error_checking", "branch_prediction", "divider", "bypassing")])


@pytest.fixture(scope="module")
def model():
    return load("mobilenet_v2", width_multiplier=0.75, num_classes=100)


@pytest.fixture(scope="module")
def full_space():
    return vexriscv_space()


@pytest.fixture(scope="module")
def batch_model(model, full_space):
    system = Soc(ARTY_A7_35T, VexRiscvConfig()).system_config()
    axis_values = {p.name: p.values for p in full_space
                   if p.name in COST_AXES}
    return BatchCostModel(model, system, axis_values)


@pytest.fixture(scope="module")
def reduced_sweeper(model):
    return ExhaustiveSweeper(model=model, space=REDUCED_SPACE)


def scalar_cycles(model, point):
    cpu = point_to_cpu_config(point)
    system = Soc(ARTY_A7_35T, cpu).system_config()
    return estimate_inference(model, system).total_cycles


def test_random_samples_bit_exact(model, full_space, batch_model):
    """Vectorized == scalar, exactly, on random full-space points."""
    rng = random.Random(20230412)
    points = [full_space.sample(rng) for _ in range(24)]
    batch = batch_model.cycles_for_points(points)
    for vectorized, point in zip(batch, points):
        assert vectorized == scalar_cycles(model, point)


def test_resource_only_axes_do_not_change_cycles(batch_model, full_space):
    """hw_error_checking / icache_ways are absent from the cost plane."""
    assert "hw_error_checking" not in COST_AXES
    assert "icache_ways" not in COST_AXES
    assert set(COST_AXES) < {p.name for p in full_space}


def test_mul_none_expansion_bit_exact(model, full_space, batch_model):
    """The software-multiply expansion replays exactly too."""
    rng = random.Random(7)
    base = [full_space.sample(rng) for _ in range(6)]
    points = [dict(p, multiplier=m) for p in base
              for m in ("none", "iterative", "single_cycle")]
    batch = batch_model.cycles_for_points(points)
    for vectorized, point in zip(batch, points):
        assert vectorized == scalar_cycles(model, point)


def assert_every_point_bit_exact(model, sweeper, space, families):
    points = list(space.grid())
    assert len(points) == space.size()
    for family in families:
        cycles, cells, fit_ok = sweeper.evaluate_points(points, family)
        for index, point in enumerate(points):
            scalar = evaluate_design(model, ARTY_A7_35T, point, family)
            if scalar is None:
                assert not fit_ok[index]
            else:
                assert fit_ok[index]
                assert cycles[index] == scalar.cycles
                assert cells[index] == scalar.logic_cells


def test_reduced_space_exhaustively_bit_exact(model, reduced_sweeper):
    """Every point of a fully-enumerable space, all three metrics."""
    assert_every_point_bit_exact(model, reduced_sweeper, REDUCED_SPACE,
                                 ("none", "cfu2"))


def test_shuffled_parameter_order_exhaustively_bit_exact(model):
    """A space declared out of grid order takes the transpose in
    ``GridTensors.spread``; every point still equals the scalar oracle."""
    sweeper = ExhaustiveSweeper(model=model, space=SHUFFLED_SPACE)
    assert_every_point_bit_exact(model, sweeper, SHUFFLED_SPACE,
                                 ("none", "cfu2"))


def test_reduced_space_front_matches_scalar_front(model, reduced_sweeper):
    """The tensorized front == the scalar front, as metric sets."""
    scalar_points = [p for p in (
        evaluate_design(model, ARTY_A7_35T, point, "none")
        for point in REDUCED_SPACE.grid()) if p is not None]
    scalar_front = {p.metrics for p in
                    pareto_front(scalar_points, key=lambda p: p.metrics)}
    plane = reduced_sweeper.family_plane("none")
    assert set(plane.front_metrics()) == scalar_front


def test_grid_tensors_roundtrip(full_space):
    grid = GridTensors.from_space(full_space)
    assert grid.size == full_space.size() == 31104
    # Each axis's value index spread onto the grid, and one table over
    # three axes named out of the order the space declares them in.
    per_axis = {name: grid.flat(grid.spread(np.arange(len(vals)), (name,)))
                for name, vals in zip(grid.names, grid.values)}
    axes = ("icache_ways", "dcache_bytes", "bypassing")
    subgrid, size = grid.axis_subgrid(axes)
    combined = grid.flat(grid.spread(np.arange(size), axes))
    rng = random.Random(3)
    for flat in [0, 1, grid.size - 1] + [rng.randrange(grid.size)
                                         for _ in range(20)]:
        point = grid.point(flat)
        assert grid.flat_index(point) == flat
        for name, vals in zip(grid.names, grid.values):
            assert vals[per_axis[name][flat]] == point[name]
        for name in axes:
            vals = grid.values[grid.names.index(name)]
            assert vals[subgrid[name][combined[flat]]] == point[name]


def test_grid_tensors_match_grid_order():
    """Flat index k IS the k-th point of ParameterSpace.grid()."""
    space = ParameterSpace([
        Parameter("a", (1, 2, 3)),
        Parameter("b", ("x", "y")),
        Parameter("c", (False, True)),
    ])
    grid = GridTensors.from_space(space)
    for flat, point in enumerate(space.grid()):
        assert grid.point(flat) == point
        assert grid.flat_index(point) == flat


def test_build_probes_each_distinct_entry_once(model, full_space,
                                               monkeypatch):
    """One build compiles each distinct ``(entry, code_section)`` of its
    canonical estimate once, and each finish once per
    ``(code_section, loop_footprint_bytes)``."""
    entries, finishes = Counter(), Counter()
    compile_entry = BatchCostModel._compile_entry
    compile_finish = BatchCostModel._compile_finish

    def count_entry(self, entry, code_section):
        entries[entry, code_section] += 1
        return compile_entry(self, entry, code_section)

    def count_finish(self, code_section, loop_footprint_bytes):
        finishes[code_section, loop_footprint_bytes] += 1
        return compile_finish(self, code_section, loop_footprint_bytes)

    monkeypatch.setattr(BatchCostModel, "_compile_entry", count_entry)
    monkeypatch.setattr(BatchCostModel, "_compile_finish", count_finish)
    system = Soc(ARTY_A7_35T, VexRiscvConfig()).system_config()
    axis_values = {p.name: p.values for p in full_space
                   if p.name in COST_AXES}
    estimate = BatchCostModel(model, system, axis_values).canonical_estimate
    units = [(cost.trace, cost.code_section, cost.loop_footprint_bytes)
             for cost in estimate.op_costs]
    units.append((estimate.overhead_trace, estimate.overhead_code_section,
                  estimate.overhead_loop_footprint_bytes))
    assert set(entries) == {(entry, section)
                            for trace, section, _ in units for entry in trace}
    assert set(finishes) == {(section, footprint)
                             for _, section, footprint in units}
    assert set(entries.values()) == set(finishes.values()) == {1}
    assert sum(len(trace) for trace, _, _ in units) > 2 * len(entries)


def test_pareto_front_indices_matches_reference():
    rng = random.Random(99)
    cycles = np.array([rng.randrange(100) for _ in range(400)], dtype=float)
    cells = np.array([rng.randrange(100) for _ in range(400)])
    feasible = np.array([rng.random() > 0.2 for _ in range(400)])
    idx = pareto_front_indices(cycles, cells, feasible)
    candidates = [(cycles[i], int(cells[i]))
                  for i in range(400) if feasible[i]]
    # Same contract as the scalar oracle: ALL non-dominated points,
    # metric ties included, sorted by the metric tuple.
    reference = pareto_front(candidates)
    assert [(cycles[i], int(cells[i])) for i in idx] == reference
    # front indices all feasible, cycles non-decreasing
    assert feasible[idx].all()
    assert (np.diff(cycles[idx]) >= 0).all()


def test_pareto_front_indices_keeps_metric_ties():
    """Duplicate-metrics repro from the tie-dropping bug: five points,
    five-point scalar front, and the vectorized scan must keep all of
    them — including both copies of each duplicated metric pair."""
    cycles = np.array([10.0, 10.0, 12.0, 12.0, 9.0])
    cells = np.array([5, 5, 4, 4, 9])
    idx = pareto_front_indices(cycles, cells)
    got = [(cycles[i], int(cells[i])) for i in idx]
    assert got == pareto_front(list(zip(cycles, cells)))
    assert len(idx) == 5
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


def test_pareto_front_indices_empty():
    assert len(pareto_front_indices(np.array([1.0]), np.array([1]),
                                    np.array([False]))) == 0


def test_search_regret_bounds():
    exact = [(1.0, 10), (2.0, 5), (4.0, 2)]
    assert search_regret(exact, exact) == 0.0
    partial = search_regret(exact, [(2.0, 5)])
    assert 0.0 < partial < 1.0
    assert search_regret(exact, []) == 1.0
    assert search_regret([], []) == 0.0
