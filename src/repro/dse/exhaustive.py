"""Tensorized whole-space DSE: exact Fig. 7 fronts by direct enumeration.

The paper explores its ~93,000-point space with a black-box optimizer
because each point looks expensive.  In this reproduction both Fig. 7
objectives are closed-form in the CPU-config axes — cycles from the
analytic cost model, logic cells from the netlist estimator — so the
*whole* cartesian grid can be evaluated at once:

- :class:`GridTensors` maps a :class:`~repro.dse.space.ParameterSpace`
  onto the flat C-order grid (the same order as
  ``ParameterSpace.grid()``) and spreads a table over a few axes onto
  the grid's shape; no per-point dicts or index arrays exist anywhere.
- :class:`~repro.perf.vectorized.BatchCostModel` replays the captured
  cost trace over the 3,888-combo cost-relevant sub-grid
  (``hw_error_checking`` and ``icache_ways`` affect only resources, an
  8x reduction of the cycle plane), and that table is broadcast onto
  the full grid.
- :class:`VectorizedFit` evaluates ``cpu_resources`` + board ``fit()``
  as sums of per-option contributions probed from the real functions
  (the 192-combo core and the icache and dcache deltas), broadcast onto
  the grid, yielding a fit *mask* instead of per-point exceptions.
- :func:`pareto_front_indices` extracts the exact front in O(n log n).

Each plane is written once, as a flat C-order array over the whole
grid; the sweep otherwise holds only those small per-axis tables.
Every per-point (cycles, logic_cells, fit) triple is bit-identical to
the scalar :func:`~repro.dse.runner.evaluate_design`, which stays
untouched as the reference oracle.  :func:`run_exhaustive_service`
streams the precomputed results through the study service's trial store
in chunked batches (algorithm ``"exhaustive"``), so an exact sweep is
recorded, resumable, and queryable like any other study.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..boards import ARTY_A7_35T
from ..boards.fitter import UTILIZATION_LIMIT
from ..cpu.vexriscv import VexRiscvConfig, cpu_resources
from ..kernels.reference import reference_variants
from ..models import load
from ..perf.vectorized import COST_AXES, BatchCostModel
from ..soc import Soc
from .pareto import hypervolume_2d
from .runner import CFU_FAMILIES, DsePoint, evaluate_design, family_extras
from .space import vexriscv_space

#: Default number of trials streamed per service completion batch.
DEFAULT_CHUNK = 4096

#: Axes that feed the core (cache-independent) part of cpu_resources.
_CORE_AXES = ("bypassing", "branch_prediction", "multiplier", "divider",
              "shifter", "hw_error_checking")
_ICACHE_AXES = ("icache_bytes", "icache_ways")
_DCACHE_AXES = ("dcache_bytes",)


@dataclass
class GridTensors:
    """A ParameterSpace as a flat C-order grid.

    Flat index ``k`` corresponds to the ``k``-th point of
    ``space.grid()`` (C order, last parameter fastest).  Nothing here
    is per point: :meth:`spread` lays a table over a few axes onto the
    grid's shape, and :meth:`flat` writes the flat plane once.
    """

    names: tuple
    values: tuple
    shape: tuple
    size: int

    @classmethod
    def from_space(cls, space):
        names = tuple(p.name for p in space.parameters)
        values = tuple(tuple(p.values) for p in space.parameters)
        shape = tuple(len(v) for v in values)
        return cls(names=names, values=values, shape=shape,
                   size=math.prod(shape))

    def _extent(self, name):
        return len(self.values[self.names.index(name)])

    def axis_subgrid(self, axis_names):
        """Index arrays enumerating just ``axis_names``' own grid."""
        shape = tuple(self._extent(name) for name in axis_names)
        size = math.prod(shape)
        unravel = np.unravel_index(np.arange(size), shape)
        return {name: axis.astype(np.intp)
                for name, axis in zip(axis_names, unravel)}, size

    def spread(self, table, axis_names):
        """``table`` as an array that broadcasts onto the grid's shape.

        ``table`` is flat in C order over ``axis_names``' own grid (the
        order :meth:`axis_subgrid` enumerates).  Its axes are transposed
        to the order in which the space declares them, and every other
        axis gets extent 1.
        """
        positions = [self.names.index(name) for name in axis_names]
        table = np.reshape(table, [self.shape[p] for p in positions])
        table = table.transpose(np.argsort(positions))
        shape = [1] * len(self.shape)
        for position in positions:
            shape[position] = self.shape[position]
        return table.reshape(shape)

    def flat(self, array):
        """A flat C-order plane of an array that broadcasts onto the
        grid's shape; a C-contiguous full-shape array comes back as a
        view."""
        if array.shape != self.shape:
            array = np.broadcast_to(array, self.shape).copy()
        return array.reshape(-1)

    def point(self, flat_index):
        """The parameter dict at a flat grid index."""
        out = {}
        remaining = int(flat_index)
        for name, vals in zip(reversed(self.names), reversed(self.values)):
            out[name] = vals[remaining % len(vals)]
            remaining //= len(vals)
        return {name: out[name] for name in self.names}

    def flat_index(self, parameters):
        """The flat grid index of a parameter dict."""
        flat = 0
        for name, vals in zip(self.names, self.values):
            flat = flat * len(vals) + vals.index(parameters[name])
        return flat


def pareto_front_indices(cycles, cells, feasible=None):
    """Indices of the exact Pareto front, (cycles, cells)-ascending.

    Sort by (cycles, cells) and run the skyline scan per cycles-group:
    a point survives iff its cell count equals its group's minimum and
    that minimum strictly undercuts every earlier (faster) group — the
    same contract as the scalar :func:`~repro.dse.pareto.pareto_front`,
    which keeps *all* non-dominated metric ties.  Axes that affect
    neither metric produce exactly such ties on the full grid, and
    dropping them silently would hide design points from the front
    (:meth:`~repro.dse.runner.DseResult.family_front` may still collapse
    ties downstream; this function must not).  O(n log n).
    """
    cycles = np.asarray(cycles)
    cells = np.asarray(cells)
    idx = (np.flatnonzero(feasible) if feasible is not None
           else np.arange(len(cycles)))
    if idx.size == 0:
        return idx
    order = np.lexsort((cells[idx], cycles[idx]))
    idx = idx[order]
    sorted_cycles = cycles[idx]
    sorted_cells = cells[idx]
    positions = np.arange(idx.size)
    new_group = np.empty(idx.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_cycles[1:] != sorted_cycles[:-1]
    start = np.maximum.accumulate(np.where(new_group, positions, 0))
    group_min = sorted_cells[start]    # cells tie-breaks the lexsort
    running_min = np.minimum.accumulate(sorted_cells)
    keep = sorted_cells == group_min
    later = start > 0                  # groups with a strictly faster one
    keep[later] &= group_min[later] < running_min[start[later] - 1]
    return idx[keep]


class VectorizedFit:
    """``cpu_resources`` + board ``fit()`` over a whole grid at once.

    Per-option contributions are probed from the real
    :func:`~repro.cpu.vexriscv.cpu_resources`: the cache-independent
    core is enumerated exactly (its ``ffs = luts // 3`` coupling is not
    separable), and each cache axis contributes an additive delta.  The
    probes keep the vectorized plane automatically in sync with the
    scalar coefficients; structural drift (a cache option that changed
    ffs or dsps) fails loudly at construction.  Only these tables are
    kept; :meth:`evaluate` broadcasts them onto the grid.
    """

    def __init__(self, board, grid):
        self.board = board
        self.grid = grid
        values = dict(zip(grid.names, grid.values))

        core_combos = list(itertools.product(
            *(values[a] for a in _CORE_AXES)))
        core = [cpu_resources(VexRiscvConfig(
                    **dict(zip(_CORE_AXES, combo)),
                    icache_bytes=0, dcache_bytes=0))
                for combo in core_combos]
        self._core_luts = np.array([r.luts for r in core], dtype=np.int64)
        self._core_ffs = np.array([r.ffs for r in core], dtype=np.int64)
        self._core_dsps = np.array([r.dsps for r in core], dtype=np.int64)
        self._core_bram = np.array([r.bram_bits for r in core],
                                   dtype=np.int64)

        anchor = cpu_resources(VexRiscvConfig(icache_bytes=0, dcache_bytes=0))
        self._icache_dluts, self._icache_dbram = self._cache_deltas(
            anchor, _ICACHE_AXES, values,
            lambda size, ways: VexRiscvConfig(icache_bytes=size,
                                              icache_ways=ways,
                                              dcache_bytes=0))
        self._dcache_dluts, self._dcache_dbram = self._cache_deltas(
            anchor, _DCACHE_AXES, values,
            lambda size: VexRiscvConfig(icache_bytes=0, dcache_bytes=size))

        #: Board-constant SoC fabric (peripherals, CSR bank, interconnect,
        #: flash controller): everything in Soc.resources() except the CPU.
        anchor_cpu = VexRiscvConfig()
        soc = Soc(board, anchor_cpu).resources()
        cpu = cpu_resources(anchor_cpu)
        self._fabric = (soc.luts - cpu.luts, soc.ffs - cpu.ffs,
                        soc.dsps - cpu.dsps, soc.bram_bits - cpu.bram_bits)

    @staticmethod
    def _cache_deltas(anchor, axes, values, make_config):
        dluts, dbram = [], []
        for combo in itertools.product(*(values[a] for a in axes)):
            report = cpu_resources(make_config(*combo))
            if report.ffs != anchor.ffs or report.dsps != anchor.dsps:
                raise AssertionError(
                    "cache options changed ffs/dsps; the additive "
                    "decomposition in VectorizedFit no longer holds")
            dluts.append(report.luts - anchor.luts)
            dbram.append(report.bram_bits - anchor.bram_bits)
        return (np.array(dluts, dtype=np.int64),
                np.array(dbram, dtype=np.int64))

    def evaluate(self, cfu_report):
        """(logic_cells, fit_ok) flat planes for the grid + one CFU report."""
        grid = self.grid
        fabric_luts, fabric_ffs, fabric_dsps, fabric_bram = self._fabric

        def core(table, const):
            return grid.spread(table + const, _CORE_AXES)

        def caches(icache, dcache):
            return (grid.spread(icache, _ICACHE_AXES)
                    + grid.spread(dcache, _DCACHE_AXES))

        luts = (core(self._core_luts, fabric_luts + cfu_report.luts)
                + caches(self._icache_dluts, self._dcache_dluts))
        ffs = core(self._core_ffs, fabric_ffs + cfu_report.ffs)
        dsps = core(self._core_dsps, fabric_dsps + cfu_report.dsps)
        bram = (core(self._core_bram, fabric_bram + cfu_report.bram_bits)
                + caches(self._icache_dbram, self._dcache_dbram))

        paired = np.minimum(luts, ffs)
        logic_cells = np.maximum(luts, ffs) + paired // 4
        board = self.board
        fit_ok = ~((logic_cells > UTILIZATION_LIMIT * board.logic_cells)
                   | (dsps > board.dsp_blocks)
                   | (bram > board.bram_bits))
        return grid.flat(logic_cells), grid.flat(fit_ok)


@dataclass
class FamilyPlane:
    """One CFU family's whole-space evaluation as flat arrays."""

    family: str
    cycles: np.ndarray       # (N,) float64 — estimate_inference totals
    logic_cells: np.ndarray  # (N,) int64 — fitted usage incl. the CFU
    fit_ok: np.ndarray       # (N,) bool — the board fit mask
    front_indices: np.ndarray

    @property
    def feasible_count(self):
        return int(self.fit_ok.sum())

    def front_metrics(self):
        return [(float(self.cycles[i]), int(self.logic_cells[i]))
                for i in self.front_indices]


class ExhaustiveSweeper:
    """Evaluates every point of the space for any CFU family."""

    def __init__(self, model=None, board=None, space=None):
        self.model = model or load("mobilenet_v2", width_multiplier=0.75,
                                   num_classes=100)
        self.board = board or ARTY_A7_35T
        self.space = space or vexriscv_space()
        self.grid = GridTensors.from_space(self.space)
        required = set(COST_AXES) | set(_CORE_AXES) | set(_ICACHE_AXES) \
            | set(_DCACHE_AXES)
        missing = required - set(self.grid.names)
        if missing:
            raise ValueError(f"space is missing parameters {sorted(missing)}")
        # The memory map, placement and clock depend only on the board;
        # the per-point CPU is swapped in by the batch cost model.
        self._system = Soc(self.board, VexRiscvConfig()).system_config()
        self._fit = VectorizedFit(self.board, self.grid)
        self._planes = {}

    def family_plane(self, family):
        """The :class:`FamilyPlane` for one CFU family (cached)."""
        if family not in self._planes:
            extras, cfu_report = family_extras(family)
            variants = reference_variants().extended(*extras)
            axis_values = {
                axis: self.grid.values[self.grid.names.index(axis)]
                for axis in COST_AXES
            }
            batch = BatchCostModel(self.model, self._system, axis_values,
                                   variants=variants)
            cost_indices, _ = self.grid.axis_subgrid(COST_AXES)
            cycles = self.grid.flat(self.grid.spread(
                batch.cycles(cost_indices), COST_AXES))
            logic_cells, fit_ok = self._fit.evaluate(cfu_report)
            front = pareto_front_indices(cycles, logic_cells, fit_ok)
            self._planes[family] = FamilyPlane(
                family=family, cycles=cycles, logic_cells=logic_cells,
                fit_ok=fit_ok, front_indices=front)
        return self._planes[family]

    def front_points(self, family):
        """The exact front as :class:`DsePoint`s, cycles-ascending."""
        plane = self.family_plane(family)
        return [DsePoint(family=family,
                         parameters=self.grid.point(i),
                         cycles=float(plane.cycles[i]),
                         logic_cells=int(plane.logic_cells[i]))
                for i in plane.front_indices]

    def evaluate_points(self, parameters_list, family):
        """Vector-evaluate arbitrary points (the test/bench crosscheck)."""
        plane = self.family_plane(family)
        flat = np.array([self.grid.flat_index(p) for p in parameters_list],
                        dtype=np.intp)
        return (plane.cycles[flat], plane.logic_cells[flat],
                plane.fit_ok[flat])


@dataclass
class ExhaustiveResult:
    """All requested family planes plus sweep bookkeeping."""

    sweeper: ExhaustiveSweeper
    planes: dict
    seconds: float = 0.0
    points_evaluated: int = 0

    @property
    def points_per_second(self):
        return self.points_evaluated / self.seconds if self.seconds else 0.0

    def front_points(self, family):
        return self.sweeper.front_points(family)

    def front_metrics(self, family):
        return self.planes[family].front_metrics()

    def summary(self):
        lines = [f"exhaustive sweep: {self.points_evaluated:,} points "
                 f"in {self.seconds:.2f}s "
                 f"({self.points_per_second:,.0f} points/sec)"]
        for family, plane in self.planes.items():
            lines.append(
                f"{family}: {plane.fit_ok.size:,} evaluated, "
                f"{plane.feasible_count:,} fit, "
                f"{len(plane.front_indices)} Pareto-optimal")
        return "\n".join(lines)


def sweep(model=None, board=None, families=CFU_FAMILIES, space=None,
          sweeper=None):
    """Evaluate the full space for every family; exact fronts included."""
    sweeper = sweeper or ExhaustiveSweeper(model=model, board=board,
                                           space=space)
    start = time.monotonic()
    planes = {family: sweeper.family_plane(family) for family in families}
    seconds = time.monotonic() - start
    return ExhaustiveResult(sweeper=sweeper, planes=planes, seconds=seconds,
                            points_evaluated=sweeper.grid.size * len(planes))


def search_regret(exact_metrics, search_metrics, reference=None):
    """Hypervolume regret of a search front vs the exact front.

    0.0 means the search recovered the exact front's hypervolume; 1.0
    means it captured none of it.  The reference point defaults to twice
    the componentwise maximum over both fronts, so every point counts.
    """
    exact_metrics = [tuple(m) for m in exact_metrics]
    search_metrics = [tuple(m) for m in search_metrics]
    if not exact_metrics:
        return 0.0
    if reference is None:
        everything = exact_metrics + search_metrics
        reference = (2.0 * max(m[0] for m in everything),
                     2.0 * max(m[1] for m in everything))
    exact_hv = hypervolume_2d(exact_metrics, reference)
    if exact_hv <= 0.0:
        return 0.0
    search_hv = hypervolume_2d(search_metrics, reference)
    return max(0.0, 1.0 - search_hv / exact_hv)


def scalar_reference_points(model, board, space, family):
    """Oracle enumeration via the scalar evaluate_design (small spaces).

    Returns ``{flat_index: DsePoint or None}`` in grid order — the
    ground truth the vectorized plane is compared against bit-for-bit.
    """
    return {index: evaluate_design(model, board, parameters, family)
            for index, parameters in enumerate(space.grid())}


def run_exhaustive_service(service, model=None, board=None,
                           families=CFU_FAMILIES, space=None, sweeper=None,
                           chunk=DEFAULT_CHUNK, owner="fig7-exhaustive",
                           worker_id="tensor-sweeper", study_prefix="exact"):
    """Stream a whole-space sweep through the study service's trial store.

    One study per family is created with the ``"exhaustive"`` (grid)
    algorithm; the vectorized planes are computed up front and then
    completed by :meth:`~repro.dse.service.ServiceStudy.run` in rounds
    of ``chunk`` trials, so the sweep is persisted, resumable after a
    crash, and its fronts are served by the standard pareto routes.
    Returns ``(ExhaustiveResult, [ServiceStudy, ...])``.
    """
    from .service import ServiceError, space_to_spec

    sweeper = sweeper or ExhaustiveSweeper(model=model, board=board,
                                           space=space)
    result = sweep(sweeper=sweeper, families=families)
    studies = []

    def complete_round(plane, records):
        completions = []
        for record in records:
            index = sweeper.grid.flat_index(record.parameters)
            item = {"trial_id": record.trial_id,
                    "lease_token": record.lease_token}
            if plane.fit_ok[index]:
                item["metrics"] = {
                    "cycles": float(plane.cycles[index]),
                    "logic_cells": int(plane.logic_cells[index]),
                }
            else:
                item["infeasible"] = True
            completions.append(item)
        return completions

    for family in families:
        study_id = f"{study_prefix}-{family}"
        config = {
            "owner": owner, "study_id": study_id,
            "budget": sweeper.grid.size, "algorithm": "exhaustive",
            "batch": int(chunk), "max_inflight": int(chunk),
            "family": family, "seed": 0,
            "space": space_to_spec(sweeper.space),
        }
        try:
            study = service.create_study(config)
        except ServiceError as error:
            if error.status != 409:
                raise
            study = service.get_study(owner, study_id)  # resume
        studies.append(study.run(partial(complete_round,
                                         result.planes[family]),
                                 worker_id=worker_id))
    return result, studies
