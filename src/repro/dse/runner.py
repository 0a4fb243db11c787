"""The Fig. 7 experiment: automated DSE of CPU + CFU configurations.

Three CFU families are explored over the same VexRiscv space on the
MobileNetV2 workload:

- ``"none"``  — the CPU alone (green curve);
- ``"cfu1"``  — the large MNV2 CFU from Section III-A (blue curve);
- ``"cfu2"``  — the small KWS SIMD CFU from Section III-B (red curve).

Latency comes from the cycle estimator (the Verilator stand-in), and
resources from the netlist estimator (the yosys stand-in), exactly the
two oracles the paper wires into Vizier.  The total space is
3 x 31,104 = 93,312 points ("approximately 93,000").

Each family is one study on an in-memory
:class:`~repro.dse.service.DseService`, whose determinism barrier
suggests trials in fixed-size rounds.  A round is served from a
content-addressed :class:`~repro.dse.cache.EvaluationCache` when warm,
and its cache misses are sharded across a
:class:`~repro.dse.pool.WorkerPool`.  The round size is deliberately
independent of the worker count, so the same seed produces the same
Pareto fronts whether the run is serial, parallel, or served to remote
workers.  Every trial is recorded as a span (family, cache-hit flag,
fit outcome) on a :class:`~repro.core.telemetry.Telemetry`, and
:func:`trace_summary` renders a run's cache hit rate and fit rejects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

from ..accel.kws.resources import cfu2_resources
from ..accel.mnv2.resources import stage_resources
from ..boards import ARTY_A7_35T, fit
from ..core.telemetry import Telemetry
from ..kernels.conv1x1 import OverlapInput
from ..kernels.kws import kws_variants
from ..kernels.reference import reference_variants
from ..models import load
from ..perf.estimator import estimate_inference
from ..soc import Soc
from .cache import MISS, EvaluationCache, cache_key
from .pareto import pareto_front
from .space import point_to_cpu_config, vexriscv_space

CFU_FAMILIES = ("none", "cfu1", "cfu2")

# Opt-in fourth family: the Winograd F(2x2,3x3) CFU.  Kept out of
# CFU_FAMILIES so the paper's 93,312-point space (and every recorded
# study) is unchanged; sweeps pass this tuple explicitly to place the
# Winograd ladder on the same axes as the stock curves.
ALL_CFU_FAMILIES = CFU_FAMILIES + ("winograd",)

#: Study owner used by the Fig. 7 reproduction studies.
FIG7_OWNER = "fig7"


def family_extras(family):
    """(extra kernel variants, CFU resource report) per family."""
    if family == "none":
        from ..rtl.synth import ResourceReport

        return (), ResourceReport()
    if family == "cfu1":
        return (OverlapInput(),), stage_resources("overlap_input")
    if family == "cfu2":
        return tuple(kws_variants(postproc=True, specialized=True)), \
            cfu2_resources()
    if family == "winograd":
        from ..accel.winograd.resources import winograd_resources
        from ..kernels.winograd import winograd_variants

        return tuple(winograd_variants()), winograd_resources()
    raise KeyError(f"unknown CFU family {family!r}")


@dataclass
class DsePoint:
    family: str
    parameters: dict
    cycles: float
    logic_cells: int

    @property
    def metrics(self):
        return (self.cycles, self.logic_cells)

    def key(self):
        """Value identity: the configuration, not the object.  Two
        evaluations of one config — possibly in different processes, or
        round-tripped through the persistent cache — share a key."""
        return (self.family, tuple(sorted(self.parameters.items())))

    def to_record(self):
        return {"family": self.family, "parameters": dict(self.parameters),
                "cycles": self.cycles, "logic_cells": self.logic_cells}

    @classmethod
    def from_record(cls, record):
        return cls(family=record["family"],
                   parameters=dict(record["parameters"]),
                   cycles=float(record["cycles"]),
                   logic_cells=int(record["logic_cells"]))


@dataclass
class EvalOutcome:
    """One evaluation as seen by the engine: the point (or None for "no
    fit"), whether the cache served it, and how long it took."""

    point: object
    cache_hit: bool
    seconds: float = 0.0

    def completion(self):
        """The outcome's completion fields, as the study service takes
        them."""
        point = self.point
        return {"metrics": None if point is None else {
                    "cycles": point.cycles, "logic_cells": point.logic_cells},
                "infeasible": point is None, "cache_hit": self.cache_hit,
                "seconds": self.seconds}


@dataclass
class DseResult:
    points: list = field(default_factory=list)
    _keys: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        self._keys = {p.key() for p in self.points}

    def add(self, point):
        """Record ``point`` unless an equal-valued point is present.

        Dedup is by value, not ``id()``: points that round-trip through
        worker processes or the persistent cache come back as distinct
        objects that must still count once.
        """
        key = point.key()
        if key not in self._keys:
            self._keys.add(key)
            self.points.append(point)
        return self

    def family_points(self, family):
        return [p for p in self.points if p.family == family]

    def family_front(self, family):
        # Distinct configurations may share identical metrics (e.g. cache
        # ways with no cache); keep one representative per metric point.
        # The representative is chosen by value (smallest config key),
        # never by insertion order — service runs complete trials in a
        # worker-dependent order, and the front must not depend on it.
        unique = {}
        for point in self.family_points(family):
            existing = unique.get(point.metrics)
            if existing is None or point.key() < existing.key():
                unique[point.metrics] = point
        return pareto_front(list(unique.values()), key=lambda p: p.metrics)

    def overall_front(self):
        return pareto_front(self.points, key=lambda p: p.metrics)

    def to_records(self):
        """Wire/disk form: one plain-JSON record per point, in insertion
        order.  Round-trips through :meth:`from_records` by value."""
        return [p.to_record() for p in self.points]

    @classmethod
    def from_records(cls, records):
        """Rebuild from :meth:`to_records` output (e.g. fetched from the
        study service).  Dedup is by value — records that name the same
        configuration twice count once, exactly like :meth:`add`."""
        result = cls()
        for record in records:
            result.add(DsePoint.from_record(record))
        return result

    def summary(self):
        lines = []
        overall = {p.key() for p in self.overall_front()}
        for family in CFU_FAMILIES:
            front = self.family_front(family)
            lines.append(f"{family}: {len(self.family_points(family))} evaluated, "
                         f"{len(front)} Pareto-optimal")
            for p in front:
                star = " *" if p.key() in overall else ""
                lines.append(
                    f"  {p.cycles:>14,.0f} cyc  {p.logic_cells:>6} cells{star}"
                )
        return "\n".join(lines)


def evaluate_design(model, board, parameters, family):
    """Evaluate one (cpu point, family) to a DsePoint; None = no fit.

    Pure function of its arguments — safe to run in worker processes.
    """
    cpu = point_to_cpu_config(parameters)
    extras, cfu_resources = family_extras(family)
    soc = Soc(board, cpu)
    fit_result = fit(board, soc.resources(), cfu_resources)
    if not fit_result.ok:
        return None
    variants = reference_variants().extended(*extras)
    estimate = estimate_inference(model, soc.system_config(), variants)
    return DsePoint(
        family=family,
        parameters=dict(parameters),
        cycles=estimate.total_cycles,
        logic_cells=fit_result.usage.logic_cells,
    )


# Per-worker-process state, seeded once by the pool initializer (cheap
# under fork: the objects are inherited, not pickled).
_WORKER_STATE = {}


def _init_fig7_worker(model, board):
    _WORKER_STATE["model"] = model
    _WORKER_STATE["board"] = board


def _fig7_worker_evaluate(task):
    parameters, family = task
    start = time.monotonic()
    point = evaluate_design(_WORKER_STATE["model"], _WORKER_STATE["board"],
                            parameters, family)
    return point, time.monotonic() - start


class Fig7Evaluator:
    """Evaluates one (cpu point, family) to (cycles, cells); None = no fit.

    Backed by an :class:`EvaluationCache` (in-memory by default, or a
    persistent directory) and a :class:`Telemetry` that counts cache
    hits/misses (``dse_cache_hits``/``dse_cache_misses``) and fit
    rejections (``dse_fit_rejects``).
    """

    def __init__(self, model=None, board=ARTY_A7_35T, cache=None,
                 telemetry=None):
        self.model = model or load("mobilenet_v2", width_multiplier=0.75,
                                   num_classes=100)
        self.board = board
        self.cache = cache if cache is not None else EvaluationCache()
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    def cache_key(self, parameters, family):
        return cache_key(parameters, family,
                         model=getattr(self.model, "name", None),
                         board=self.board.name)

    def evaluate(self, parameters, family):
        return self.evaluate_batch([(parameters, family)])[0].point

    def evaluate_batch(self, tasks, pool=None):
        """Evaluate ``[(parameters, family), ...]``; cache hits are
        served in-process, misses shard across ``pool`` (or run inline
        when ``pool`` is None).  Returns one :class:`EvalOutcome` per
        task, in task order."""
        outcomes = [None] * len(tasks)
        pending = {}  # key -> indices awaiting that evaluation
        for index, (parameters, family) in enumerate(tasks):
            key = self.cache_key(parameters, family)
            cached = self.cache.get(key)
            if cached is not MISS or key in pending:
                # warm cache, or a duplicate of an earlier miss in this
                # same batch: either way no new evaluation is spent
                if cached is not MISS:
                    self.telemetry.counter("dse_cache_hits").inc()
                    outcomes[index] = EvalOutcome(point=cached, cache_hit=True)
                else:
                    pending[key].append(index)
            else:
                pending[key] = [index]
        if pending:
            keys = list(pending)
            jobs = [tasks[pending[key][0]] for key in keys]
            if pool is not None:
                results = pool.map(_fig7_worker_evaluate, jobs)
            else:
                results = [self._timed_evaluate(parameters, family)
                           for parameters, family in jobs]
            for key, (point, seconds) in zip(keys, results):
                self.cache.put(key, point)
                indices = pending[key]
                self.telemetry.counter("dse_cache_misses").inc()
                if point is None:
                    self.telemetry.counter("dse_fit_rejects").inc()
                outcomes[indices[0]] = EvalOutcome(point=point,
                                                   cache_hit=False,
                                                   seconds=seconds)
                for index in indices[1:]:  # in-batch duplicates
                    self.telemetry.counter("dse_cache_hits").inc()
                    outcomes[index] = EvalOutcome(point=point, cache_hit=True)
        return outcomes

    def _timed_evaluate(self, parameters, family):
        start = time.monotonic()
        point = evaluate_design(self.model, self.board, parameters, family)
        return point, time.monotonic() - start


def fig7_study_configs(trials_per_family, seed=0, batch=None,
                       owner=FIG7_OWNER, prefix=""):
    """The three Fig. 7 study configs (one per CFU family)."""
    from .service import DEFAULT_BATCH

    batch = DEFAULT_BATCH if batch is None else batch
    return [
        {
            "owner": owner,
            "study_id": f"{prefix}fig7-{family}",
            "family": family,
            "space": "vexriscv",
            "goals": ["cycles", "logic_cells"],
            "algorithm": "regularized_evolution",
            "seed": seed,
            "budget": trials_per_family,
            "batch": batch,
        }
        for family in CFU_FAMILIES
    ]


def run_fig7(trials_per_family=120, seed=0, evaluator=None, workers=1,
             batch=None, cache_dir=None, telemetry=None):
    """Run the three studies and return a :class:`DseResult`.

    The :func:`fig7_study_configs` studies run on an in-memory
    :class:`~repro.dse.service.DseService` (no store, no HTTP, leases
    that never expire), each driven to its end by
    :meth:`~repro.dse.service.ServiceStudy.run`.  ``workers`` shards
    each round's cache misses across processes; ``batch`` (default
    :data:`~repro.dse.service.DEFAULT_BATCH`) is fixed independently of
    ``workers`` so the same seed yields identical Pareto fronts serial
    or parallel.  ``cache_dir`` persists evaluations across runs — a
    warm rerun performs zero fresh evaluations.  ``telemetry`` (or the
    evaluator's own) collects per-trial spans, per-family progress
    events, and cache/fit counters.
    """
    from .pool import WorkerPool
    from .service import DseService

    if evaluator is None:
        telemetry = telemetry if telemetry is not None else Telemetry()
        evaluator = Fig7Evaluator(cache=EvaluationCache(cache_dir),
                                  telemetry=telemetry)
    else:
        if cache_dir is not None:
            evaluator.cache = EvaluationCache(cache_dir)
        if telemetry is not None:
            evaluator.telemetry = telemetry  # one object owns the whole run
        else:
            telemetry = evaluator.telemetry
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    service = DseService(lease_seconds=math.inf)
    studies = [service.create_study(config) for config in
               fig7_study_configs(trials_per_family, seed=seed, batch=batch)]
    pool = None
    if workers > 1:
        pool = WorkerPool(workers, initializer=_init_fig7_worker,
                          initargs=(evaluator.model, evaluator.board))
    result = DseResult()

    def evaluate_round(study, records):
        family = study.config["family"]
        outcomes = evaluator.evaluate_batch(
            [(record.parameters, family) for record in records], pool=pool)
        completions = []
        for record, outcome in zip(records, outcomes):
            point = outcome.point
            telemetry.record_span(
                "trial", outcome.seconds, study=study.study_id,
                trial=record.trial_id, family=family,
                cache_hit=outcome.cache_hit, fit=point is not None,
            )
            completions.append({"trial_id": record.trial_id,
                                "lease_token": record.lease_token,
                                **outcome.completion()})
            if point is not None:
                result.add(point)  # revisited configs count once
        telemetry.event("progress", family=family,
                        completed=study.completed_count() + len(records),
                        budget=trials_per_family)
        return completions

    try:
        for study in studies:
            family = study.config["family"]
            telemetry.event("family_start", family=family,
                            budget=trials_per_family)
            study.run(partial(evaluate_round, study))
            telemetry.event("family_done", family=family,
                            evaluated=len(result.family_points(family)),
                            front=len(result.family_front(family)))
    finally:
        if pool is not None:
            pool.close()
    return result


def trace_summary(telemetry):
    """The human summary of a Fig. 7 run's telemetry: span and event
    counts, the evaluation cache's hit rate, fit rejects and busy span
    time."""
    def total(name):
        return sum(s.value for s in telemetry.series() if s.name == name)

    hits, misses = total("dse_cache_hits"), total("dse_cache_misses")
    lookups = hits + misses
    rate = 100.0 * hits / lookups if lookups else 0.0
    busy = sum(span.duration for span in telemetry.spans)
    return "\n".join([
        f"trace: {len(telemetry.spans)} spans, {len(telemetry.events)} events",
        f"cache: {hits} hits / {misses} misses ({rate:.1f}% hit rate)",
        f"fit rejects: {total('dse_fit_rejects')}",
        f"span time: {busy:.3f}s over {telemetry.now():.3f}s elapsed",
    ])


def total_space_size():
    return len(CFU_FAMILIES) * vexriscv_space().size()
