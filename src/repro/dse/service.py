"""The DSE study service: an asyncio HTTP server over the Study engine.

The paper runs its ~93,000-point Fig. 7 exploration on OSS Vizier — a
long-running *service* with a study/trial wire API, not an in-process
loop.  This module is that shape for the reproduction:

- **Wire API** — ``POST /studies`` (create), ``POST .../suggest`` and
  ``POST /work`` (claim suggestion batches), ``POST
  .../trials/<id>/complete``, ``GET .../pareto`` and the chunked
  NDJSON ``GET .../pareto-stream``, study status/listing, and a
  ``GET /metrics`` snapshot of the shared
  :class:`~repro.core.telemetry.Telemetry`.

- **Lease protocol** — a claimed trial carries a lease token and a
  wall-clock deadline.  Completion must present the token; an expired
  lease is reclaimed and the trial re-issued *exactly once per expiry*
  (a fresh token), so a crashed worker's trial is recovered and its
  late completion is rejected as stale rather than double-counted.

- **Determinism barrier** — trials are suggested in fixed rounds of
  ``batch`` (default :data:`DEFAULT_BATCH`): round *N+1* is only
  suggested once round *N* is fully complete.  Suggestion-time
  algorithm state is therefore the same regardless of worker count or
  completion order.  This barrier is the one scheduler behind every
  Fig. 7 flow: ``run_fig7`` drives in-memory studies through
  :meth:`ServiceStudy.run`, so a served study's Pareto fronts are
  golden-equal to ``run_fig7``'s.

- **Crash-safe resume** — every suggestion, claim, and completion is
  persisted to a :class:`~repro.dse.store.StudyStore` before it is
  acknowledged.  A restarted server *replays* each study: suggestions
  are re-derived round by round (regenerating the algorithm's RNG
  state exactly), persisted completions are re-applied, live leases
  are re-adopted, and expired or torn ones are re-issued.

- **Fairness** — ``POST /work`` round-robins claims across active
  studies, and each study caps its in-flight leases at
  ``max_inflight``, so concurrent studies share one worker pool.

The HTTP plumbing is the shared wire layer (:mod:`repro.core.wire`):
single-threaded asyncio with synchronous handlers, so every state
transition is atomic with respect to the wire — no locks.  This module
supplies only the routes and handlers (:meth:`DseService.routes`).
"""

from __future__ import annotations

import asyncio
import time

from ..core import wire
from ..core.telemetry import Telemetry
from ..core.wire import FaultInjector, HttpError, ServerThread
from .algorithms import GridSearch, RandomSearch, RegularizedEvolution, TpeLite
from .pareto import pareto_front
from .space import Parameter, ParameterSpace, vexriscv_space
from .store import CLAIMED, COMPLETED, PENDING, StudyStore, TrialRecord
from .study import MetricGoal, Study

SERVICE_SCHEMA_VERSION = 1

#: Seconds a worker holds a claimed trial before it is re-issued.
DEFAULT_LEASE_SECONDS = 60.0

#: Trials suggested per scheduling round.  Fixed — NOT a function of
#: the worker count — so serial and parallel runs see the same
#: algorithm state at every suggestion and stay bit-identical.
DEFAULT_BATCH = 8

#: Study lifecycle states.
ACTIVE = "ACTIVE"
STOPPED = "STOPPED"
DONE = "DONE"

#: Histogram buckets for per-trial evaluation seconds.
TRIAL_SECONDS_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

ALGORITHMS = {
    "random": RandomSearch,
    "regularized_evolution": RegularizedEvolution,
    "tpe": TpeLite,
    # Deterministic whole-space enumeration: suggestion k is grid point
    # k, so the tensorized sweep can stream precomputed results through
    # the trial store in chunks (see repro.dse.exhaustive).
    "exhaustive": GridSearch,
}


class ServiceError(HttpError):
    """A request the service refuses; carries the HTTP status."""


def build_space(spec):
    """A ParameterSpace from its wire form: a registered name, or an
    inline ``{"parameters": [{"name", "values"}, ...]}`` document
    (values must be JSON scalars — they round-trip the wire)."""
    if spec == "vexriscv":
        return vexriscv_space()
    if isinstance(spec, dict) and "parameters" in spec:
        return ParameterSpace([
            Parameter(str(p["name"]), tuple(p["values"]))
            for p in spec["parameters"]
        ])
    raise ServiceError(f"unknown space spec {spec!r}")


def space_to_spec(space):
    """The inline wire form of a ParameterSpace."""
    return {"parameters": [{"name": p.name, "values": list(p.values)}
                           for p in space]}


def build_algorithm(name):
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise ServiceError(
            f"unknown algorithm {name!r} "
            f"(expected one of {', '.join(sorted(ALGORITHMS))})") from None


def normalize_config(config):
    """Fill defaults and validate a study config document."""
    config = dict(config)
    for required in ("owner", "study_id", "budget"):
        if required not in config:
            raise ServiceError(f"study config is missing {required!r}")
    config["owner"] = str(config["owner"])
    config["study_id"] = str(config["study_id"])
    config["budget"] = int(config["budget"])
    if config["budget"] < 1:
        raise ServiceError(f"budget must be >= 1, got {config['budget']}")
    config.setdefault("family", "none")
    config.setdefault("space", "vexriscv")
    config.setdefault("goals", ["cycles", "logic_cells"])
    config["goals"] = [
        g if isinstance(g, dict) else {"name": str(g), "goal": "minimize"}
        for g in config["goals"]
    ]
    config.setdefault("algorithm", "regularized_evolution")
    config.setdefault("seed", 0)
    # a default fills only a missing or null value: 0 is an error
    batch = config.get("batch")
    config["batch"] = DEFAULT_BATCH if batch is None else int(batch)
    inflight = config.get("max_inflight")
    config["max_inflight"] = (config["batch"] if inflight is None
                              else int(inflight))
    for name in ("batch", "max_inflight"):
        if config[name] < 1:
            raise ServiceError(f"{name} must be >= 1, got {config[name]}")
    config.setdefault("state", ACTIVE)
    # eagerly validate the references so creation fails fast
    build_space(config["space"])
    build_algorithm(config["algorithm"])
    return config


def resource_name(owner, study_id):
    return f"owners/{owner}/studies/{study_id}"


def completion_fields(item):
    """The keyword arguments of one completion, from its wire form."""
    return {"lease_token": str(item.get("lease_token", "")),
            "metrics": item.get("metrics"),
            "infeasible": bool(item.get("infeasible", False)),
            "cache_hit": bool(item.get("cache_hit", False)),
            "seconds": float(item.get("seconds", 0.0)),
            "worker_id": str(item.get("worker_id", ""))}


class ServiceStudy:
    """One study's runtime: the optimizer, the lease book, the queue."""

    def __init__(self, service, config):
        self.service = service
        self.config = config
        self.owner = config["owner"]
        self.study_id = config["study_id"]
        self.resource_name = resource_name(self.owner, self.study_id)
        self.state = config["state"]
        self.study = Study(
            space=build_space(config["space"]),
            goals=[MetricGoal(g["name"], g.get("goal", "minimize"))
                   for g in config["goals"]],
            algorithm=build_algorithm(config["algorithm"]),
            name=self.study_id,
            seed=config["seed"],
        )
        self.records = {}          # trial_id -> TrialRecord
        self.queue = []            # assignable trial ids, FIFO
        self._claims = 0           # lease token nonce
        self._subscribers = []     # asyncio queues for pareto-stream
        self._front_keys = None
        self._started_mono = None  # first claim (for trials/sec)
        self._elapsed = 0.0

    # --- shorthands ---------------------------------------------------------------
    @property
    def budget(self):
        return self.config["budget"]

    @property
    def batch(self):
        return self.config["batch"]

    def _counter(self, name):
        return self.service.telemetry.counter(name, study=self.study_id)

    def _persist_trial(self, record):
        self.service.store.write_trial(self.owner, self.study_id, record)

    def _persist_state(self):
        self.config["state"] = self.state
        self.service.store.write_study(self.config)

    def _set_state(self, state):
        if state != self.state:
            self.state = state
            self._persist_state()
            if state in (DONE, STOPPED):
                self._notify()

    # --- scheduling ---------------------------------------------------------------
    def completed_count(self):
        return sum(1 for r in self.records.values() if r.state == COMPLETED)

    def inflight(self):
        return sum(1 for r in self.records.values() if r.state == CLAIMED)

    def _reclaim_expired(self):
        now = self.service.clock()
        for record in self.records.values():
            if record.state == CLAIMED and record.lease_deadline <= now:
                record.state = PENDING
                record.lease_token = ""
                record.worker = ""
                self._persist_trial(record)
                self.queue.append(record.trial_id)
                self._counter("dse_lease_reclaims").inc()
        self.queue.sort()  # reclaimed work keeps deterministic order

    def _ensure_round(self):
        """Suggest the next fixed-size round iff the previous one is
        fully complete (the determinism barrier)."""
        if self.state != ACTIVE:
            return
        suggested = len(self.study.trials)
        if suggested >= self.budget:
            return
        if any(r.state != COMPLETED for r in self.records.values()):
            return
        count = min(self.batch, self.budget - suggested)
        for trial in self.study.suggest(count):
            record = TrialRecord(trial_id=trial.trial_id,
                                 parameters=dict(trial.parameters))
            self.records[trial.trial_id] = record
            self._persist_trial(record)
            self.queue.append(trial.trial_id)
        self._counter("dse_trials_suggested").add(count)

    def claim(self, worker_id, count=1):
        """Lease up to ``count`` assignable trials to ``worker_id``."""
        if self.state != ACTIVE:
            return []
        if self._started_mono is None:
            self._started_mono = time.monotonic()
        self._reclaim_expired()
        self._ensure_round()
        slots = max(0, min(count,
                           self.config["max_inflight"] - self.inflight()))
        granted = [self.records[trial_id] for trial_id in self.queue[:slots]]
        del self.queue[:slots]
        for record in granted:
            self._claims += 1
            record.state = CLAIMED
            record.worker = str(worker_id)
            record.lease_token = f"{self.study_id}/{record.trial_id}#{self._claims}"
            record.lease_deadline = (self.service.clock()
                                     + self.service.lease_seconds)
            self._persist_trial(record)
        self._export_gauges()
        return granted

    def run(self, evaluate, worker_id="in-process"):
        """Drive the study to its end in-process: claim each round,
        turn it into completion items with ``evaluate(records)`` (the
        :meth:`complete_batch` form), and complete them together."""
        while self.state == ACTIVE:
            granted = self.claim(worker_id, self.batch)
            if not granted:
                break
            self.complete_batch(evaluate(granted))
        return self

    def complete(self, trial_id, lease_token, metrics=None, infeasible=False,
                 cache_hit=False, seconds=0.0, worker_id=""):
        """Apply one completion; idempotent per lease, stale-safe."""
        result = self._complete_one(trial_id, lease_token, metrics=metrics,
                                    infeasible=infeasible, cache_hit=cache_hit,
                                    seconds=seconds, worker_id=worker_id)
        self._finalize_completions()
        return result

    def complete_batch(self, completions):
        """Apply many completions; the done-check (and the front, for
        stream subscribers) runs once at the end.

        Each item is ``{"trial_id", "lease_token", "metrics"?,
        "infeasible"?, "cache_hit"?, "seconds"?, "worker_id"?}``.  Items
        are independent: a stale or unknown lease yields a per-item
        ``{"ok": False, ...}`` entry instead of failing the batch.  This
        is the path of :meth:`run`, which completes a whole round per
        call.
        """
        results = []
        for item in completions:
            try:
                results.append(self._complete_one(int(item["trial_id"]),
                                                  **completion_fields(item)))
            except ServiceError as error:
                results.append({"ok": False, "error": str(error),
                                "status": error.status})
        self._finalize_completions()
        return results

    def _complete_one(self, trial_id, lease_token, metrics=None,
                      infeasible=False, cache_hit=False, seconds=0.0,
                      worker_id=""):
        record = self.records.get(trial_id)
        if record is None:
            raise ServiceError(f"no trial {trial_id} in {self.resource_name}",
                               status=404)
        if record.state == COMPLETED:
            if lease_token and lease_token == record.lease_token:
                # the worker's retry of a completion whose response was
                # lost: already applied, simply acknowledge
                self._counter("dse_duplicate_completions").inc()
                return {"ok": True, "duplicate": True}
            self._counter("dse_stale_completions").inc()
            raise ServiceError(
                f"trial {trial_id} already completed under another lease",
                status=409)
        if record.state != CLAIMED or lease_token != record.lease_token:
            self._counter("dse_stale_completions").inc()
            raise ServiceError(
                f"lease for trial {trial_id} is stale (re-issued after "
                f"expiry); discard the result", status=409)
        record.state = COMPLETED
        record.metrics = dict(metrics or {})
        record.infeasible = bool(infeasible)
        record.cache_hit = bool(cache_hit)
        record.seconds = float(seconds)
        record.worker = str(worker_id) or record.worker
        self._persist_trial(record)
        self._apply_to_study(record)
        self._counter("dse_trials_completed").inc()
        if record.infeasible:
            self._counter("dse_trials_infeasible").inc()
        hit_name = ("dse_worker_cache_hits" if record.cache_hit
                    else "dse_worker_cache_misses")
        self._counter(hit_name).inc()
        self.service.telemetry.histogram(
            "dse_trial_seconds", buckets=TRIAL_SECONDS_BUCKETS,
            study=self.study_id).observe(record.seconds)
        return {"ok": True, "duplicate": False}

    def _finalize_completions(self):
        """Front publication + done-check, once per completion batch."""
        if self._started_mono is not None:
            self._elapsed = time.monotonic() - self._started_mono
        self._publish_front()
        if (len(self.study.trials) >= self.budget
                and self.completed_count() >= self.budget):
            self._set_state(DONE)
        self._export_gauges()

    def _apply_to_study(self, record):
        trial = self.study.trials[record.trial_id - 1]
        if record.infeasible:
            trial.complete(infeasible=True)
        else:
            trial.complete(record.metrics)

    def _export_gauges(self):
        telemetry = self.service.telemetry
        telemetry.gauge("dse_queue_depth", study=self.study_id) \
            .set(len(self.queue))
        telemetry.gauge("dse_inflight", study=self.study_id) \
            .set(self.inflight())

    # --- resume (replay) ----------------------------------------------------------
    def replay(self):
        """Rebuild runtime state from the store after a restart.

        Suggestions are re-derived round by round — the algorithm's RNG
        state is regenerated exactly, so resumed suggestions match the
        uninterrupted run's.  Persisted completions are re-applied,
        live leases re-adopted, expired/torn ones re-queued.
        """
        records, unreadable = self.service.store.load_trials(
            self.owner, self.study_id)
        if unreadable:
            self._counter("dse_store_unreadable_trials").add(unreadable)
        now = self.service.clock()
        while len(self.study.trials) < self.budget:
            start = len(self.study.trials)
            count = min(self.batch, self.budget - start)
            round_ids = range(start + 1, start + count + 1)
            if not any(tid in records for tid in round_ids):
                break  # this round was never durably suggested
            for trial in self.study.suggest(count):
                record = records.get(trial.trial_id)
                if record is None:
                    # a torn suggestion: the replayed parameters are the
                    # ones the crashed server computed — heal the file
                    record = TrialRecord(trial_id=trial.trial_id,
                                         parameters=dict(trial.parameters))
                    self._persist_trial(record)
                elif record.parameters != trial.parameters:
                    # never expected for an unchanged algorithm; the
                    # store is the durable truth, so prefer it
                    self._counter("dse_replay_param_mismatch").inc()
                    trial.parameters = dict(record.parameters)
                self.records[trial.trial_id] = record
                if record.state == COMPLETED:
                    self._apply_to_study(record)
                elif record.state == CLAIMED and record.lease_deadline > now:
                    pass  # re-adopt the in-flight lease as-is
                else:
                    if record.state == CLAIMED:
                        self._counter("dse_lease_reclaims").inc()
                    record.state = PENDING
                    record.lease_token = ""
                    record.worker = ""
                    self._persist_trial(record)
                    self.queue.append(record.trial_id)
            # No barrier check here: a later round on disk proves the
            # earlier round *did* complete before the crash (the barrier
            # enforced it), so a non-COMPLETED record in a replayed
            # round can only be a torn file — re-queue just that record
            # and keep replaying; every other completed trial survives.
        self.queue.sort()
        if (len(self.study.trials) >= self.budget
                and self.records
                and self.completed_count() >= self.budget
                and self.state == ACTIVE):
            self.state = DONE
            self._persist_state()
        self._export_gauges()
        return self

    # --- results ------------------------------------------------------------------
    def feasible_records(self):
        return [r for r in sorted(self.records.values(),
                                  key=lambda r: r.trial_id)
                if r.state == COMPLETED and not r.infeasible]

    def completed_records(self):
        return [r for r in sorted(self.records.values(),
                                  key=lambda r: r.trial_id)
                if r.state == COMPLETED]

    def _front_records(self):
        """The current Pareto front over feasible completed trials.
        Built on each call: only readers (status, the pareto routes,
        stream subscribers) pay for it, never a completion."""
        return pareto_front(self.feasible_records(),
                            key=self.study.metric_tuple)

    @staticmethod
    def _front_wire(records):
        return [{"trial_id": r.trial_id, "parameters": dict(r.parameters),
                 "metrics": dict(r.metrics)} for r in records]

    def front(self):
        """The current Pareto front, in its wire form."""
        return self._front_wire(self._front_records())

    def trials_per_second(self):
        completed = self.completed_count()
        if not completed or self._elapsed <= 0.0:
            return 0.0
        return completed / self._elapsed

    def status(self):
        return {
            "resource_name": self.resource_name,
            "owner": self.owner,
            "study_id": self.study_id,
            "family": self.config["family"],
            "state": self.state,
            "budget": self.budget,
            "batch": self.batch,
            "max_inflight": self.config["max_inflight"],
            "suggested": len(self.study.trials),
            "completed": self.completed_count(),
            "infeasible": sum(1 for r in self.records.values()
                              if r.state == COMPLETED and r.infeasible),
            "claimed": self.inflight(),
            "queue_depth": len(self.queue),
            "front_size": len(self._front_records()),
            "trials_per_sec": round(self.trials_per_second(), 3),
        }

    # --- pareto streaming ---------------------------------------------------------
    async def front_updates(self):
        """The current front, then one item per front change, ending
        with the study (the pareto-stream route streams these)."""
        queue = asyncio.Queue()
        front = self._front_records()
        # with no subscriber the last published front went stale
        self._front_keys = {r.trial_id for r in front}
        queue.put_nowait(self._stream_item(front))
        self._subscribers.append(queue)
        try:
            while True:
                item = await queue.get()
                yield item
                if item["done"]:
                    return
        finally:
            self._subscribers.remove(queue)

    def _stream_item(self, front):
        return {"study": self.resource_name,
                "completed": self.completed_count(),
                "front": self._front_wire(front),
                "done": self.state in (DONE, STOPPED)}

    def _notify(self, front=None):
        if not self._subscribers:
            return
        item = self._stream_item(self._front_records() if front is None
                                 else front)
        for queue in self._subscribers:
            queue.put_nowait(item)

    def _publish_front(self):
        """Stream the front to subscribers if it changed; with none,
        nothing is built."""
        if not self._subscribers:
            return
        front = self._front_records()
        keys = {r.trial_id for r in front}
        if keys != self._front_keys:
            self._front_keys = keys
            self._notify(front)

    # --- wire forms ---------------------------------------------------------------
    def trial_wire(self, record):
        return {
            "study": self.resource_name,
            "owner": self.owner,
            "study_id": self.study_id,
            "family": self.config["family"],
            "trial_id": record.trial_id,
            "parameters": dict(record.parameters),
            "lease_token": record.lease_token,
            "lease_deadline": record.lease_deadline,
        }


class DseService:
    """Many studies behind one store, one telemetry object, one pool."""

    def __init__(self, store_dir=None, lease_seconds=DEFAULT_LEASE_SECONDS,
                 clock=time.time, telemetry=None):
        self.store = StudyStore(store_dir)
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.faults = FaultInjector()
        self.studies = {}
        self._rr = 0
        for config in self.store.list_studies():
            study = ServiceStudy(self, normalize_config(config))
            study.replay()
            self.studies[study.resource_name] = study
        self._export_active()

    def _export_active(self):
        self.telemetry.gauge("dse_studies_active").set(
            sum(1 for s in self.studies.values() if s.state == ACTIVE))

    # --- study management ---------------------------------------------------------
    def create_study(self, config):
        config = normalize_config(config)
        name = resource_name(config["owner"], config["study_id"])
        if name in self.studies:
            raise ServiceError(f"study {name} already exists", status=409)
        study = ServiceStudy(self, config)
        self.store.write_study(config)
        self.studies[name] = study
        self._export_active()
        return study

    def get_study(self, owner, study_id):
        name = resource_name(owner, study_id)
        try:
            return self.studies[name]
        except KeyError:
            raise ServiceError(f"no study {name}", status=404) from None

    def stop_study(self, owner, study_id):
        study = self.get_study(owner, study_id)
        study._set_state(STOPPED)
        self._export_active()
        return study

    def list_statuses(self):
        return [self.studies[name].status()
                for name in sorted(self.studies)]

    def all_done(self):
        return bool(self.studies) and all(
            s.state in (DONE, STOPPED) for s in self.studies.values())

    # --- the shared worker pool entry ----------------------------------------------
    def work(self, worker_id, count=1):
        """Round-robin claims across active studies (fair sharing)."""
        active = [self.studies[name] for name in sorted(self.studies)
                  if self.studies[name].state == ACTIVE]
        granted = []
        if active:
            misses = 0
            while len(granted) < count and misses < len(active):
                study = active[self._rr % len(active)]
                self._rr += 1
                got = study.claim(worker_id, 1)
                if got:
                    granted.append(study.trial_wire(got[0]))
                    misses = 0
                else:
                    misses += 1
        self._export_active()
        return granted

    # --- the wire (served by repro.core.wire) ---------------------------------------
    http_counter = "dse_http_requests"

    def routes(self):
        study, get = "studies/{owner}/{study_id}", self.get_study
        return [
            ("GET", "healthz", "healthz", lambda body: {"ok": True}),
            ("GET", "metrics", "metrics",
             lambda body: self.telemetry.snapshot()),
            ("GET", "studies", "list", lambda body: {
                "studies": self.list_statuses(), "done": self.all_done()}),
            ("POST", "studies", "create",
             lambda body: self.create_study(body).status()),
            ("POST", "work", "work", lambda body: {
                "trials": self.work(str(body.get("worker_id", "worker")),
                                    int(body.get("count", 1))),
                "done": self.all_done()}),
            ("GET", study, "status", lambda body, *key: get(*key).status()),
            ("GET", f"{study}/pareto", "pareto",
             lambda body, *key: {"front": get(*key).front()}),
            ("GET", f"{study}/pareto-stream", "pareto-stream",
             lambda body, *key: get(*key).front_updates()),
            ("GET", f"{study}/trials", "trials", self._http_trials),
            ("POST", f"{study}/suggest", "suggest", self._http_suggest),
            ("POST", f"{study}/stop", "stop",
             lambda body, *key: self.stop_study(*key).status()),
            ("POST", f"{study}/trials/complete-batch", "complete-batch",
             self._http_complete_batch),
            ("POST", f"{study}/trials/{{trial_id}}/complete", "complete",
             self._http_complete),
        ]

    def _http_suggest(self, body, owner, study_id):
        study = self.get_study(owner, study_id)
        granted = study.claim(str(body.get("worker_id", "worker")),
                              int(body.get("count", 1)))
        return {"trials": [study.trial_wire(r) for r in granted],
                "done": study.state in (DONE, STOPPED),
                "state": study.state}

    def _http_complete(self, body, owner, study_id, trial_id):
        study = self.get_study(owner, study_id)
        result = study.complete(int(trial_id), **completion_fields(body))
        result["state"] = study.state
        return result

    def _http_complete_batch(self, body, owner, study_id):
        study = self.get_study(owner, study_id)
        results = study.complete_batch(body.get("completions", []))
        return {"results": results, "state": study.state}

    def _http_trials(self, body, owner, study_id):
        study = self.get_study(owner, study_id)
        return {
            "study": study.resource_name,
            "family": study.config["family"],
            "trials": [
                {"trial_id": r.trial_id, "parameters": dict(r.parameters),
                 "metrics": dict(r.metrics), "infeasible": r.infeasible,
                 "cache_hit": r.cache_hit, "seconds": r.seconds}
                for r in study.completed_records()
            ],
        }


def serve(service, host="127.0.0.1", port=8733):
    """Blocking entry point (``repro dse serve``)."""
    wire.serve(service, host, port)


class ServiceThread(ServerThread):
    """A served :class:`DseService` on a background thread (tests, the
    benchmark harness, and ``repro dse --service-url``-less local runs).

    >>> handle = ServiceThread(DseService(store_dir=...))  # doctest: +SKIP
    >>> client = ServiceClient(handle.url)
    >>> ...
    >>> handle.stop()
    """

    def __init__(self, service, host="127.0.0.1", port=0):
        self.service = service
        super().__init__(service, host, port)
