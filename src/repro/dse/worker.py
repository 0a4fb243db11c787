"""Worker fleets and the wire client for the DSE study service.

A worker is a plain loop: pull a suggestion batch from the service
(``POST /work`` — round-robined across every active study), evaluate
each trial with the simulator-backed :class:`Fig7Evaluator`
(served from the content-addressed evaluation cache when warm), and
complete the trial over the wire.  Workers are deliberately stateless:
any number can run in threads, processes, or on other hosts, a killed
worker loses nothing (its leases expire and the trials are re-issued),
and a worker that outlives a server restart simply retries until the
resumed server re-adopts its leases.

:class:`ServiceClient` is the transport: the shared stdlib client
(:class:`~repro.core.wire.JsonClient`) with exponential retry/backoff on
connection errors, timeouts, and HTTP 5xx.  Claim loss is handled at
the protocol layer — a completion whose response was lost is retried
idempotently (same lease token), and a completion whose lease was
re-issued after expiry comes back as a :class:`StaleLeaseError` that
the worker logs and drops, so retries can never double-count a trial.

``run_fig7_service`` is the paper-scale entry: it submits the three
Fig. 7 studies, drives a local worker fleet, and folds the completed
trials back into a :class:`~repro.dse.runner.DseResult` that is
golden-equal to the in-process ``run_fig7`` engine.
"""

from __future__ import annotations

import threading
import time

# ServiceUnavailable is re-exported: the client raises it once retries run out.
from ..core.wire import ClientError, JsonClient, ServiceUnavailable
from .cache import EvaluationCache
from .runner import (FIG7_OWNER, DsePoint, DseResult, Fig7Evaluator,
                     fig7_study_configs)


class StaleLeaseError(ClientError):
    """The trial's lease was re-issued (or completed) elsewhere."""


class ServiceClient(JsonClient):
    """The study service's client: retries transient failures with
    backoff, and a 409 raises :class:`StaleLeaseError`."""

    def __init__(self, base_url, worker_id="worker-0", timeout=30.0,
                 max_retries=8, backoff=0.05, backoff_cap=2.0,
                 sleep=time.sleep):
        super().__init__(base_url, timeout=timeout, max_retries=max_retries,
                         backoff=backoff, backoff_cap=backoff_cap, sleep=sleep)
        self.worker_id = worker_id

    def error(self, status, payload):
        return (StaleLeaseError if status == 409 else ClientError)(status,
                                                                   payload)

    # --- API surface --------------------------------------------------------------
    def healthz(self):
        return self.request("GET", "/healthz")

    def metrics(self):
        return self.request("GET", "/metrics")

    def create_study(self, config):
        return self.request("POST", "/studies", config)

    def list_studies(self):
        return self.request("GET", "/studies")

    def study_status(self, owner, study_id):
        return self.request("GET", f"/studies/{owner}/{study_id}")

    def stop_study(self, owner, study_id):
        return self.request("POST", f"/studies/{owner}/{study_id}/stop", {})

    def suggest(self, owner, study_id, count=1):
        return self.request(
            "POST", f"/studies/{owner}/{study_id}/suggest",
            {"worker_id": self.worker_id, "count": count})

    def work(self, count=1):
        return self.request(
            "POST", "/work", {"worker_id": self.worker_id, "count": count})

    def complete(self, trial, metrics=None, infeasible=False,
                 cache_hit=False, seconds=0.0):
        """Complete a claimed trial (the wire dict from suggest/work)."""
        path = (f"/studies/{trial['owner']}/{trial['study_id']}"
                f"/trials/{trial['trial_id']}/complete")
        return self.request("POST", path, {
            "worker_id": self.worker_id,
            "lease_token": trial["lease_token"],
            "metrics": metrics,
            "infeasible": infeasible,
            "cache_hit": cache_hit,
            "seconds": seconds,
        })

    def complete_batch(self, owner, study_id, completions):
        """Apply many completions in one request (one persist/front pass).

        Each item is ``{"trial_id", "lease_token", "metrics"?,
        "infeasible"?, "cache_hit"?, "seconds"?}``; per-item results come
        back positionally so one stale lease doesn't fail the batch.
        """
        items = [{**item, "worker_id": item.get("worker_id",
                                                self.worker_id)}
                 for item in completions]
        return self.request(
            "POST", f"/studies/{owner}/{study_id}/trials/complete-batch",
            {"completions": items})

    def trials(self, owner, study_id):
        return self.request("GET", f"/studies/{owner}/{study_id}/trials")

    def pareto(self, owner, study_id):
        return self.request("GET", f"/studies/{owner}/{study_id}/pareto")

    def stream_pareto(self, owner, study_id):
        """Yield Pareto-front updates as the study progresses (a
        dedicated streaming connection; ends when the study finishes)."""
        return self.stream(f"/studies/{owner}/{study_id}/pareto-stream")


class WorkerStats:
    """What one worker did (returned by :func:`run_worker`)."""

    def __init__(self):
        self.claimed = 0
        self.completed = 0
        self.cache_hits = 0
        self.infeasible = 0
        self.stale_leases = 0

    def as_dict(self):
        return {"claimed": self.claimed, "completed": self.completed,
                "cache_hits": self.cache_hits, "infeasible": self.infeasible,
                "stale_leases": self.stale_leases}


def run_worker(base_url, worker_id="worker-0", evaluator=None,
               cache_dir=None, poll_interval=0.05, eval_latency=0.0,
               batch=1, max_trials=None, stop=None, sleep=time.sleep,
               client=None):
    """Pull-evaluate-complete until every study on the service is done.

    ``evaluator`` defaults to a fresh :class:`Fig7Evaluator` backed by
    ``cache_dir`` (share one evaluator across threads to share the warm
    in-memory cache).  ``eval_latency`` adds a fixed sleep per trial —
    the service benchmark uses it to measure scheduling scalability
    independently of host core count.  ``stop`` (a ``threading.Event``)
    and ``max_trials`` bound the loop for tests.
    """
    if evaluator is None:
        evaluator = Fig7Evaluator(cache=EvaluationCache(cache_dir))
    if client is None:
        client = ServiceClient(base_url, worker_id=worker_id, sleep=sleep)
    stats = WorkerStats()
    try:
        while not (stop is not None and stop.is_set()):
            if max_trials is not None and stats.claimed >= max_trials:
                break
            response = client.work(count=batch)
            trials = response.get("trials", [])
            if not trials:
                if response.get("done"):
                    break
                sleep(poll_interval)
                continue
            for trial in trials:
                stats.claimed += 1
                outcome = evaluator.evaluate_batch(
                    [(trial["parameters"], trial["family"])])[0]
                if eval_latency:
                    sleep(eval_latency)
                try:
                    client.complete(trial, **outcome.completion())
                except StaleLeaseError:
                    # the lease expired mid-evaluation and the trial was
                    # re-issued; drop the result — exactly-once
                    # accounting belongs to the new lease holder
                    stats.stale_leases += 1
                    continue
                stats.completed += 1
                if outcome.cache_hit:
                    stats.cache_hits += 1
                if outcome.point is None:
                    stats.infeasible += 1
    finally:
        client.close()
    return stats


class WorkerFleet:
    """A local fleet of worker threads against one service URL.

    Threads share one evaluator (one model load, one in-memory cache
    layer); for multi-core fleets use ``repro dse work`` processes.
    """

    def __init__(self, base_url, workers=1, cache_dir=None, evaluator=None,
                 poll_interval=0.05, eval_latency=0.0):
        self.base_url = base_url
        self.evaluator = evaluator or Fig7Evaluator(
            cache=EvaluationCache(cache_dir))
        self.stop_event = threading.Event()
        self.stats = [WorkerStats() for _ in range(workers)]
        self._threads = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._run_one, args=(index, poll_interval,
                                            eval_latency),
                name=f"dse-worker-{index}", daemon=True)
            self._threads.append(thread)

    def _run_one(self, index, poll_interval, eval_latency):
        self.stats[index] = run_worker(
            self.base_url, worker_id=f"worker-{index}",
            evaluator=self.evaluator, poll_interval=poll_interval,
            eval_latency=eval_latency, stop=self.stop_event)

    def start(self):
        for thread in self._threads:
            thread.start()
        return self

    def join(self, timeout=None):
        for thread in self._threads:
            thread.join(timeout)
        return self

    def stop(self):
        self.stop_event.set()
        self.join(timeout=10.0)

    def totals(self):
        totals = WorkerStats()
        for stats in self.stats:
            totals.claimed += stats.claimed
            totals.completed += stats.completed
            totals.cache_hits += stats.cache_hits
            totals.infeasible += stats.infeasible
            totals.stale_leases += stats.stale_leases
        return totals


# --------------------------------------------------------------------------------
# Fig. 7 over the wire
# --------------------------------------------------------------------------------

def create_fig7_studies(client, trials_per_family, seed=0, batch=None,
                        owner=FIG7_OWNER, prefix=""):
    """Create (or re-adopt, on resume) the three Fig. 7 studies."""
    names = []
    for config in fig7_study_configs(trials_per_family, seed=seed,
                                     batch=batch, owner=owner, prefix=prefix):
        try:
            client.create_study(config)
        except StaleLeaseError:
            pass  # 409: the study already exists — a resumed run
        names.append((config["owner"], config["study_id"]))
    return names


def fetch_result(client, names):
    """Fold completed service trials into a :class:`DseResult`.

    Points are added in (family, trial_id) order — the same order the
    in-process engine sees them — and deduplicated by value, so the
    result compares golden-equal to ``run_fig7``.
    """
    result = DseResult()
    for owner, study_id in names:
        payload = client.trials(owner, study_id)
        family = payload["family"]
        for trial in sorted(payload["trials"],
                            key=lambda t: t["trial_id"]):
            if trial["infeasible"]:
                continue
            metrics = trial["metrics"]
            result.add(DsePoint(
                family=family,
                parameters=dict(trial["parameters"]),
                cycles=float(metrics["cycles"]),
                logic_cells=int(metrics["logic_cells"]),
            ))
    return result


def wait_for_studies(client, names, poll_interval=0.05, timeout=600.0,
                     sleep=time.sleep, clock=time.monotonic):
    """Block until every named study is DONE (or STOPPED)."""
    deadline = clock() + timeout
    while True:
        statuses = [client.study_status(owner, study_id)
                    for owner, study_id in names]
        if all(s["state"] in ("DONE", "STOPPED") for s in statuses):
            return statuses
        if clock() > deadline:
            raise TimeoutError(
                f"studies not done within {timeout}s: "
                f"{[(s['study_id'], s['state'], s['completed']) for s in statuses]}")
        sleep(poll_interval)


def run_fig7_service(service_url=None, trials_per_family=60, seed=0,
                     workers=1, batch=None, cache_dir=None, store_dir=None,
                     owner=FIG7_OWNER, prefix="", lease_seconds=None,
                     timeout=600.0):
    """Reproduce Fig. 7 through the study service.

    With ``service_url`` the studies are submitted to a running server
    (``repro dse serve``) and a local worker fleet joins its pool;
    without one, an ephemeral in-process server is started (persisted
    under ``store_dir`` when given) so the call is self-contained.
    Returns ``(DseResult, info_dict)`` where the result is golden-equal
    to the in-process ``run_fig7`` for the same seed/budget/batch.
    """
    from .service import DEFAULT_LEASE_SECONDS, DseService, ServiceThread

    handle = None
    if service_url is None:
        service = DseService(
            store_dir=store_dir,
            lease_seconds=lease_seconds or DEFAULT_LEASE_SECONDS)
        handle = ServiceThread(service)
        service_url = handle.url
    client = ServiceClient(service_url, worker_id="fig7-orchestrator")
    try:
        names = create_fig7_studies(client, trials_per_family, seed=seed,
                                    batch=batch, owner=owner, prefix=prefix)
        fleet = WorkerFleet(service_url, workers=workers,
                            cache_dir=cache_dir)
        started = time.monotonic()
        fleet.start()
        statuses = wait_for_studies(client, names, timeout=timeout)
        fleet.join(timeout=30.0)
        elapsed = time.monotonic() - started
        result = fetch_result(client, names)
        totals = fleet.totals()
        completed = sum(s["completed"] for s in statuses)
        info = {
            "elapsed_seconds": elapsed,
            "trials_completed": completed,
            "trials_per_sec": completed / elapsed if elapsed > 0 else 0.0,
            "worker_stats": [s.as_dict() for s in fleet.stats],
            "cache_hits": totals.cache_hits,
            "evaluations": totals.completed - totals.cache_hits,
            "client_retries": client.retries,
            "statuses": statuses,
        }
        return result, info
    finally:
        client.close()
        if handle is not None:
            handle.stop()
