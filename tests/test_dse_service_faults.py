"""The adversarial suite for the DSE study service.

Three failure families, per the crash/fault harness spec:

- a worker killed mid-trial: the lease expires and the trial is
  re-issued *exactly once*, the dead worker's late completion is
  rejected as stale, and nothing is double-counted;
- torn/truncated/garbage study-store shard files: a restarted server
  recovers the study, loses at most the corrupted records (which it
  re-issues), and keeps every other completed trial;
- injected HTTP 500s, dropped connections, and lost responses: the
  worker's retry/backoff converges with no duplicate completions.
"""

import json
import os

import pytest

from repro.dse import (
    DseService,
    ServiceClient,
    ServiceError,
    ServiceThread,
    run_worker,
)


class FakeClock:
    """An injectable wall clock the tests advance by hand."""

    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def tiny_config(study_id="tiny", owner="faults", budget=12, batch=4,
                **extra):
    config = {
        "owner": owner,
        "study_id": study_id,
        "budget": budget,
        "batch": batch,
        "space": {"parameters": [{"name": "x", "values": [0, 1, 2, 3]},
                                 {"name": "y", "values": [0, 1, 2, 3]}]},
        "goals": ["a", "b"],
        "algorithm": "random",
        "seed": 7,
    }
    config.update(extra)
    return config


def tiny_metrics(parameters):
    x, y = parameters["x"], parameters["y"]
    return {"a": float(x + y), "b": float((x - y) ** 2 + 1)}


def counter_value(telemetry, name, **labels):
    """A counter's value, 0 when no event ever created the series."""
    try:
        return telemetry.value(name, **labels)
    except KeyError:
        return 0


def drive_rounds(study, rounds=None, worker="driver"):
    """Claim and complete whole rounds; all of them when rounds=None."""
    driven = 0
    while study.state == "ACTIVE" and (rounds is None or driven < rounds):
        granted = study.claim(worker, study.batch)
        if not granted:
            break
        for record in granted:
            study.complete(record.trial_id, record.lease_token,
                           metrics=tiny_metrics(record.parameters),
                           worker_id=worker)
        driven += 1
    return driven


def completed_snapshot(study):
    return [(r.trial_id, dict(r.parameters), dict(r.metrics))
            for r in study.completed_records()]


# --------------------------------------------------------------------------------
# Family 1: a worker killed mid-trial
# --------------------------------------------------------------------------------

def test_expired_lease_is_reissued_exactly_once():
    clock = FakeClock()
    service = DseService(clock=clock, lease_seconds=30.0)
    study = service.create_study(tiny_config(budget=1, batch=1))

    first = study.claim("doomed-worker", 1)
    assert len(first) == 1
    # what the doomed worker took over the wire: a snapshot, not the
    # server's live record
    original = study.trial_wire(first[0])
    # the worker dies here; nobody else can claim while the lease lives
    assert study.claim("other-worker", 1) == []
    clock.advance(29.0)
    assert study.claim("other-worker", 1) == []

    clock.advance(2.0)  # past the deadline
    granted = study.claim("other-worker", 1)
    assert len(granted) == 1
    reissued = study.trial_wire(granted[0])
    assert reissued["trial_id"] == original["trial_id"]
    assert reissued["lease_token"] != original["lease_token"]
    assert reissued["parameters"] == original["parameters"]
    assert service.telemetry.value("dse_lease_reclaims", study="tiny") == 1
    # exactly once: no third copy exists while the new lease lives
    assert study.claim("third-worker", 1) == []

    # the dead worker wakes up and submits its stale result
    with pytest.raises(ServiceError) as err:
        study.complete(original["trial_id"], original["lease_token"],
                       metrics=tiny_metrics(original["parameters"]))
    assert err.value.status == 409
    assert study.completed_count() == 0
    assert service.telemetry.value("dse_stale_completions", study="tiny") == 1

    # the live lease completes normally, once
    study.complete(reissued["trial_id"], reissued["lease_token"],
                   metrics=tiny_metrics(reissued["parameters"]))
    assert study.completed_count() == 1
    assert study.state == "DONE"
    assert service.telemetry.value("dse_trials_completed", study="tiny") == 1


def test_stale_result_after_completion_is_rejected_not_double_counted():
    clock = FakeClock()
    service = DseService(clock=clock, lease_seconds=10.0)
    study = service.create_study(tiny_config(budget=1, batch=1))
    original = study.trial_wire(study.claim("doomed-worker", 1)[0])
    clock.advance(11.0)
    reissued = study.trial_wire(study.claim("other-worker", 1)[0])
    study.complete(reissued["trial_id"], reissued["lease_token"],
                   metrics=tiny_metrics(reissued["parameters"]))
    # the dead worker's result arrives after the re-issue already won
    with pytest.raises(ServiceError) as err:
        study.complete(original["trial_id"], original["lease_token"],
                       metrics={"a": 999.0, "b": 999.0})
    assert err.value.status == 409
    record = study.records[original["trial_id"]]
    assert record.metrics == tiny_metrics(reissued["parameters"])
    assert service.telemetry.value("dse_trials_completed", study="tiny") == 1


def test_live_lease_survives_server_restart(tmp_path):
    clock = FakeClock()
    store = str(tmp_path / "store")
    service = DseService(store_dir=store, clock=clock, lease_seconds=60.0)
    service.create_study(tiny_config(budget=4, batch=4))
    study = service.get_study("faults", "tiny")
    claimed = study.claim("survivor", 2)
    assert len(claimed) == 2

    # the server restarts while the worker is mid-evaluation
    resumed = DseService(store_dir=store, clock=clock, lease_seconds=60.0)
    rstudy = resumed.get_study("faults", "tiny")
    assert rstudy.inflight() == 2
    adopted = rstudy.records[claimed[0].trial_id]
    assert adopted.lease_token == claimed[0].lease_token
    assert adopted.worker == "survivor"
    # the worker, which never noticed the restart, completes normally
    result = rstudy.complete(claimed[0].trial_id, claimed[0].lease_token,
                             metrics=tiny_metrics(claimed[0].parameters))
    assert result == {"ok": True, "duplicate": False}


def test_expired_lease_is_requeued_on_server_restart(tmp_path):
    clock = FakeClock()
    store = str(tmp_path / "store")
    service = DseService(store_dir=store, clock=clock, lease_seconds=5.0)
    service.create_study(tiny_config(budget=4, batch=4))
    study = service.get_study("faults", "tiny")
    claimed = study.claim("doomed", 1)[0]

    clock.advance(6.0)  # worker and server both die; lease expires
    resumed = DseService(store_dir=store, clock=clock, lease_seconds=5.0)
    rstudy = resumed.get_study("faults", "tiny")
    assert rstudy.inflight() == 0
    assert rstudy.records[claimed.trial_id].state == "PENDING"
    assert resumed.telemetry.value("dse_lease_reclaims", study="tiny") == 1
    reissued = rstudy.claim("fresh", 4)
    assert claimed.trial_id in [r.trial_id for r in reissued]


# --------------------------------------------------------------------------------
# Family 2: torn, truncated, and garbage store shards
# --------------------------------------------------------------------------------

def _trial_shard_files(store_root):
    """Every trial shard file under the store, with its parsed record
    (None when unreadable)."""
    found = []
    for dirpath, _dirnames, filenames in os.walk(store_root):
        if os.path.basename(os.path.dirname(dirpath)) != "trials" \
                and "trials" not in dirpath:
            continue
        for name in filenames:
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            try:
                with open(path) as handle:
                    record = json.load(handle)
            except ValueError:
                record = None
            found.append((path, record))
    return found


def test_torn_shards_recover_without_losing_completed_trials(tmp_path):
    config = tiny_config(budget=12, batch=4)

    # the golden, uninterrupted run of the same study
    golden_service = DseService()
    golden_study = golden_service.create_study(dict(config))
    drive_rounds(golden_study)
    golden = completed_snapshot(golden_study)
    assert len(golden) == 12

    # the victim run: two rounds completed, then the machine dies and
    # leaves the store mangled
    store = str(tmp_path / "store")
    service = DseService(store_dir=store)
    study = service.create_study(dict(config))
    assert drive_rounds(study, rounds=2) == 2
    assert study.completed_count() == 8

    shard_files = [(p, r) for p, r in _trial_shard_files(store)
                   if r is not None and r.get("state") == "COMPLETED"]
    assert len(shard_files) == 8
    shard_files.sort(key=lambda item: item[1]["trial_id"])
    torn_path, torn_record = shard_files[1]       # round 1
    garbage_path, garbage_record = shard_files[5]  # round 2
    with open(torn_path, "r+b") as handle:
        handle.truncate(10)  # a torn write: half a JSON document
    with open(garbage_path, "wb") as handle:
        handle.write(b"\x00\xff not json at all")
    # plus a foreign-schema file that a future version might leave
    foreign_dir = os.path.dirname(garbage_path)
    with open(os.path.join(foreign_dir, "zz_foreign.json"), "w") as handle:
        json.dump({"schema": 999, "trial_id": 1}, handle)

    resumed = DseService(store_dir=store)
    rstudy = resumed.get_study("faults", "tiny")
    # every completed trial outside the two corrupted files survived
    assert rstudy.completed_count() == 6
    assert resumed.telemetry.value("dse_store_unreadable_trials",
                                 study="tiny") == 3
    survivors = {r.trial_id for r in rstudy.completed_records()}
    assert torn_record["trial_id"] not in survivors
    assert garbage_record["trial_id"] not in survivors
    # the corrupted trials are re-issued (PENDING again), not dropped
    assert sorted([rstudy.records[torn_record["trial_id"]].state,
                   rstudy.records[garbage_record["trial_id"]].state]) == \
        ["PENDING", "PENDING"]

    # finishing the resumed study converges to the golden run exactly
    drive_rounds(rstudy)
    assert rstudy.state == "DONE"
    assert completed_snapshot(rstudy) == golden


def test_torn_study_config_is_skipped_not_fatal(tmp_path):
    store = str(tmp_path / "store")
    service = DseService(store_dir=store)
    service.create_study(tiny_config(study_id="keep"))
    service.create_study(tiny_config(study_id="lose"))
    # tear the second study's config file
    for dirpath, _dirnames, filenames in os.walk(store):
        if "study.json" in filenames:
            path = os.path.join(dirpath, "study.json")
            with open(path) as handle:
                if json.load(handle)["study_id"] == "lose":
                    with open(path, "w") as out:
                        out.write("{torn")
    resumed = DseService(store_dir=store)
    assert [s["study_id"] for s in resumed.list_statuses()] == ["keep"]


# --------------------------------------------------------------------------------
# Family 3: HTTP 500s, dropped connections, lost responses
# --------------------------------------------------------------------------------

def test_worker_retry_backoff_converges_with_no_duplicates(tmp_path):
    service = DseService()
    config = {
        "owner": "faults",
        "study_id": "flaky-net",
        "family": "none",
        "space": "vexriscv",
        "goals": ["cycles", "logic_cells"],
        "algorithm": "random",
        "seed": 11,
        "budget": 6,
        "batch": 3,
    }
    with ServiceThread(service) as handle:
        service.create_study(config)
        service.faults.plan("work", 2, kind="error")
        service.faults.plan("work", 1, kind="drop")
        service.faults.plan("complete", 2, kind="error", status=503)
        service.faults.plan("complete", 2, kind="drop_after")

        napped = []
        client = ServiceClient(handle.url, worker_id="flaky-worker",
                               sleep=napped.append)
        stats = run_worker(handle.url, worker_id="flaky-worker",
                           cache_dir=str(tmp_path / "cache"),
                           poll_interval=0.001, sleep=lambda s: None,
                           client=client)

        study = service.get_study("faults", "flaky-net")
        assert study.state == "DONE"
        assert study.completed_count() == 6
        assert stats.completed == 6
        assert stats.claimed == 6  # every claim converged; none re-issued
        assert service.faults.pending() == 0
        assert service.faults.injected == 7
        # each fault forced at least one client retry, with backoff
        assert client.retries >= 7
        assert len(napped) == client.retries
        assert all(nap > 0 for nap in napped)
        # lost completion responses were retried into idempotent
        # duplicate acknowledgments — never into double-counts
        telemetry = service.telemetry
        assert telemetry.value("dse_trials_completed",
                               study="flaky-net") == 6
        assert telemetry.value("dse_duplicate_completions",
                               study="flaky-net") == 2
        assert counter_value(telemetry, "dse_stale_completions",
                             study="flaky-net") == 0
        trials = study.completed_records()
        assert sorted(r.trial_id for r in trials) == [1, 2, 3, 4, 5, 6]


def test_fault_injector_rejects_unknown_kinds():
    service = DseService()
    with pytest.raises(ValueError):
        service.faults.plan("work", kind="meteor-strike")
