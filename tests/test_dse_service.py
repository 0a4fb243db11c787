"""Wire-API tests for the DSE study service: create/suggest/complete
over HTTP, the determinism barrier, per-study quotas, round-robin
fairness, idempotent completion, Pareto streaming, and the metrics
surface."""

import threading

import pytest

from repro.core.telemetry import Telemetry
from repro.dse import (
    ClientError,
    DseService,
    ServiceClient,
    ServiceError,
    ServiceThread,
    StaleLeaseError,
)
from repro.dse.pareto import dominates
from repro.dse.service import DEFAULT_BATCH, normalize_config


def tiny_config(study_id="tiny", owner="tests", budget=12, batch=4, **extra):
    config = {
        "owner": owner,
        "study_id": study_id,
        "budget": budget,
        "batch": batch,
        "space": {"parameters": [{"name": "x", "values": [0, 1, 2, 3]},
                                 {"name": "y", "values": [0, 1, 2, 3]}]},
        "goals": ["a", "b"],
        "algorithm": "random",
        "seed": 3,
    }
    config.update(extra)
    return config


def tiny_metrics(parameters):
    """A deterministic two-objective oracle over the tiny space."""
    x, y = parameters["x"], parameters["y"]
    return {"a": float(x + y), "b": float((x - y) ** 2 + 1)}


def drive_study(client, owner, study_id, count=4, limit=1000):
    """Act as a worker: claim and complete until the study is DONE."""
    for _ in range(limit):
        response = client.suggest(owner, study_id, count=count)
        if response["done"]:
            return
        for trial in response["trials"]:
            client.complete(trial, metrics=tiny_metrics(trial["parameters"]))
    raise AssertionError("study did not finish within the drive limit")


@pytest.fixture
def server():
    with ServiceThread(DseService()) as handle:
        yield handle


@pytest.fixture
def client(server):
    client = ServiceClient(server.url, worker_id="test-worker")
    yield client
    client.close()


def test_healthz_create_status_list(server, client):
    assert client.healthz() == {"ok": True}
    status = client.create_study(tiny_config())
    assert status["state"] == "ACTIVE"
    assert status["budget"] == 12
    assert status["suggested"] == 0
    listing = client.list_studies()
    assert [s["study_id"] for s in listing["studies"]] == ["tiny"]
    assert listing["done"] is False
    assert client.study_status("tests", "tiny")["resource_name"] == \
        "owners/tests/studies/tiny"


def test_duplicate_study_is_409(server, client):
    client.create_study(tiny_config())
    with pytest.raises(StaleLeaseError) as err:
        client.create_study(tiny_config())
    assert err.value.status == 409


def test_unknown_study_and_route_are_404(server, client):
    with pytest.raises(ClientError) as err:
        client.study_status("nobody", "nothing")
    assert err.value.status == 404
    with pytest.raises(ClientError) as err:
        client.request("GET", "/no/such/route")
    assert err.value.status == 404


def test_malformed_config_is_400(server, client):
    with pytest.raises(ClientError) as err:
        client.create_study({"owner": "tests"})  # missing study_id/budget
    assert err.value.status == 400
    with pytest.raises(ClientError) as err:
        client.create_study(tiny_config(algorithm="gradient-descent"))
    assert err.value.status == 400


def test_suggest_complete_to_done_and_pareto(server, client):
    client.create_study(tiny_config())
    drive_study(client, "tests", "tiny")
    status = client.study_status("tests", "tiny")
    assert status["state"] == "DONE"
    assert status["completed"] == 12
    assert status["suggested"] == 12
    assert status["claimed"] == 0
    assert status["trials_per_sec"] > 0
    front = client.pareto("tests", "tiny")["front"]
    assert front
    # the front is non-dominated and value-sorted
    metric_tuples = [(f["metrics"]["a"], f["metrics"]["b"]) for f in front]
    assert metric_tuples == sorted(metric_tuples)
    for a in metric_tuples:
        assert not any(dominates(b, a) for b in metric_tuples if b != a)
    trials = client.trials("tests", "tiny")["trials"]
    assert len(trials) == 12
    assert all(t["metrics"] == tiny_metrics(t["parameters"])
               for t in trials)


def test_complete_batch_round_trip(server, client):
    """The complete-batch route applies many completions in one POST."""
    client.create_study(tiny_config(budget=8, batch=4,
                                    algorithm="exhaustive"))
    trials = client.suggest("tests", "tiny", count=4)["trials"]
    assert len(trials) == 4
    completions = [{"trial_id": t["trial_id"],
                    "lease_token": t["lease_token"],
                    "metrics": tiny_metrics(t["parameters"])}
                   for t in trials[:3]]
    completions.append({"trial_id": trials[3]["trial_id"],
                        "lease_token": "stale#0", "infeasible": True})
    response = client.complete_batch("tests", "tiny", completions)
    results = response["results"]
    assert [r["ok"] for r in results] == [True, True, True, False]
    assert results[3]["status"] == 409
    assert client.study_status("tests", "tiny")["completed"] == 3


def test_exhaustive_algorithm_over_the_wire(server, client):
    """A grid study suggests every point exactly once, in grid order."""
    client.create_study(tiny_config(budget=16, batch=8,
                                    algorithm="exhaustive",
                                    max_inflight=8))
    seen = []
    while True:
        response = client.suggest("tests", "tiny", count=8)
        if response["done"]:
            break
        if not response["trials"]:
            continue
        for trial in response["trials"]:
            seen.append((trial["trial_id"], dict(trial["parameters"])))
        client.complete_batch("tests", "tiny", [
            {"trial_id": t["trial_id"], "lease_token": t["lease_token"],
             "metrics": tiny_metrics(t["parameters"])}
            for t in response["trials"]])
    expected = [{"x": x, "y": y} for x in [0, 1, 2, 3] for y in [0, 1, 2, 3]]
    assert [p for _, p in sorted(seen)] == expected


def test_barrier_suggests_in_fixed_rounds(server, client):
    client.create_study(tiny_config(budget=10, batch=4))
    first = client.suggest("tests", "tiny", count=10)["trials"]
    assert len(first) == 4  # one round, never more, whatever was asked
    assert client.suggest("tests", "tiny", count=10)["trials"] == []
    for trial in first[:-1]:
        client.complete(trial, metrics=tiny_metrics(trial["parameters"]))
    # round not yet complete: the barrier still holds
    assert client.suggest("tests", "tiny", count=10)["trials"] == []
    client.complete(first[-1], metrics=tiny_metrics(first[-1]["parameters"]))
    second = client.suggest("tests", "tiny", count=10)["trials"]
    assert len(second) == 4
    assert [t["trial_id"] for t in second] == [5, 6, 7, 8]


def test_quota_caps_inflight_leases(server, client):
    client.create_study(tiny_config(budget=8, batch=4, max_inflight=2))
    granted = client.suggest("tests", "tiny", count=10)["trials"]
    assert len(granted) == 2  # the quota, not the round size
    assert client.suggest("tests", "tiny", count=1)["trials"] == []
    client.complete(granted[0], metrics=tiny_metrics(granted[0]["parameters"]))
    more = client.suggest("tests", "tiny", count=10)["trials"]
    assert len(more) == 1  # one slot freed


def test_work_round_robins_across_studies(server, client):
    client.create_study(tiny_config(study_id="alpha", budget=8, batch=4))
    client.create_study(tiny_config(study_id="beta", budget=8, batch=4))
    response = client.work(count=6)
    by_study = {}
    for trial in response["trials"]:
        by_study.setdefault(trial["study_id"], []).append(trial)
    assert len(response["trials"]) == 6
    assert set(by_study) == {"alpha", "beta"}
    assert len(by_study["alpha"]) == 3
    assert len(by_study["beta"]) == 3


def test_completion_is_idempotent_per_lease(server, client):
    client.create_study(tiny_config(budget=4, batch=4))
    trial = client.suggest("tests", "tiny", count=1)["trials"][0]
    metrics = tiny_metrics(trial["parameters"])
    first = client.complete(trial, metrics=metrics)
    assert first["duplicate"] is False
    retry = client.complete(trial, metrics=metrics)  # lost-response retry
    assert retry["duplicate"] is True
    status = client.study_status("tests", "tiny")
    assert status["completed"] == 1  # applied once


def test_completion_with_wrong_token_is_409(server, client):
    client.create_study(tiny_config(budget=4, batch=4))
    trial = client.suggest("tests", "tiny", count=1)["trials"][0]
    forged = dict(trial, lease_token="not-the-token")
    with pytest.raises(StaleLeaseError):
        client.complete(forged, metrics=tiny_metrics(trial["parameters"]))
    assert client.study_status("tests", "tiny")["completed"] == 0


def test_stop_study_ends_suggestions(server, client):
    client.create_study(tiny_config())
    client.stop_study("tests", "tiny")
    status = client.study_status("tests", "tiny")
    assert status["state"] == "STOPPED"
    assert client.suggest("tests", "tiny", count=1)["trials"] == []
    assert client.list_studies()["done"] is True


def test_metrics_snapshot_round_trips(server, client):
    client.create_study(tiny_config(budget=8, batch=4))
    drive_study(client, "tests", "tiny")
    snapshot = client.metrics()
    registry = Telemetry.from_snapshot(snapshot)
    assert registry.value("dse_trials_completed", study="tiny") == 8
    assert registry.value("dse_trials_suggested", study="tiny") == 8
    assert registry.value("dse_queue_depth", study="tiny") == 0
    assert registry.value("dse_inflight", study="tiny") == 0
    assert "dse_http_requests" in registry


def test_pareto_stream_yields_updates_until_done(server, client):
    client.create_study(tiny_config(budget=8, batch=4))

    def drive():
        driver = ServiceClient(server.url, worker_id="driver")
        try:
            drive_study(driver, "tests", "tiny", count=1)
        finally:
            driver.close()

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    items = list(client.stream_pareto("tests", "tiny"))
    thread.join(timeout=10)
    assert items, "the stream yielded nothing"
    assert items[-1]["done"] is True
    assert items[-1]["front"]
    completed = [item["completed"] for item in items]
    assert completed == sorted(completed)  # progress is monotone
    assert all(item["study"] == "owners/tests/studies/tiny"
               for item in items)


def test_stream_on_finished_study_ends_immediately(server, client):
    client.create_study(tiny_config(budget=4, batch=4))
    drive_study(client, "tests", "tiny")
    items = list(client.stream_pareto("tests", "tiny"))
    assert len(items) == 1
    assert items[0]["done"] is True


def test_normalize_config_validates_eagerly():
    with pytest.raises(ServiceError):
        normalize_config({"owner": "o", "study_id": "s", "budget": 0})
    with pytest.raises(ServiceError):
        normalize_config({"owner": "o", "study_id": "s", "budget": 4,
                          "space": "no-such-space"})
    config = normalize_config({"owner": "o", "study_id": "s", "budget": 4})
    assert config["batch"] >= 1
    assert config["max_inflight"] == config["batch"]
    assert config["goals"][0] == {"name": "cycles", "goal": "minimize"}


def test_cli_parsers_cover_service_commands():
    from repro.cli import build_parser

    parser = build_parser()
    serve_args = parser.parse_args(["dse", "serve", "--port", "9000",
                                    "--store-dir", "/tmp/x"])
    assert serve_args.dse_command == "serve"
    assert serve_args.port == 9000
    work_args = parser.parse_args(["dse", "work", "--url",
                                   "http://127.0.0.1:9000"])
    assert work_args.dse_command == "work"
    run_args = parser.parse_args(["dse", "--trials", "6",
                                  "--service-url", "http://127.0.0.1:9000"])
    assert run_args.service_url == "http://127.0.0.1:9000"
    assert run_args.dse_command is None


def test_batch_zero_is_400(server, client):
    # 0 is a bad value, not a missing one: no silent default
    with pytest.raises(ClientError) as err:
        client.create_study(tiny_config(batch=0))
    assert err.value.status == 400
    assert client.list_studies()["studies"] == []


@pytest.mark.parametrize("max_inflight", [0, -1])
def test_max_inflight_below_one_is_400(server, client, max_inflight):
    # such a study could never lease a trial to any worker
    with pytest.raises(ClientError) as err:
        client.create_study(tiny_config(max_inflight=max_inflight))
    assert err.value.status == 400
    assert client.list_studies()["studies"] == []


def test_null_scheduling_values_take_the_defaults():
    config = normalize_config({"owner": "o", "study_id": "s", "budget": 4,
                               "batch": None, "max_inflight": None})
    assert config["batch"] == DEFAULT_BATCH
    assert config["max_inflight"] == DEFAULT_BATCH


def test_pareto_stream_subscriber_attaching_late(server, client):
    """A subscriber that attaches after some completions gets the
    current front, then one item per later front change, then done."""
    client.create_study(tiny_config(budget=12, batch=4))
    completed = []

    def complete_next():
        trial = client.suggest("tests", "tiny", count=1)["trials"][0]
        metrics = tiny_metrics(trial["parameters"])
        client.complete(trial, metrics=metrics)
        completed.append({"trial_id": trial["trial_id"],
                          "parameters": trial["parameters"],
                          "metrics": metrics})

    def front():
        # the definition: non-dominated trials, sorted by metrics, ties
        # in trial order
        def key(t):
            return (t["metrics"]["a"], t["metrics"]["b"])
        return [t for t in sorted(completed, key=key)
                if not any(dominates(key(o), key(t)) for o in completed)]

    for _ in range(5):
        complete_next()
    stream = client.stream_pareto("tests", "tiny")
    first = next(stream)
    assert (first["completed"], first["front"], first["done"]) == \
        (5, front(), False)
    changes = []
    while len(completed) < 12:
        before = front()
        complete_next()
        if front() != before:
            changes.append((len(completed), front(), False))
    rest = [(item["completed"], item["front"], item["done"])
            for item in stream]
    assert rest == changes + [(12, front(), True)]


def test_in_process_run_builds_no_front_until_one_is_read(monkeypatch):
    import repro.dse.service as service_module

    built = []
    real_front = service_module.pareto_front

    def counting_front(*args, **kwargs):
        built.append(1)
        return real_front(*args, **kwargs)

    monkeypatch.setattr(service_module, "pareto_front", counting_front)
    study = DseService().create_study(tiny_config())
    study.run(lambda records: [
        {"trial_id": r.trial_id, "lease_token": r.lease_token,
         "metrics": tiny_metrics(r.parameters)} for r in records])
    assert study.state == "DONE"
    assert study.status()["completed"] == 12
    assert len(built) == 1  # status() is the first reader
    assert study.status()["front_size"] == len(study.front())
