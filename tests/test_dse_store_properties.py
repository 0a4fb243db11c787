"""Property tests for the persisted stores and the lease state machine.

Hypothesis drives three obligations the example-based suites can't pin:

- arbitrary trial records (unicode parameter names, odd floats,
  empty strings) round-trip through the sharded JSON store bit-exactly;
- all three content-addressed stores (the evaluation cache, the compile
  cache and the study store) read torn, garbage and foreign-schema
  files as misses, and so a FIFO, a symlink to ``/dev/zero``, a
  directory, an oversized file or a file they may not open at an
  entry's path, publish atomically without leftover temp files, keep
  their keys and read files in the format they have always written;
- under *any* interleaving of claims, completions, stale retries, and
  clock advances, the lease bookkeeping holds its invariants: every
  trial completes exactly once, stale tokens never win, and the number
  of live leases never exceeds the quota.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.castore import MAX_DOCUMENT_BYTES, MISS, read_json
from repro.core.codecache import CodeCache, code_key
from repro.dse import DseService, ServiceError
from repro.dse.cache import EvaluationCache, cache_key
from repro.dse.runner import DsePoint
from repro.dse.store import (
    CLAIMED,
    COMPLETED,
    PENDING,
    StudyStore,
    TrialRecord,
    atomic_write_json,
    study_key,
    trial_key,
)

# JSON-representable parameter values: what the wire and the space allow
scalars = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.booleans(),
    st.text(max_size=24),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

parameters = st.dictionaries(st.text(max_size=24), scalars, max_size=6)
metric_maps = st.dictionaries(
    st.text(min_size=1, max_size=24),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    max_size=4)

trial_records = st.builds(
    TrialRecord,
    trial_id=st.integers(min_value=1, max_value=10**6),
    parameters=parameters,
    state=st.sampled_from([PENDING, CLAIMED, COMPLETED]),
    metrics=metric_maps,
    infeasible=st.booleans(),
    worker=st.text(max_size=24),
    lease_token=st.text(max_size=40),
    lease_deadline=st.floats(min_value=0, allow_nan=False,
                             allow_infinity=False),
    cache_hit=st.booleans(),
    seconds=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(record=trial_records)
def test_trial_record_round_trips_through_store(tmp_path_factory, record):
    root = tmp_path_factory.mktemp("store")
    store = StudyStore(str(root))
    store.write_trial("owner-é", "study-中", record)
    loaded, unreadable = store.load_trials("owner-é", "study-中")
    assert unreadable == 0
    assert loaded == {record.trial_id: record}


@settings(max_examples=60, deadline=None)
@given(record=trial_records)
def test_trial_record_wire_form_is_json_stable(record):
    wire = json.loads(json.dumps(record.to_record()))
    assert TrialRecord.from_record(wire) == record


@settings(max_examples=30, deadline=None)
@given(owner=st.text(min_size=1, max_size=24),
       study_id=st.text(min_size=1, max_size=24),
       budget=st.integers(min_value=1, max_value=10**6))
def test_study_config_round_trips_through_store(tmp_path_factory, owner,
                                                study_id, budget):
    root = tmp_path_factory.mktemp("store")
    store = StudyStore(str(root))
    config = {"owner": owner, "study_id": study_id, "budget": budget,
              "state": "ACTIVE"}
    store.write_study(config)
    loaded = store.load_study(owner, study_id)
    for field in config:
        assert loaded[field] == config[field]
    listed = store.list_studies()
    assert len(listed) == 1
    assert listed[0]["study_id"] == study_id


def test_keys_are_content_addresses():
    assert study_key("a", "b") == study_key("a", "b")
    assert study_key("a", "b") != study_key("a", "c")
    assert study_key("ab", "") != study_key("a", "b")  # no concatenation
    skey = study_key("a", "b")
    assert trial_key(skey, 1) != trial_key(skey, 2)


@settings(max_examples=25, deadline=None)
@given(garbage=st.binary(max_size=64))
def test_store_tolerates_arbitrary_garbage_files(tmp_path_factory, garbage):
    root = tmp_path_factory.mktemp("store")
    store = StudyStore(str(root))
    good = TrialRecord(trial_id=1, parameters={"x": 1})
    store.write_trial("o", "s", good)
    skey = study_key("o", "s")
    shard = os.path.join(str(root), skey[:2], skey, "trials", "00")
    os.makedirs(shard, exist_ok=True)
    with open(os.path.join(shard, "garbage.json"), "wb") as handle:
        handle.write(garbage)
    loaded, unreadable = store.load_trials("o", "s")
    assert loaded == {1: good}
    # the garbage never masquerades as a readable record unless it
    # happens to be a valid record document of the current schema
    try:
        TrialRecord.from_record(json.loads(garbage.decode("utf-8")))
        expected = 0
    except (ValueError, KeyError, TypeError, AttributeError):
        expected = 1
    assert unreadable == expected


def test_atomic_write_never_leaves_temp_files(tmp_path):
    target = str(tmp_path / "deep" / "nested" / "doc.json")
    atomic_write_json(target, {"ok": True})
    atomic_write_json(target, {"ok": False})  # overwrite is atomic too
    with open(target) as handle:
        assert json.load(handle) == {"ok": False}
    leftovers = [name for name in os.listdir(os.path.dirname(target))
                 if name.endswith(".tmp")]
    assert leftovers == []


#: A JSON document nested deeper than the parser's recursion limit.
DEEPLY_NESTED = b"[" * 200_000


def test_list_studies_skips_a_deeply_nested_study_file(tmp_path):
    store = StudyStore(str(tmp_path))
    store.write_study({"owner": "o", "study_id": "good", "budget": 1})
    skey = study_key("o", "nested")
    study_dir = tmp_path / skey[:2] / skey
    study_dir.mkdir(parents=True)
    (study_dir / "study.json").write_bytes(DEEPLY_NESTED)
    assert [config["study_id"] for config in store.list_studies()] == ["good"]
    assert store.load_study("o", "nested") is None


def test_memory_store_is_a_quiet_noop():
    store = StudyStore(None)
    assert not store.persistent
    store.write_study({"owner": "o", "study_id": "s", "budget": 1})
    store.write_trial("o", "s", TrialRecord(trial_id=1, parameters={}))
    assert store.load_study("o", "s") is None
    assert store.list_studies() == []
    assert store.load_trials("o", "s") == ({}, 0)


# --------------------------------------------------------------------------------
# The three content-addressed stores, one property suite
# --------------------------------------------------------------------------------

def test_keys_are_pinned():
    """The keys every persisted file lives under never change."""
    assert cache_key({"x": 1, "y": "big"}, "cfu2", model="m", board="b") == \
        "dc5d68ee142754f7a54ff2b6c07cc1486efdf4e6ab99afb79f1026df8bd7af71"
    assert code_key("tier2-block", {"pc": 4096, "words": [19, 147]}) == \
        "362afbf7e154f92d4b8325a1a0c474f864f5cda24cf0d0ac51e665b5f3eaf64b"
    skey = study_key("fig7", "fig7-cfu1")
    assert skey == \
        "917f37ceaadfd17b5671a3a4f773de9405bbaae426a195f8b2e0245c554d81fb"
    assert trial_key(skey, 7) == \
        "e33a7667cb1ab42323897612cd239aced9be75d23edb946efed30e609970cf0c"


class StoreCase:
    """One entry of one store: ``open(root)`` the store, ``put`` and
    ``get`` the entry (a miss reads as MISS)."""

    raises_on_write_failure = False

    def write(self, root, value):
        self.put(self.open(root), value)

    def read(self, root):
        return self.get(self.open(root))


class EvaluationCacheStore(StoreCase):
    """One evaluation outcome under a fixed key."""

    key = cache_key({"x": 1, "y": "big"}, "cfu2", model="m", board="b")
    path = os.path.join(key[:2], key + ".json")
    value = DsePoint.from_record({"family": "cfu2",
                                  "parameters": {"x": 1, "y": "big"},
                                  "cycles": 123.5, "logic_cells": 42})
    other = None  # the "does not fit" verdict
    # the file format every earlier version wrote
    legacy = ('{"fit": true, "point": {"cycles": 123.5, "family": "cfu2", '
              '"logic_cells": 42, "parameters": {"x": 1, "y": "big"}}, '
              '"schema": 1}')
    open = staticmethod(EvaluationCache)

    def put(self, cache, value):
        cache.put(self.key, value)

    def get(self, cache):
        return cache.get(self.key)


class CodeCacheStore(EvaluationCacheStore):
    """One generated-source document under a fixed key."""

    key = code_key("tier2-block", {"pc": 4096, "words": [19, 147]})
    path = os.path.join(key[:2], key + ".json")
    value = {"source": "x = 1", "need": ["_md"]}
    other = {"source": "x = 2", "need": []}
    legacy = ('{"schema": 1, "key": "' + key + '", "value": '
              '{"source": "x = 1", "need": ["_md"]}}')
    open = staticmethod(CodeCache)


class StudyStoreTrial(StoreCase):
    """One trial record of one study (an unreadable one is skipped)."""

    skey = study_key("fig7", "fig7-cfu1")
    tkey = trial_key(skey, 7)
    path = os.path.join(skey[:2], skey, "trials", tkey[:2], tkey + ".json")
    value = TrialRecord(trial_id=7, parameters={"x": 1}, state=COMPLETED,
                        metrics={"a": 1.5}, worker="w0",
                        lease_token="fig7-cfu1/7#3", lease_deadline=12.5,
                        cache_hit=True, seconds=0.25)
    other = TrialRecord(trial_id=7, parameters={"x": 1})
    legacy = ('{"cache_hit": true, "infeasible": false, "lease_deadline": '
              '12.5, "lease_token": "fig7-cfu1/7#3", "metrics": {"a": 1.5}, '
              '"parameters": {"x": 1}, "schema": 1, "seconds": 0.25, '
              '"state": "COMPLETED", "trial_id": 7, "worker": "w0"}')
    raises_on_write_failure = True  # a trial is persisted before it is acked
    open = staticmethod(StudyStore)

    def put(self, store, value):
        store.write_trial("fig7", "fig7-cfu1", value)

    def get(self, store):
        return store.load_trials("fig7", "fig7-cfu1")[0].get(7, MISS)


STORES = [EvaluationCacheStore(), CodeCacheStore(), StudyStoreTrial()]
by_name = pytest.mark.parametrize("store", STORES,
                                  ids=lambda store: type(store).__name__)


def leftovers(root):
    return [name for _, _, names in os.walk(root) for name in names
            if name.endswith(".tmp")]


@by_name
def test_store_reads_its_legacy_file_format(tmp_path, store):
    path = tmp_path / store.path
    path.parent.mkdir(parents=True)
    path.write_text(store.legacy)
    assert store.read(str(tmp_path)) == store.value


@by_name
@settings(max_examples=20, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_store_reads_a_torn_file_as_a_miss(tmp_path_factory, store, cut):
    root = tmp_path_factory.mktemp("store")
    store.write(str(root), store.value)
    path = root / store.path
    whole = path.read_bytes()
    path.write_bytes(whole[:int(cut * len(whole))])
    assert store.read(str(root)) is MISS


@by_name
@settings(max_examples=25, deadline=None)
@given(garbage=st.binary(max_size=64))
@example(garbage=DEEPLY_NESTED)
def test_store_reads_a_garbage_file_as_a_miss(tmp_path_factory, store,
                                              garbage):
    try:
        assume(json.loads(garbage.decode("utf-8")).get("schema") != 1)
    except (ValueError, AttributeError, RecursionError):
        pass  # not a JSON object: garbage by construction
    root = tmp_path_factory.mktemp("store")
    store.write(str(root), store.value)
    (root / store.path).write_bytes(garbage)
    assert store.read(str(root)) is MISS


@by_name
@settings(max_examples=10, deadline=None)
@given(schema=st.one_of(st.integers().filter(lambda n: n != 1), st.none(),
                        st.text(max_size=4)))
def test_store_reads_a_foreign_schema_as_a_miss(tmp_path_factory, store,
                                                schema):
    root = tmp_path_factory.mktemp("store")
    store.write(str(root), store.value)
    path = root / store.path
    document = json.loads(path.read_text())
    document["schema"] = schema
    path.write_text(json.dumps(document))
    assert store.read(str(root)) is MISS


@by_name
def test_store_overwrites_atomically_without_temp_files(tmp_path, store):
    store.write(str(tmp_path), store.value)
    store.write(str(tmp_path), store.other)
    assert store.read(str(tmp_path)) == store.other
    assert leftovers(tmp_path) == []


@by_name
def test_store_failed_write_leaves_no_temp_file(tmp_path, store, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    if store.raises_on_write_failure:
        with pytest.raises(OSError):
            store.write(str(tmp_path), store.value)
    else:
        store.write(str(tmp_path), store.value)  # memory only, no raise
    monkeypatch.undo()
    assert leftovers(tmp_path) == []
    assert store.read(str(tmp_path)) is MISS


@by_name
def test_store_unwritable_directory_policy(tmp_path, store):
    """The caches fall back to memory only; the study store raises."""
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    root = str(blocked / "sub")
    if store.raises_on_write_failure:
        with pytest.raises(OSError):
            store.put(store.open(root), store.value)
    else:
        backing = store.open(root)
        store.put(backing, store.value)  # must not raise
        assert store.get(backing) == store.value


def make_oversized(path):
    """A sparse file one byte over the read cap."""
    with open(path, "wb") as handle:
        handle.truncate(MAX_DOCUMENT_BYTES + 1)


def replacing(make):
    """A maker that swaps the entry at ``path`` for what ``make`` puts
    there."""
    def replace(path):
        os.unlink(path)
        make(path)
    return replace


#: Ways to spoil a valid entry at its path.  Read naively, the FIFO
#: blocks forever (no writer) and the ``/dev/zero`` symlink reads until
#: memory runs out; the unreadable entry is intact, but its mode grants
#: no read permission.
HOSTILE_PATHS = {
    "fifo": replacing(lambda path: os.mkfifo(path)),
    "dev-zero-symlink": replacing(lambda path: os.symlink("/dev/zero", path)),
    "directory": replacing(os.mkdir),
    "oversized": replacing(make_oversized),
    "unreadable": lambda path: os.chmod(path, 0),
}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Prefix of every child script: cap the child at 1 GiB of address
#: space, so a read that never ends fails with MemoryError instead of
#: exhausting the host, and make ``os.open`` refuse a file whose mode
#: grants no read permission with EACCES, as it does for any user but
#: root, so the unreadable cases hold when the suite runs as root.
CAPPED_CHILD = """\
import errno, os, resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
root_open = os.open
def open_without_root_override(path, flags, *args, **kwargs):
    if os.path.exists(path) and not os.stat(path).st_mode & 0o444:
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    return root_open(path, flags, *args, **kwargs)
os.open = open_without_root_override
"""

posix_only = pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                reason="FIFOs, /dev/zero and RLIMIT_AS are POSIX")


def run_capped(code, *args, timeout=60):
    """Standard output of ``code`` run in a fresh, address-space-capped
    interpreter; a read that hangs times out and fails the test rather
    than hanging the suite."""
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD + code, *args], cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


@posix_only
@by_name
def test_store_reads_a_hostile_path_as_a_miss(tmp_path, store):
    roots = {}
    for name, make in HOSTILE_PATHS.items():
        root = tmp_path / name
        store.write(str(root), store.value)
        make(str(root / store.path))
        roots[str(root)] = name
    verdicts = run_capped(
        "from tests.test_dse_store_properties import MISS, STORES\n"
        "store = next(s for s in STORES if type(s).__name__ == sys.argv[1])\n"
        "for root in sys.argv[2:]:\n"
        "    print(store.read(root) is MISS, flush=True)\n",
        type(store).__name__, *roots)
    assert dict(zip(roots.values(), verdicts.split())) == \
        dict.fromkeys(roots.values(), "True")


@posix_only
def test_load_trials_counts_a_fifo_and_keeps_the_rest(tmp_path):
    store = StudyStore(str(tmp_path))
    store.write_trial("o", "s", TrialRecord(trial_id=1, parameters={"x": 1}))
    skey = study_key("o", "s")
    shard = tmp_path / skey[:2] / skey / "trials" / "00"
    shard.mkdir(parents=True, exist_ok=True)
    os.mkfifo(shard / "fifo.json")
    loaded = run_capped(
        "from repro.dse.store import StudyStore\n"
        "records, unreadable = StudyStore(sys.argv[1]).load_trials('o', 's')\n"
        "print(sorted(records), unreadable)\n",
        str(tmp_path))
    assert loaded.split() == ["[1]", "1"]


@posix_only
def test_study_store_skips_and_counts_unreadable_files(tmp_path):
    """A trial or study file that cannot be opened is skipped:
    ``load_trials`` counts it and ``list_studies`` leaves it out."""
    store = StudyStore(str(tmp_path))
    for study_id in ("kept", "locked"):
        store.write_study({"owner": "o", "study_id": study_id})
    for trial_id in (1, 2):
        store.write_trial("o", "kept", TrialRecord(trial_id=trial_id,
                                                   parameters={"x": 1}))
    skey, lkey = study_key("o", "kept"), study_key("o", "locked")
    tkey = trial_key(skey, 2)
    os.chmod(tmp_path / skey[:2] / skey / "trials" / tkey[:2]
             / (tkey + ".json"), 0)
    os.chmod(tmp_path / lkey[:2] / lkey / "study.json", 0)
    loaded = run_capped(
        "from repro.dse.store import StudyStore\n"
        "store = StudyStore(sys.argv[1])\n"
        "records, unreadable = store.load_trials('o', 'kept')\n"
        "print(sorted(records), unreadable)\n"
        "print([config['study_id'] for config in store.list_studies()])\n",
        str(tmp_path))
    assert loaded.split() == ["[1]", "1", "['kept']"]


def test_read_json_caps_a_document_at_max_document_bytes(tmp_path):
    """A valid document padded to the cap reads; one more byte is a miss."""
    path = tmp_path / "padded.json"
    document = json.dumps({"schema": 1, "ok": True}).encode()
    path.write_bytes(document.ljust(MAX_DOCUMENT_BYTES))
    assert read_json(str(path), 1) == {"schema": 1, "ok": True}
    with open(path, "ab") as handle:
        handle.write(b" ")
    assert read_json(str(path), 1) is MISS


# --------------------------------------------------------------------------------
# Lease bookkeeping invariants under randomized interleavings
# --------------------------------------------------------------------------------

class FakeClock:
    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       budget=st.integers(min_value=1, max_value=14),
       batch=st.integers(min_value=1, max_value=5),
       quota=st.integers(min_value=1, max_value=5))
def test_lease_invariants_under_random_interleavings(seed, budget, batch,
                                                     quota):
    """Claims, completions, stale retries, and expiries in random order:
    every trial completes exactly once and quotas are never exceeded."""
    rng = random.Random(seed)
    clock = FakeClock()
    service = DseService(clock=clock, lease_seconds=10.0)
    study = service.create_study({
        "owner": "prop", "study_id": "lease", "budget": budget,
        "batch": batch, "max_inflight": quota, "algorithm": "random",
        "seed": seed % 1000, "goals": ["a", "b"],
        "space": {"parameters": [{"name": "x", "values": [0, 1, 2]},
                                 {"name": "y", "values": [0, 1, 2]}]},
    })

    held = []          # (trial_id, token) snapshots, including stale ones
    completions = {}   # trial_id -> completion count (must stay at 1)
    steps = 0
    while study.state == "ACTIVE" and steps < 600:
        steps += 1
        action = rng.choice(["claim", "claim", "complete", "complete",
                             "stale", "expire"])
        if action == "claim":
            worker = f"w{rng.randrange(4)}"
            for record in study.claim(worker, rng.randint(1, 3)):
                held.append((record.trial_id, record.lease_token))
        elif action == "complete" and held:
            trial_id, token = held.pop(rng.randrange(len(held)))
            try:
                result = study.complete(
                    trial_id, token, metrics={"a": 1.0, "b": 2.0})
            except ServiceError as error:
                assert error.status == 409  # stale or superseded lease
            else:
                assert result["ok"]
                if not result["duplicate"]:
                    completions[trial_id] = completions.get(trial_id, 0) + 1
        elif action == "stale" and held:
            # a dead worker retries an old token without forgetting it
            trial_id, token = rng.choice(held)
            try:
                result = study.complete(
                    trial_id, token, metrics={"a": 9.0, "b": 9.0})
            except ServiceError as error:
                assert error.status == 409
            else:
                if not result["duplicate"]:
                    completions[trial_id] = completions.get(trial_id, 0) + 1
                held.remove((trial_id, token))
        elif action == "expire":
            clock.now += rng.choice([3.0, 11.0])

        # the standing invariants, checked at every step
        assert study.inflight() <= quota
        assert study.completed_count() == len(completions)
        assert all(count == 1 for count in completions.values())
        assert len(study.study.trials) <= budget

    # drain deterministically: claim-and-complete until done
    for _ in range(600):
        if study.state != "ACTIVE":
            break
        granted = study.claim("drain", batch)
        if not granted:
            clock.now += 11.0  # only live leases can block the drain
            continue
        for record in granted:
            result = study.complete(record.trial_id, record.lease_token,
                                    metrics={"a": 1.0, "b": 2.0})
            if not result["duplicate"]:
                completions[record.trial_id] = \
                    completions.get(record.trial_id, 0) + 1

    assert study.state == "DONE"
    assert study.completed_count() == budget
    assert sorted(completions) == list(range(1, budget + 1))
    assert all(count == 1 for count in completions.values())
