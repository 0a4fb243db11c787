"""Persistent sharded study store: crash-safe studies and trials on disk.

The layout is the :class:`~repro.dse.cache.EvaluationCache` layout,
promoted from evaluation outcomes to whole studies, on the primitives
of :mod:`repro.core.castore`: every record is one JSON file at a
content-addressed path ``root/<key[:2]>/...``, written atomically so a
crash (or a concurrent reader) can never observe a half-written record.
The key of a study is the SHA-256 of ``(owner, study_id)``; the key of
a trial is the SHA-256 of ``(study_key, trial_id)``:

```
store_root/
  <sk[:2]>/<sk>/study.json                    # config + lifecycle state
  <sk[:2]>/<sk>/trials/<tk[:2]>/<tk>.json     # one TrialRecord each
```

Unreadable, truncated, or foreign-schema trial files are *skipped and
counted*, never crashed on: a torn write loses at most that one record,
and the service re-issues the lost trial while every other completed
trial survives.  This is the property the fault-injection suite
(`tests/test_dse_service_faults.py`) exercises directly.  Unlike the
caches, a store write that fails raises: a trial is persisted before it
is acknowledged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Every study and trial write calls this module's atomic_write_json.
from ..core.castore import MISS, atomic_write_json, content_key, read_json

STORE_SCHEMA_VERSION = 1

#: Trial lifecycle states (the lease protocol's state machine).
PENDING = "PENDING"        # suggested, waiting for a worker
CLAIMED = "CLAIMED"        # leased to a worker, deadline pending
COMPLETED = "COMPLETED"    # metrics (or the infeasible verdict) recorded

TRIAL_STATES = (PENDING, CLAIMED, COMPLETED)


def study_key(owner, study_id):
    """Content address of a study: SHA-256 over (owner, study_id)."""
    return content_key({"schema": STORE_SCHEMA_VERSION, "owner": str(owner),
                        "study_id": str(study_id)})


def trial_key(study, trial_id):
    """Content address of a trial within its study."""
    return content_key({"schema": STORE_SCHEMA_VERSION, "study": study,
                        "trial_id": int(trial_id)})


@dataclass
class TrialRecord:
    """One trial as the store sees it: parameters, lease, and outcome.

    ``lease_deadline`` is a wall-clock instant (the service's injectable
    clock), persisted so a restarted server re-adopts in-flight trials:
    a live lease keeps its worker, an expired one is re-issued.
    """

    trial_id: int
    parameters: dict
    state: str = PENDING
    metrics: dict = field(default_factory=dict)
    infeasible: bool = False
    worker: str = ""
    lease_token: str = ""
    lease_deadline: float = 0.0
    cache_hit: bool = False
    seconds: float = 0.0

    def to_record(self):
        return {
            "schema": STORE_SCHEMA_VERSION,
            "trial_id": self.trial_id,
            "parameters": dict(self.parameters),
            "state": self.state,
            "metrics": dict(self.metrics),
            "infeasible": self.infeasible,
            "worker": self.worker,
            "lease_token": self.lease_token,
            "lease_deadline": self.lease_deadline,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
        }

    @classmethod
    def from_record(cls, record):
        if not isinstance(record, dict):
            # valid JSON need not be a record document (a bare "0" is
            # valid JSON); garbage must read as unreadable, not crash
            raise ValueError(f"not a record document: {record!r}")
        if record.get("schema") != STORE_SCHEMA_VERSION:
            raise ValueError(f"foreign schema {record.get('schema')!r}")
        state = record["state"]
        if state not in TRIAL_STATES:
            raise ValueError(f"unknown trial state {state!r}")
        return cls(
            trial_id=int(record["trial_id"]),
            parameters=dict(record["parameters"]),
            state=state,
            metrics=dict(record["metrics"]),
            infeasible=bool(record["infeasible"]),
            worker=str(record.get("worker", "")),
            lease_token=str(record.get("lease_token", "")),
            lease_deadline=float(record.get("lease_deadline", 0.0)),
            cache_hit=bool(record.get("cache_hit", False)),
            seconds=float(record.get("seconds", 0.0)),
        )


class StudyStore:
    """Disk home for studies and their trials (may be ``None``-rooted).

    With ``root=None`` every write is a no-op and every read comes back
    empty — the service runs purely in memory (handy for tests and
    throwaway studies) with the exact same code path.
    """

    def __init__(self, root=None):
        self.root = os.fspath(root) if root is not None else None
        if self.root is not None:
            os.makedirs(self.root, exist_ok=True)

    @property
    def persistent(self):
        return self.root is not None

    # --- paths ------------------------------------------------------------------
    def _study_dir(self, key):
        return os.path.join(self.root, key[:2], key)

    def _trial_path(self, skey, trial_id):
        tkey = trial_key(skey, trial_id)
        return os.path.join(self._study_dir(skey), "trials", tkey[:2],
                            tkey + ".json")

    # --- studies ----------------------------------------------------------------
    def write_study(self, config):
        """Persist a study config document (atomic; idempotent)."""
        if self.root is None:
            return
        key = study_key(config["owner"], config["study_id"])
        record = {"schema": STORE_SCHEMA_VERSION}
        record.update(config)
        atomic_write_json(os.path.join(self._study_dir(key), "study.json"),
                          record)

    def load_study(self, owner, study_id):
        """The persisted config, or ``None`` if absent/unreadable."""
        if self.root is None:
            return None
        key = study_key(owner, study_id)
        return self._read_study(os.path.join(self._study_dir(key),
                                             "study.json"))

    @staticmethod
    def _read_study(path):
        record = read_json(path, STORE_SCHEMA_VERSION)
        return None if record is MISS else record

    def list_studies(self):
        """Every readable persisted study config, sorted by resource
        identity so resume order is deterministic."""
        if self.root is None:
            return []
        configs = []
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for key in sorted(os.listdir(shard_dir)):
                record = self._read_study(
                    os.path.join(shard_dir, key, "study.json"))
                if record is not None:
                    configs.append(record)
        configs.sort(key=lambda c: (c.get("owner", ""), c.get("study_id", "")))
        return configs

    # --- trials -----------------------------------------------------------------
    def write_trial(self, owner, study_id, record):
        """Persist one :class:`TrialRecord` (atomic publish)."""
        if self.root is None:
            return
        skey = study_key(owner, study_id)
        atomic_write_json(self._trial_path(skey, record.trial_id),
                          record.to_record())

    def load_trials(self, owner, study_id):
        """``(trials_by_id, unreadable_count)`` for one study.

        Torn, truncated, garbage, or foreign-schema files are counted
        and skipped — the service re-issues what was lost and keeps
        everything else.
        """
        if self.root is None:
            return {}, 0
        skey = study_key(owner, study_id)
        trials_dir = os.path.join(self._study_dir(skey), "trials")
        records, unreadable = {}, 0
        if not os.path.isdir(trials_dir):
            return records, unreadable
        for shard in sorted(os.listdir(trials_dir)):
            shard_dir = os.path.join(trials_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    # a miss is no record document, so it raises too
                    record = TrialRecord.from_record(read_json(
                        os.path.join(shard_dir, name), STORE_SCHEMA_VERSION))
                except (ValueError, KeyError, TypeError):
                    unreadable += 1
                    continue
                records[record.trial_id] = record
        return records, unreadable
