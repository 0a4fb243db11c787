"""Content-addressed persistent cache for DSE evaluations.

A cache key is the SHA-256 of a canonical JSON document over
``(parameters, family, model, board)`` plus the schema version, so
equivalent configurations hash identically regardless of dict insertion
order and distinct configurations do not collide.  A value is one
evaluation outcome: a :class:`~repro.dse.runner.DsePoint`, or the
explicit "does not fit" verdict (``None``) — infeasibility is cached
too, so warm reruns skip fit rejections as well.

Storage is the shared content-addressed store
(:mod:`repro.core.castore`): one file per entry under
``cache_dir/<k[:2]>/<key>.json``, written atomically, with unreadable,
truncated, or foreign-schema files read as misses and rebuilt on the
next store.
"""

from __future__ import annotations

# MISS is re-exported: "not cached" as distinct from "cached infeasible".
from ..core.castore import MISS, ContentStore, content_key

CACHE_SCHEMA_VERSION = 1


def canonical_payload(parameters, family, model=None, board=None):
    """The identity of one evaluation, as plain JSON-able data."""
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "family": family,
        "parameters": {str(name): parameters[name] for name in parameters},
        "model": model,
        "board": board,
    }


def cache_key(parameters, family, model=None, board=None):
    """Content address: SHA-256 over the canonical JSON document."""
    return content_key(canonical_payload(parameters, family, model=model,
                                         board=board))


class EvaluationCache(ContentStore):
    """Two-level (memory, then optional disk) map from key to outcome.

    With no ``cache_dir`` this is a per-process memo; with one, entries
    persist across processes and runs.  ``get`` returns :data:`MISS`
    when the key is absent (``None`` is a real cached value: infeasible).
    """

    schema = CACHE_SCHEMA_VERSION

    def encode(self, key, value):
        record = {"fit": value is not None}
        if value is not None:
            record["point"] = value.to_record()
        return record

    def decode(self, record):
        from .runner import DsePoint

        if not record["fit"]:
            return None
        return DsePoint.from_record(record["point"])
