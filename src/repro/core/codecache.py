"""Persistent cross-process code cache for generated simulator code.

Tier-2 basic-block translation (:mod:`repro.cpu.translate`) and the
compiled RTL backend (:mod:`repro.rtl.compile`) both *code-generate*
Python source deterministically from their inputs: a block's source is
a pure function of the instruction bytes and the timing configuration;
a module's ``comb``/``tick`` pair is a pure function of the netlist
structure.  That makes the generated source content-addressable — the
same firmware explored by forty DSE workers should be code-generated
*once per host, ever*, not once per worker per trial.

:class:`CodeCache` keys generated source by a SHA-256 of the canonical
JSON of the generator's inputs, on the shared content-addressed store
(:mod:`repro.core.castore`): sharded files written atomically behind an
in-process dict, so the disk is touched once per key per process, and
corrupt or foreign-schema files read as misses.  It stores *source
text*, never code objects: every consumer re-``exec``-utes the source
and re-binds its own live objects (machine methods, cache instances,
signal slots), so any process can consume any other's entries.

Each generator also keys its entries by :func:`generator_digest`, a
hash of its own source, so an entry written by an edited generator is a
miss rather than stale source.

A process-wide default cache is configured with :func:`configure` or
the ``REPRO_CODECACHE_DIR`` environment variable; ``None`` means
in-memory only (still deduplicates within the process).
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys

# MISS and canonical_payload are re-exported for the cache's consumers.
from .castore import MISS, ContentStore, content_key
from .castore import canonical_json as canonical_payload

CODECACHE_SCHEMA_VERSION = 1


def code_key(kind, payload):
    """Content-address one generator invocation: its kind + inputs."""
    return content_key({"kind": kind, "schema": CODECACHE_SCHEMA_VERSION,
                        "payload": payload})


@functools.lru_cache(maxsize=None)
def generator_digest(module_name):
    """SHA-256 of a code generator's own source file, read once per
    process.  Generators put it in the payload they pass to
    :func:`code_key`, so any edit to a generator turns the entries an
    older version wrote into misses."""
    with open(sys.modules[module_name].__file__, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class CodeCache(ContentStore):
    """Generated-source cache: a JSON value document per key.

    ``cache_dir=None`` keeps entries in memory only — the process still
    deduplicates repeat generations, but nothing persists.
    """

    schema = CODECACHE_SCHEMA_VERSION

    def encode(self, key, value):
        return {"key": key, "value": value}

    def decode(self, document):
        return document["value"]


# --- the process-wide default ---------------------------------------------------
_default_cache = None


def default_cache():
    """The process-wide :class:`CodeCache` (created on first use from
    ``REPRO_CODECACHE_DIR``, in-memory if unset)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = CodeCache(os.environ.get("REPRO_CODECACHE_DIR")
                                   or None)
    return _default_cache


def configure(cache_dir):
    """Point the process-wide cache at ``cache_dir`` (None = in-memory).

    Returns the new cache.  Existing consumers that captured the old
    default keep it; new :func:`default_cache` calls see this one.
    """
    global _default_cache
    _default_cache = CodeCache(cache_dir)
    return _default_cache
