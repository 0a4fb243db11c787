"""The one content-addressed store under every persisted cache and record.

The DSE evaluation cache (:mod:`repro.dse.cache`), the study store
(:mod:`repro.dse.store`) and the compile cache (:mod:`repro.core.codecache`)
differ only in how they derive a key and encode a value.  They share:

- :func:`content_key` — SHA-256 over canonical JSON (sorted keys, no
  whitespace, ``repr`` for anything JSON cannot encode), so equal
  documents hash equally whatever their dict insertion order;
- :func:`atomic_write_json` — temp file + rename, so a crash or a
  concurrent reader never observes a half-written file;
- :func:`read_json` — missing, torn, garbage, too deeply nested,
  non-object and foreign-schema files all read as :data:`MISS`, never
  as an exception, and so does anything that is not a regular file of
  at most :data:`MAX_DOCUMENT_BYTES` (a FIFO, a device, a directory);
- :class:`ContentStore` — an in-memory dict in front of sharded files
  ``root/<key[:2]>/<key>.json``, with hit/miss/store tallies.  A
  directory that cannot be written degrades the store to memory only:
  a cache may decline to help, never fail a run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import stat
import tempfile

#: Sentinel distinguishing "no entry" from a stored falsy value.
MISS = object()

#: The largest file :func:`read_json` reads: the wire's body cap
#: (``repro.core.wire.MAX_BODY_BYTES``), restated because the stores sit
#: below the wire and do not import it.
MAX_DOCUMENT_BYTES = 16 * 1024 * 1024


def canonical_json(payload):
    """The canonical JSON text of ``payload`` (what keys hash)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)


def content_key(payload):
    """Content address: SHA-256 hex digest of the canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def atomic_write_json(path, payload):
    """Publish ``payload`` at ``path`` atomically (temp file + rename); a
    failed write raises and leaves no temp file behind."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def _read_document_bytes(path):
    """The bytes of the regular file at ``path``, or None for anything
    else or anything over :data:`MAX_DOCUMENT_BYTES`.

    ``O_NONBLOCK`` keeps the open from waiting for a FIFO's writer, and
    the descriptor's own ``fstat`` decides, so a path swapped between
    the check and the read cannot slip a device or a FIFO past it.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode) or info.st_size > MAX_DOCUMENT_BYTES:
            return None
        with open(fd, "rb", closefd=False) as handle:
            data = handle.read(MAX_DOCUMENT_BYTES + 1)  # it may have grown
    finally:
        os.close(fd)
    return data if len(data) <= MAX_DOCUMENT_BYTES else None


def read_json(path, schema):
    """The JSON object at ``path`` if it carries ``schema``; MISS for a
    missing, torn, garbage, too deeply nested, non-object or
    foreign-schema file, and for anything that is not a regular file of
    at most :data:`MAX_DOCUMENT_BYTES`."""
    try:
        data = _read_document_bytes(path)
        if data is None:
            return MISS
        document = json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError):
        return MISS
    if not isinstance(document, dict) or document.get("schema") != schema:
        return MISS
    return document


@dataclasses.dataclass
class StoreStats:
    """Hit/miss/store tallies, split by layer (memory vs disk)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self):
        return self.memory_hits + self.disk_hits

    def as_dict(self):
        return dataclasses.asdict(self)


class ContentStore:
    """A dict in front of sharded JSON files, keyed by content address.

    Subclasses give the value encoding: ``schema`` (the version every
    file carries), ``encode(key, value)`` (the file's document, without
    the schema field) and ``decode(document)`` (the value; raising
    KeyError/TypeError/ValueError makes the file a miss).  With
    ``cache_dir=None`` the store is memory only.
    """

    schema = None

    def __init__(self, cache_dir=None):
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._memory = {}
        self.stats = StoreStats()

    def __len__(self):
        return len(self._memory)

    def get(self, key):
        """The stored value for ``key``, or :data:`MISS`."""
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        if self.cache_dir is not None:
            value = self._load(key)
            if value is not MISS:
                self._memory[key] = value
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return MISS

    def put(self, key, value):
        """Store ``value`` under ``key``; returns the value."""
        self._memory[key] = value
        self.stats.stores += 1
        if self.cache_dir is not None:
            document = dict(self.encode(key, value), schema=self.schema)
            with contextlib.suppress(OSError):  # unwritable: memory only
                atomic_write_json(self._path(key), document)
        return value

    def _path(self, key):
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def _load(self, key):
        document = read_json(self._path(key), self.schema)
        if document is MISS:
            return MISS
        try:
            return self.decode(document)
        except (KeyError, TypeError, ValueError):
            return MISS
