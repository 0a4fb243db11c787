"""Per-layer tracing from outside: wrappers around each layer's public
entry points, installed for a traced run and removed afterwards.

Nothing in ``src/`` changes.  Each wrapper charges the wall time of a
call to one *key* (a per-layer metric such as ``wire.s``) as **self
time**: the call's duration minus the time spent in wrapped calls
nested inside it.  Every traced interval is opened with
:meth:`Tracer.region`, whose own self time is ``unattributed_s``, so
the keys plus ``unattributed_s`` sum to the traced wall by
construction.

The span stack is process-wide, not per thread: the benchmark is a
closed loop, so while the client thread waits inside a wire request the
server thread runs the handler, and the handler's spans nest under the
request span.  That is what turns "client call minus server handler"
into the wire's self time.  A pop that is not the innermost span means
two threads traced work at once, which breaks the accounting; it raises
:class:`TraceError` instead of reporting a wrong split.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

UNATTRIBUTED = "unattributed_s"


class TraceError(RuntimeError):
    """Spans from concurrent threads interleaved; the split is invalid."""


class Tracer:
    """Self-time and count accumulators for one traced run."""

    def __init__(self):
        self.seconds = Counter()   # time key -> self seconds
        self.counts = Counter()    # count key -> total
        self.wall_s = 0.0
        self._stack = []           # [key, start, child seconds]
        self._lock = threading.Lock()

    @property
    def active(self):
        return bool(self._stack)

    def _enter(self, key):
        frame = [key, perf_counter(), 0.0]
        with self._lock:
            self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        with self._lock:
            if not self._stack or self._stack[-1] is not frame:
                raise TraceError(f"span {frame[0]!r} closed out of order")
            self._stack.pop()
            duration = end - frame[1]
            self.seconds[frame[0]] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
        return duration

    @contextmanager
    def region(self):
        """A traced interval; work outside every region is not traced."""
        if self._stack:
            raise TraceError("regions do not nest")
        frame = self._enter(UNATTRIBUTED)
        try:
            yield
        finally:
            self.wall_s += self._exit(frame)

    def wrap(self, key, fn, before=None, after=None):
        """``fn`` timed under ``key`` while a region is open.

        ``before(args)`` returns a token handed to
        ``after(counts, token, args, result)``, which adds the layer's
        counts; neither runs for a call that raises.
        """
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(self.counts, token, args, result)
            return result

        return traced


# --- count hooks -------------------------------------------------------------------

def _count(name):
    def after(counts, token, args, result):
        counts[name] += 1
    return after


def _retries_before(args):
    return getattr(args[0], "retries", 0)


def _retries_after(counts, token, args, result):
    counts["wire.requests"] += 1
    counts["wire.retries"] += getattr(args[0], "retries", 0) - token


def _suggests_after(counts, token, args, result):
    counts["dse.study.suggests"] += len(result)


def _store_bytes_after(counts, token, args, result):
    counts["dse.store.bytes"] += os.path.getsize(args[0])


def _cache_get_after(miss, prefix):
    def after(counts, token, args, result):
        counts[f"{prefix}.gets"] += 1
        if result is not miss:
            counts[f"{prefix}.hits"] += 1
    return after


def _fit_after(counts, token, args, result):
    if not result.ok:
        counts["boards.fitter.rejects"] += 1


def _pages_after(counts, token, args, result):
    counts["emu.snapshot.pages_restored"] += result


def _machine_before(args):
    machine = getattr(args[0], "machine", args[0])  # Machine or profiler
    return machine, machine.instret, machine.block_promotions


def _machine_after(counts, token, args, result):
    machine, instret, promotions = token
    counts["cpu.machine.instructions"] += machine.instret - instret
    counts["cpu.machine.block_promotions"] += \
        machine.block_promotions - promotions


def _rtl_after(counts, token, args, result):
    counts["cfu.rtl.calls"] += 1
    counts["cfu.rtl.cycles"] += result[1]


# (time key, "module:attribute path", before, after).  Functions that a
# module imports by name are patched where they are looked up.
ENTRY_POINTS = [
    ("wire.s", "repro.dse.worker:ServiceClient.request",
     _retries_before, _retries_after),
    ("wire.s", "repro.emu.sessions:SessionClient.request",
     _retries_before, _retries_after),
    ("dse.service.self_s", "repro.dse.service:DseService.create_study",
     None, _count("dse.service.calls")),
    ("dse.service.self_s", "repro.dse.service:DseService.work",
     None, _count("dse.service.calls")),
    ("dse.service.self_s", "repro.dse.service:ServiceStudy.complete",
     None, _count("dse.service.calls")),
    ("dse.store.s", "repro.dse.store:StudyStore.write_trial",
     None, _count("dse.store.writes")),
    ("dse.store.s", "repro.dse.store:StudyStore.write_study",
     None, _count("dse.store.writes")),
    ("dse.store.s", "repro.dse.store:atomic_write_json",
     None, _store_bytes_after),
    ("dse.study.suggest_s", "repro.dse.study:Study.suggest",
     None, _suggests_after),
    ("dse.evaluator.self_s", "repro.dse.runner:Fig7Evaluator.evaluate_batch",
     None, None),
    ("perf.estimator.s", "repro.dse.runner:estimate_inference",
     None, _count("perf.estimator.calls")),
    ("perf.estimator.s", "repro.core.playground:estimate_inference",
     None, _count("perf.estimator.calls")),
    ("boards.fitter.s", "repro.dse.runner:fit", None, _fit_after),
    ("perf.vectorized.build_s", "repro.perf.vectorized:BatchCostModel.__init__",
     None, None),
    ("perf.vectorized.replay_s", "repro.perf.vectorized:BatchCostModel.cycles",
     None, None),
    ("dse.exhaustive.fit_s", "repro.dse.exhaustive:VectorizedFit.__init__",
     None, None),
    ("dse.exhaustive.fit_s", "repro.dse.exhaustive:VectorizedFit.evaluate",
     None, None),
    ("dse.exhaustive.front_s", "repro.dse.exhaustive:pareto_front_indices",
     None, None),
    ("emu.sessions.self_s", "repro.emu.sessions:SessionManager.create",
     None, None),
    ("emu.sessions.self_s", "repro.emu.sessions:Session.load", None, None),
    ("emu.sessions.self_s", "repro.emu.sessions:Session.run", None, None),
    ("emu.sessions.self_s", "repro.emu.sessions:Session.snapshot", None, None),
    ("emu.sessions.self_s", "repro.emu.sessions:Session.restore", None, None),
    ("emu.snapshot.snapshot_s", "repro.emu.renode:Emulator.snapshot",
     None, None),
    ("emu.snapshot.restore_s", "repro.emu.renode:Emulator.restore",
     None, _pages_after),
    ("soc.bus.load_s", "repro.soc.bus:SocBus.load_bytes", None, None),
    ("cpu.assembler.s", "repro.emu.renode:assemble", None, None),
    ("cpu.assembler.s", "repro.core.simprofile:assemble", None, None),
    ("core.simprofile.self_s", "repro.core.simprofile:simulate_profile",
     None, None),
    ("cpu.machine.self_s", "repro.cpu.machine:Machine.run",
     _machine_before, _machine_after),
    ("cpu.machine.self_s", "repro.cpu.profiler:MachineProfiler.run",
     _machine_before, _machine_after),
    ("cfu.rtl.s", "repro.cfu.rtl:RtlCfuAdapter.execute", None, _rtl_after),
]

#: Every self-time key, in report order.
TIME_KEYS = list(dict.fromkeys(
    [key for key, *_ in ENTRY_POINTS]
    + ["dse.cache.s", "core.codecache.s", "models.build_s"]))

#: Every count a traced run reports (ratios are derived in metrics()).
COUNT_KEYS = [
    "wire.requests", "wire.retries", "dse.service.calls", "dse.store.writes",
    "dse.study.suggests", "perf.estimator.calls",
    "boards.fitter.rejects", "emu.snapshot.pages_restored",
    "dse.cache.hits", "cpu.machine.instructions",
    "cpu.machine.block_promotions", "cfu.rtl.calls", "cfu.rtl.cycles",
]


def _resolve(path):
    module_name, _, attrs = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = attrs.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


_ABSENT = object()


class Instrumentation:
    """Installs every wrapper for one :class:`Tracer`; :meth:`remove`
    puts the originals back.  Use as a context manager."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _patch(self, owner, name, value):
        # vars() sees only the owner's own attribute, so a method
        # inherited from a base class is restored by deleting the patch.
        original = vars(owner).get(name, _ABSENT)
        setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def install(self):
        tracer = self.tracer
        for key, path, before, after in ENTRY_POINTS:
            owner, name = _resolve(path)
            self._patch(owner, name, tracer.wrap(
                key, getattr(owner, name), before, after))

        from repro.core.codecache import MISS as CODE_MISS, CodeCache
        from repro.dse.cache import MISS as EVAL_MISS, EvaluationCache
        for cls, miss, prefix in ((EvaluationCache, EVAL_MISS, "dse.cache"),
                                  (CodeCache, CODE_MISS, "core.codecache")):
            self._patch(cls, "get", tracer.wrap(
                f"{prefix}.s", cls.get, after=_cache_get_after(miss, prefix)))
            self._patch(cls, "put", tracer.wrap(f"{prefix}.s", cls.put))

        # Model construction is memoized behind repro.models.load, which
        # many modules import by name; the zoo's builder table is the one
        # place every cold build passes through.
        from repro.models import ZOO
        for name, build in list(ZOO.items()):
            self._patch_item(ZOO, name, tracer.wrap("models.build_s", build))

        # RamBacking allocates its region on first access to ``data``;
        # count the bytes each first access materialises.
        from repro.soc.bus import RamBacking
        getter = RamBacking.data.fget
        counts = tracer.counts

        def data(backing):
            if backing._data is None and tracer.active:
                counts["soc.bus.materialized_bytes"] += backing.region.size
            return getter(backing)

        self._patch(RamBacking, "data", property(data))
        return self

    def _patch_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def remove(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            elif original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.remove()
        return False


def layer_of(key):
    """``cpu.machine.self_s`` -> ``cpu.machine``."""
    return key.rpartition(".")[0] or key


def metrics(tracer):
    """Every per-layer metric of a traced run as ``name -> (value,
    unit)``; layers a workload never reaches read 0."""
    counts = tracer.counts
    out = {key: (tracer.seconds.get(key, 0.0), "s") for key in TIME_KEYS}
    out.update((key, (counts.get(key, 0), "count")) for key in COUNT_KEYS)
    out["dse.store.bytes"] = (counts.get("dse.store.bytes", 0), "B")
    out["soc.bus.materialized_mb"] = (
        counts.get("soc.bus.materialized_bytes", 0) / 2 ** 20, "MB")
    for prefix in ("dse.cache", "core.codecache"):
        gets = counts.get(f"{prefix}.gets", 0)
        hits = counts.get(f"{prefix}.hits", 0)
        out[f"{prefix}.hit_ratio"] = (hits / gets if gets else 0.0, "ratio")
    out[UNATTRIBUTED] = (tracer.seconds.get(UNATTRIBUTED, 0.0), "s")
    out["traced_wall_s"] = (tracer.wall_s, "s")
    return out


def ranked_layers(tracer):
    """``[(layer, self seconds, share of traced wall)]``, largest first;
    ``unattributed_s`` is ranked with the layers."""
    by_layer = Counter()
    for key, seconds in tracer.seconds.items():
        by_layer[key if key == UNATTRIBUTED else layer_of(key)] += seconds
    wall = tracer.wall_s or 1.0
    return [(layer, seconds, seconds / wall)
            for layer, seconds in by_layer.most_common()]
