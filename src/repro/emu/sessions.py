"""The emulation session fleet: warm machines behind a wire API.

Interactive TinyML bring-up (Section II-E) is a loop — load firmware,
run, inspect, tweak, run again — and the expensive parts of each lap
are *setup*: building the SoC, decoding firmware, translating its
basic blocks to generated code, compiling the CFU's RTL.  This module
keeps all of that warm across laps:

- **Sessions** — each session is a live :class:`~repro.emu.Emulator`
  (board + CPU + optional CFU) that persists between requests, so
  translated blocks and compiled RTL stay hot.

- **Copy-on-write snapshots** — ``POST .../snapshot`` captures the
  whole system in O(pages-later-touched) via the machine's COW page
  protocol; ``POST .../restore`` rewinds to any live snapshot without
  losing a translated block for an untouched page.

- **Shared persistent compile cache** — every session binds translated
  blocks and compiled RTL modules from one process-wide
  :class:`~repro.core.codecache.CodeCache`, so a firmware compiles
  once, ever, no matter how many sessions (or processes, when the
  cache is directory-backed) run it.

- **LRU fleet management** — the manager caps live sessions and evicts
  the least-recently-used one on overflow, bounding host memory while
  keeping the hottest machines resident.

The HTTP layer is the wire layer the DSE study service also uses
(:mod:`repro.core.wire`): asyncio HTTP/1.1 with synchronous handlers, so
every state transition is atomic with respect to the wire.  This module
supplies only the routes and handlers (:meth:`SessionManager.routes`).
"""

from __future__ import annotations

import itertools
import re
import time

from ..core import wire
from ..core.telemetry import Telemetry
from ..core.wire import ClientError, FaultInjector, HttpError, JsonClient, ServerThread
from ..soc.bus import BusError
from .renode import Emulator, _resolve_compile_cache

SESSIONS_SCHEMA_VERSION = 1

#: Live sessions kept resident before LRU eviction kicks in.
DEFAULT_MAX_SESSIONS = 32

#: The keys a session spec may hold, and the JSON type of each value.
_SPEC_TYPES = {"board": str, "cfu": str, "cfu_impl": str,
               "with_timing": bool, "session_id": str}

#: A session id is one URL path segment (every session route matches
#: exactly one): unreserved characters, no leading dot, and short
#: enough for any request line.
_SESSION_ID = re.compile(r"[A-Za-z0-9_~-][A-Za-z0-9._~-]{0,127}")

#: Histogram buckets for per-request run wall seconds.
STEP_SECONDS_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
                        0.1, 0.5, 1.0, 5.0)


class SessionError(HttpError):
    """A request the session server refuses; carries the HTTP status."""


def _build_cfu(name, impl):
    """A CFU instance from its wire spec (library name + impl flavor).

    ``impl`` picks the realisation: ``"model"`` for the software
    emulation, ``"rtl"`` for cycle-accurate gateware (the Emulator
    wraps bare :class:`~repro.cfu.rtl.RtlCfu` instances itself).
    """
    if name in (None, "", "none"):
        return None
    from ..accel import LIBRARY, KwsCfu, KwsCfu2Rtl

    if impl not in ("model", "rtl"):
        raise SessionError(f"unknown cfu impl {impl!r} "
                           f"(expected 'model' or 'rtl')")
    if name in LIBRARY:
        model_cls, rtl_cls, _opcodes = LIBRARY[name]
        return rtl_cls() if impl == "rtl" else model_cls()
    if name == "kws":
        return KwsCfu2Rtl() if impl == "rtl" else KwsCfu()
    known = sorted(LIBRARY) + ["kws", "none"]
    raise SessionError(f"unknown cfu {name!r} "
                       f"(expected one of {', '.join(known)})")


def _check_spec(spec):
    """Refuse (400) a session spec with an unknown key, a value of the
    wrong type, or a session id no route can reach."""
    unknown = sorted(set(spec) - set(_SPEC_TYPES))
    if unknown:
        raise SessionError(f"unknown session spec keys {unknown} "
                           f"(expected any of {', '.join(_SPEC_TYPES)})")
    for key, kind in _SPEC_TYPES.items():
        if key in spec and not isinstance(spec[key], kind):
            raise SessionError(f"session spec {key!r} must be a JSON "
                               f"{kind.__name__}, got {spec[key]!r}")
    session_id = spec.get("session_id")
    if session_id is not None and not _SESSION_ID.fullmatch(session_id):
        raise SessionError(f"session_id {session_id!r} is not one URL "
                           f"path segment")


def _integer(payload, key, default):
    """A payload field that must be a JSON integer, or a 400."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SessionError(f"{key} must be an integer, got {value!r}")
    return value


def _budget(payload):
    """The ``max_instructions`` of a run/profile payload, its only key."""
    unknown = sorted(set(payload) - {"max_instructions"})
    if unknown:
        raise SessionError(f"unknown payload keys {unknown} "
                           f"(expected only max_instructions)")
    budget = _integer(payload, "max_instructions", 1_000_000)
    if budget < 1:
        raise SessionError(f"max_instructions must be >= 1, got {budget}")
    return budget


def _build_emulator(spec, compile_cache):
    from ..boards import get_board
    from ..soc.soc import Soc

    try:
        board = get_board(spec.get("board", "arty_a7_35t"))
    except KeyError as error:
        raise SessionError(str(error)) from None
    cfu = _build_cfu(spec.get("cfu"), spec.get("cfu_impl", "model"))
    return Emulator(Soc(board), cfu=cfu,
                    with_timing=spec.get("with_timing", True),
                    compile_cache=compile_cache)


class Session:
    """One warm emulator plus its named snapshots and loaded symbols."""

    def __init__(self, manager, session_id, spec):
        self.manager = manager
        self.session_id = session_id
        self.spec = dict(spec)
        self.emulator = _build_emulator(self.spec, manager.compile_cache)
        self.symbols = {}
        self.entry_pc = None
        self.snapshots = {}           # snapshot_id -> emulator snapshot
        self._snap_ids = itertools.count(1)
        self.created = time.monotonic()
        self.runs = 0
        self.instructions_run = 0

    # --- operations ---------------------------------------------------------------
    def load(self, payload):
        """Load firmware into the (warm) machine.

        ``assembly`` is assembled in place; ``binary_hex`` loads raw
        bytes.  Either way only the rewritten pages are invalidated, so
        translated blocks for untouched pages survive the reload.
        """
        region = str(payload.get("region", "sram"))
        offset = _integer(payload, "offset", 0)
        try:
            if "assembly" in payload:
                self.symbols = self.emulator.load_assembly(
                    str(payload["assembly"]), region=region, offset=offset)
            elif "binary_hex" in payload:
                blob = bytes.fromhex(str(payload["binary_hex"]))
                self.emulator.load_binary(blob, region=region, offset=offset)
                self.symbols = {}
            else:
                raise SessionError(
                    "load needs 'assembly' or 'binary_hex'")
        except SessionError:
            raise
        except (KeyError, ValueError, BusError) as error:
            raise SessionError(f"load failed: {error}") from None
        machine = self.emulator.machine
        machine.halted = False
        machine.exit_code = None
        self.entry_pc = machine.pc
        return {"pc": machine.pc,
                "symbols": {name: addr for name, addr
                            in sorted(self.symbols.items())}}

    def run(self, payload):
        """Execute up to ``max_instructions`` from the current state;
        a run that stops on its budget resumes on the next."""
        budget = _budget(payload)
        machine = self.emulator.machine
        before = machine.instret
        started = time.perf_counter()
        try:
            exit_code = self.emulator.run(budget)
        except RuntimeError as error:
            # budget exhaustion is a normal partial step, not a fault
            if "instruction budget exhausted" not in str(error):
                raise SessionError(f"run failed: {error!r}",
                                   status=500) from None
            exit_code = None
        except Exception as error:
            raise SessionError(f"run failed: {error!r}", status=500) from None
        elapsed = time.perf_counter() - started
        executed = machine.instret - before
        self.runs += 1
        self.instructions_run += executed
        self.manager.observe_run(elapsed)
        return {
            "exit_code": exit_code,
            "halted": machine.halted,
            "instructions": executed,
            "instret": machine.instret,
            "cycles": machine.cycles,
            "pc": machine.pc,
            "seconds": elapsed,
        }

    def snapshot(self):
        snapshot_id = f"snap-{next(self._snap_ids)}"
        started = time.perf_counter()
        self.snapshots[snapshot_id] = self.emulator.snapshot()
        elapsed = time.perf_counter() - started
        self.manager.telemetry.counter("session_snapshots").inc()
        return {"snapshot_id": snapshot_id, "seconds": elapsed}

    def restore(self, payload):
        snapshot_id = str(payload.get("snapshot_id", ""))
        snap = self.snapshots.get(snapshot_id)
        if snap is None:
            raise SessionError(
                f"no snapshot {snapshot_id!r} in session "
                f"{self.session_id}", status=404)
        started = time.perf_counter()
        pages = self.emulator.restore(snap)
        elapsed = time.perf_counter() - started
        self.manager.telemetry.counter("session_restores").inc()
        return {"snapshot_id": snapshot_id, "pages_restored": pages,
                "seconds": elapsed}

    def discard(self, payload):
        snapshot_id = str(payload.get("snapshot_id", ""))
        snap = self.snapshots.pop(snapshot_id, None)
        if snap is None:
            raise SessionError(
                f"no snapshot {snapshot_id!r} in session "
                f"{self.session_id}", status=404)
        self.emulator.discard_snapshot(snap)
        return {"snapshot_id": snapshot_id, "discarded": True}

    def profile(self, payload):
        """Run the loaded program under the cycle profiler."""
        if not self.symbols:
            raise SessionError(
                "profile needs assembly-loaded firmware (no symbol table)")
        budget = _budget(payload)
        machine = self.emulator.machine
        # Profile the loaded program from its entry point, not from
        # wherever the last run left the pc (that would measure the
        # final ecall and nothing else).
        machine.halted = False
        machine.pc = self.entry_pc
        try:
            profile = self.emulator.profile(self.symbols, budget)
        except Exception as error:
            raise SessionError(f"profile failed: {error!r}",
                               status=500) from None
        return {
            "total_cycles": profile.total_cycles,
            "truncated": profile.truncated,
            "instruction_mix": dict(profile.instruction_mix),
            "entries": [
                {"name": entry.name, "cycles": entry.cycles,
                 "instructions": entry.instructions}
                for entry in profile.top(len(profile.entries))
            ],
        }

    # --- wire form ----------------------------------------------------------------
    def status(self):
        machine = self.emulator.machine
        cfu = self.emulator.cfu
        return {
            "session_id": self.session_id,
            "board": self.spec.get("board", "arty_a7_35t"),
            "cfu": self.spec.get("cfu") or "none",
            "cfu_name": getattr(cfu, "name", "none") if cfu else "none",
            "pc": machine.pc,
            "instret": machine.instret,
            "cycles": machine.cycles,
            "halted": machine.halted,
            "exit_code": machine.exit_code,
            "runs": self.runs,
            "instructions_run": self.instructions_run,
            "snapshots": sorted(self.snapshots),
            "block_cache_entries": machine.block_cache_entries,
            "block_cache_loads": machine.block_cache_loads,
            "uart": self.emulator.uart_output,
        }


class SessionManager:
    """The fleet: many live sessions, one compile cache, LRU-bounded.

    ``compile_cache`` follows the :class:`Emulator` convention —
    ``True`` for the process-wide default cache, a directory path for a
    dedicated one, ``None`` to disable persistent compile reuse.
    """

    def __init__(self, max_sessions=DEFAULT_MAX_SESSIONS, compile_cache=True,
                 telemetry=None):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self.compile_cache = _resolve_compile_cache(compile_cache)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.faults = FaultInjector()
        self.sessions = {}            # insertion-ordered: LRU front-to-back
        self._ids = itertools.count(1)
        # ``sessions`` is reordered on every get() (LRU touch), so the
        # creation sequence is tracked separately for listings.
        self._created_seq = itertools.count()
        self._created = {}            # session_id -> creation sequence
        self._export_gauges()

    # --- lifecycle ----------------------------------------------------------------
    def create(self, spec):
        _check_spec(spec)
        session_id = spec.get("session_id") or f"session-{next(self._ids)}"
        if session_id in self.sessions:
            raise SessionError(f"session {session_id} already exists",
                               status=409)
        session = Session(self, session_id, spec)
        self.sessions[session_id] = session
        self._created[session_id] = next(self._created_seq)
        self.telemetry.counter("sessions_created").inc()
        while len(self.sessions) > self.max_sessions:
            evicted = next(iter(self.sessions))
            del self.sessions[evicted]
            del self._created[evicted]
            self.telemetry.counter("sessions_evicted").inc()
        self._export_gauges()
        return session

    def get(self, session_id):
        try:
            session = self.sessions.pop(session_id)
        except KeyError:
            raise SessionError(f"no session {session_id}",
                               status=404) from None
        self.sessions[session_id] = session   # touch: move to LRU back
        return session

    def delete(self, session_id):
        try:
            del self.sessions[session_id]
        except KeyError:
            raise SessionError(f"no session {session_id}",
                               status=404) from None
        del self._created[session_id]
        self.telemetry.counter("sessions_deleted").inc()
        self._export_gauges()
        return {"session_id": session_id, "deleted": True}

    def list_statuses(self):
        # Creation order, not lexicographic: "session-10" must list
        # after "session-2", and LRU touches must not reshuffle it.
        ordered = sorted(self.sessions, key=self._created.__getitem__)
        return [self.sessions[sid].status() for sid in ordered]

    # --- observability ------------------------------------------------------------
    def observe_run(self, seconds):
        self.telemetry.counter("session_runs").inc()
        self.telemetry.histogram("session_run_seconds",
                                 buckets=STEP_SECONDS_BUCKETS).observe(seconds)

    def _export_gauges(self):
        self.telemetry.gauge("sessions_active").set(len(self.sessions))

    def snapshot_metrics(self):
        """The series snapshot, with live compile-cache stats folded
        in as gauges (the cache is shared, so these are fleet-wide)."""
        if self.compile_cache is not None:
            stats = getattr(self.compile_cache, "stats", None)
            if stats is not None:
                for name, value in stats.as_dict().items():
                    self.telemetry.gauge(f"codecache_{name}").set(value)
        return self.telemetry.snapshot()

    # --- the wire (served by repro.core.wire) ---------------------------------------
    http_counter = "session_http_requests"

    def routes(self):
        session = "sessions/{session_id}"
        return [
            ("GET", "healthz", "healthz",
             lambda body: {"ok": True, "schema": SESSIONS_SCHEMA_VERSION}),
            ("GET", "metrics", "metrics", lambda body: self.snapshot_metrics()),
            ("GET", "sessions", "list", lambda body: {
                "sessions": self.list_statuses(),
                "max_sessions": self.max_sessions}),
            ("POST", "sessions", "create",
             lambda body: self.create(body).status()),
            ("GET", session, "status",
             lambda body, session_id: self.get(session_id).status()),
            ("DELETE", session, "delete",
             lambda body, session_id: self.delete(session_id)),
            ("POST", f"{session}/load", "load",
             lambda body, session_id: self.get(session_id).load(body)),
            ("POST", f"{session}/run", "run",
             lambda body, session_id: self.get(session_id).run(body)),
            ("POST", f"{session}/snapshot", "snapshot",
             lambda body, session_id: self.get(session_id).snapshot()),
            ("POST", f"{session}/restore", "restore",
             lambda body, session_id: self.get(session_id).restore(body)),
            ("POST", f"{session}/discard-snapshot", "discard-snapshot",
             lambda body, session_id: self.get(session_id).discard(body)),
            ("POST", f"{session}/profile", "profile",
             lambda body, session_id: self.get(session_id).profile(body)),
        ]


def serve(manager, host="127.0.0.1", port=8744):
    """Blocking entry point (``repro sessions serve``)."""
    wire.serve(manager, host, port)


class SessionServerThread(ServerThread):
    """A served :class:`SessionManager` on a background thread."""

    def __init__(self, manager, host="127.0.0.1", port=0):
        self.manager = manager
        super().__init__(manager, host, port)


class SessionClientError(ClientError):
    """A 4xx/5xx from the session server."""


class SessionClient(JsonClient):
    """JSON-over-HTTP client for the session server.  It never retries:
    ``run`` is not idempotent."""

    error = SessionClientError

    def __init__(self, base_url, timeout=30.0):
        super().__init__(base_url, timeout=timeout, max_retries=0)

    # --- API surface --------------------------------------------------------------
    def healthz(self):
        return self.request("GET", "/healthz")

    def metrics(self):
        return self.request("GET", "/metrics")

    def create(self, spec=None):
        return self.request("POST", "/sessions", spec or {})

    def list(self):
        return self.request("GET", "/sessions")

    def status(self, session_id):
        return self.request("GET", f"/sessions/{session_id}")

    def delete(self, session_id):
        return self.request("DELETE", f"/sessions/{session_id}")

    def load(self, session_id, **payload):
        return self.request("POST", f"/sessions/{session_id}/load", payload)

    def run(self, session_id, **payload):
        return self.request("POST", f"/sessions/{session_id}/run", payload)

    def snapshot(self, session_id):
        return self.request("POST", f"/sessions/{session_id}/snapshot", {})

    def restore(self, session_id, snapshot_id):
        return self.request("POST", f"/sessions/{session_id}/restore",
                            {"snapshot_id": snapshot_id})

    def discard_snapshot(self, session_id, snapshot_id):
        return self.request("POST",
                            f"/sessions/{session_id}/discard-snapshot",
                            {"snapshot_id": snapshot_id})

    def profile(self, session_id, **payload):
        return self.request("POST", f"/sessions/{session_id}/profile",
                            payload)
