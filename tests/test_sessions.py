"""Session fleet server: wire API, LRU eviction, warm-state reuse."""

import pytest

from repro.emu.sessions import (
    SessionClient,
    SessionClientError,
    SessionError,
    SessionManager,
    SessionServerThread,
)

COUNT_ASM = """
    li a0, 0
    li a1, 120
loop:
    add a0, a0, a1
    addi a1, a1, -1
    bnez a1, loop
    li a7, 93
    ecall
"""


@pytest.fixture
def fleet():
    manager = SessionManager(max_sessions=3, compile_cache=None)
    with SessionServerThread(manager) as handle:
        with SessionClient(handle.url) as client:
            yield manager, client


# --- manager (in-process) ---------------------------------------------------------

def test_manager_create_load_run_snapshot_restore():
    manager = SessionManager(compile_cache=None)
    session = manager.create({"board": "arty_a7_35t"})
    session.load({"assembly": COUNT_ASM, "region": "flash"})
    snap = session.snapshot()
    first = session.run({"max_instructions": 100_000})
    assert first["halted"] and first["exit_code"] == sum(range(1, 121))

    restored = session.restore({"snapshot_id": snap["snapshot_id"]})
    assert restored["pages_restored"] == 0   # register-only program
    second = session.run({"max_instructions": 100_000})
    assert (second["cycles"], second["instret"], second["instructions"]) == \
        (first["cycles"], first["instret"], first["instructions"])


def test_manager_lru_evicts_oldest_untouched():
    manager = SessionManager(max_sessions=2, compile_cache=None)
    manager.create({"session_id": "a"})
    manager.create({"session_id": "b"})
    manager.get("a")                   # touch: b is now least recent
    manager.create({"session_id": "c"})
    assert sorted(manager.sessions) == ["a", "c"]
    with pytest.raises(SessionError) as error:
        manager.get("b")
    assert error.value.status == 404


def test_manager_rejects_duplicate_session_id():
    manager = SessionManager(compile_cache=None)
    manager.create({"session_id": "dup"})
    with pytest.raises(SessionError) as error:
        manager.create({"session_id": "dup"})
    assert error.value.status == 409


def test_manager_shares_one_compile_cache(tmp_path):
    manager = SessionManager(compile_cache=str(tmp_path))
    first = manager.create({"sim_backend": "auto"})
    second = manager.create({"sim_backend": "auto"})
    assert first.emulator.machine.compile_cache \
        is second.emulator.machine.compile_cache
    for session in (first, second):
        session.emulator.machine.hot_threshold = 1
        session.load({"assembly": COUNT_ASM, "region": "flash"})
        session.run({"max_instructions": 100_000})
    # the second session bound the first session's translated blocks
    assert second.emulator.machine.block_cache_loads > 0
    assert manager.compile_cache.stats.hits > 0


# --- the wire ---------------------------------------------------------------------

def test_wire_round_trip(fleet):
    manager, client = fleet
    assert client.healthz()["ok"] is True

    created = client.create({"board": "arty_a7_35t", "cfu": "simd-add"})
    sid = created["session_id"]
    assert created["cfu_name"] == "simd-add"

    loaded = client.load(sid, assembly=COUNT_ASM, region="flash")
    assert loaded["pc"] == 0x2000_0000

    snap = client.snapshot(sid)
    first = client.run(sid, max_instructions=100_000)
    assert first["halted"]

    client.restore(sid, snap["snapshot_id"])
    second = client.run(sid, max_instructions=100_000)
    assert (second["cycles"], second["instret"]) == \
        (first["cycles"], first["instret"])

    status = client.status(sid)
    assert status["runs"] == 2
    assert snap["snapshot_id"] in status["snapshots"]

    client.discard_snapshot(sid, snap["snapshot_id"])
    assert snap["snapshot_id"] not in client.status(sid)["snapshots"]

    assert client.delete(sid)["deleted"] is True
    assert client.list()["sessions"] == []


def test_wire_step_is_resumable(fleet):
    _, client = fleet
    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    stepped = client.step(sid, max_instructions=10)
    assert stepped["halted"] is False
    assert stepped["instructions"] == 10
    rest = client.run(sid, max_instructions=100_000)
    assert rest["halted"]
    assert stepped["instructions"] + rest["instructions"] == rest["instret"]


def test_wire_profile(fleet):
    _, client = fleet
    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    profile = client.profile(sid, max_instructions=100_000)
    assert profile["total_cycles"] > 0
    assert any(entry["name"] == "loop" for entry in profile["entries"])

    # profiling after a completed run restarts from the entry point
    # rather than measuring one instruction at the final ecall (cycles
    # legitimately differ — the timing model's caches stay warm)
    client.run(sid, max_instructions=100_000)
    again = client.profile(sid, max_instructions=100_000)
    by_name = {e["name"]: e["instructions"] for e in profile["entries"]}
    assert {e["name"]: e["instructions"] for e in again["entries"]} == by_name


def test_wire_errors(fleet):
    _, client = fleet
    with pytest.raises(SessionClientError) as error:
        client.status("missing")
    assert error.value.status == 404

    sid = client.create({})["session_id"]
    with pytest.raises(SessionClientError) as error:
        client.restore(sid, "snap-99")
    assert error.value.status == 404

    with pytest.raises(SessionClientError) as error:
        client.profile(sid)              # no firmware loaded
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.load(sid, binary_hex="00" * 8, region="main_ram",
                    offset=256 * 1024 * 1024 - 4)   # past main_ram's end
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.create({"board": "not-a-board"})
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.create({"cfu": "not-a-cfu"})
    assert error.value.status == 400

    with pytest.raises(SessionClientError) as error:
        client.request("GET", "/no/such/route")
    assert error.value.status == 404


def test_wire_metrics_and_eviction(fleet):
    manager, client = fleet
    for index in range(5):               # max_sessions=3: two evictions
        client.create({"session_id": f"s{index}"})
    listing = client.list()
    assert len(listing["sessions"]) == 3
    assert [s["session_id"] for s in listing["sessions"]] == \
        ["s2", "s3", "s4"]

    snapshot = client.metrics()
    flat = {}
    for name, series in snapshot.items():
        if isinstance(series, dict):
            flat[name] = series
    text = str(snapshot)
    assert "sessions_created" in text
    assert "sessions_evicted" in text
    assert "sessions_active" in text


def test_listing_is_in_creation_order():
    """Regression: listings used to sort ids lexicographically, so
    "session-10" came before "session-2"; and an LRU touch must not
    reorder the listing either."""
    manager = SessionManager(max_sessions=16, compile_cache=None)
    for _ in range(10):                  # session-1 .. session-10
        manager.create({})
    manager.create({"session_id": "aardvark"})
    manager.get("session-2")             # LRU touch: listing unaffected
    ids = [s["session_id"] for s in manager.list_statuses()]
    assert ids == [f"session-{n}" for n in range(1, 11)] + ["aardvark"]


def test_uart_round_trips_the_wire():
    manager = SessionManager(compile_cache=None)
    session = manager.create({})
    uart = session.emulator.soc.csr_bank.get("uart_rxtx").address
    session.load({"assembly": f"""
        li x5, {uart}
        li a0, 79
        sw a0, 0(x5)
        li a0, 75
        sw a0, 0(x5)
        li a7, 93
        ecall
    """, "region": "flash"})
    snap = session.snapshot()
    session.run({"max_instructions": 1000})
    assert session.status()["uart"] == "OK"
    session.restore({"snapshot_id": snap["snapshot_id"]})
    assert session.status()["uart"] == ""


# --- payload validation -------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    {"cfu": "simd-add", "cfu_impl": "rtl", "rtl_backend": "bogus"},
    {"sim_backend": "bogus"},
], ids=["rtl_backend", "sim_backend"])
def test_create_rejects_unknown_backends(fleet, spec):
    """A bad backend in a session spec is the client's error (400), and
    no session that would fail every later run is left behind."""
    _, client = fleet
    with pytest.raises(SessionClientError) as error:
        client.create(spec)
    assert error.value.status == 400
    assert "bogus" in str(error.value)
    assert client.list()["sessions"] == []


@pytest.mark.parametrize("payload", [
    {"max_instructions": "x"},
    {"backend": "bogus"},
], ids=["max_instructions", "backend"])
def test_run_rejects_bad_payloads(fleet, payload):
    """A malformed run payload is a 400 that leaves the session usable."""
    _, client = fleet
    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    with pytest.raises(SessionClientError) as error:
        client.run(sid, **payload)
    assert error.value.status == 400
    assert client.run(sid, max_instructions=100_000)["halted"]


# --- the served fleet's compile cache -------------------------------------------

def test_serve_compile_cache_dir_holds_rtl_modules_and_transactions(
        tmp_path, monkeypatch):
    """``repro sessions serve --compile-cache-dir DIR`` persists RTL
    source, not just tier-2 blocks: an RTL session run past the
    specialisation gate leaves its module and its MAC4 transaction in
    DIR, where a fresh cache (a new process) finds them."""
    from repro import cli
    from repro.accel.kws import model as km
    from repro.core import codecache
    from repro.rtl import compile as rtl_compile

    monkeypatch.setattr(codecache, "_default_cache", codecache._default_cache)
    args = cli.build_parser().parse_args(
        ["sessions", "serve", "--compile-cache-dir", str(tmp_path)])
    manager = cli._session_manager(args)
    calls = rtl_compile.SPECIALIZE_AFTER + 100
    session = manager.create({"cfu": "kws", "cfu_impl": "rtl"})
    session.load({"assembly": f"""
        li a1, {calls}
        li a2, 0x01010101
        li a0, 0
    loop:
        cfu 0, {km.F3_MAC4}, a0, a2, a2
        addi a1, a1, -1
        bnez a1, loop
        li a7, 93
        ecall
    """, "region": "flash"})
    outcome = session.run({"max_instructions": 10 * calls})
    assert outcome["halted"] and outcome["exit_code"] == 4 * calls

    adapter = session.emulator.cfu
    program = adapter.sim.program
    assert program.transactions[km.F3_MAC4] is not None
    fresh = codecache.CodeCache(str(tmp_path))
    assert fresh.get(program.key) is not codecache.MISS
    assert fresh.get(rtl_compile._transaction_key(
        program, km.F3_MAC4, adapter.ports)) is not codecache.MISS
