"""Session fleet server: wire API, LRU eviction, warm-state reuse."""

import pytest

from repro.boards import BOARDS
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
    snap = session.snapshot({})
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
    first = manager.create({})
    second = manager.create({})
    assert first.emulator.machine.compile_cache \
        is second.emulator.machine.compile_cache
    for session in (first, second):
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
    stepped = client.run(sid, max_instructions=10)
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
    snap = session.snapshot({})
    session.run({"max_instructions": 1000})
    assert session.status()["uart"] == "OK"
    session.restore({"snapshot_id": snap["snapshot_id"]})
    assert session.status()["uart"] == ""


@pytest.mark.parametrize("board", sorted(BOARDS))
def test_load_without_region_goes_where_the_soc_places_code(board):
    """A load that names no region lands where the SoC places code:
    ``main_ram`` on Arty and OrangeCrab, ``flash`` on Fomu and
    iCEBreaker."""
    manager = SessionManager(compile_cache=None)
    session = manager.create({"board": board})
    soc = session.emulator.soc
    base = soc.memory_map.get(soc.default_placement()["text"]).base
    assert session.load({"binary_hex": "13000000"})["pc"] == base
    assert session.load({"assembly": COUNT_ASM})["pc"] == base
    outcome = session.run({"max_instructions": 100_000})
    assert outcome["halted"] and outcome["exit_code"] == sum(range(121))


# --- payload validation -------------------------------------------------------------

#: Malformed session input, ``id -> (route, payload)``: unknown spec or
#: payload keys (a backend choice and a misspelt load offset among them),
#: wrong types, a load naming both firmware forms, a snapshot with a
#: body, and a session id that is not one URL path segment.  A run
#: payload's ``backend`` is a case of ``test_run_rejects_bad_payloads``.
MALFORMED = {
    "spec-sim_backend": ("create", {"sim_backend": "step"}),
    "spec-rtl_backend": ("create", {"cfu": "simd-add", "cfu_impl": "rtl",
                                    "rtl_backend": "interp"}),
    "spec-board-list": ("create", {"board": ["arty_a7_35t"]}),
    "spec-cfu-list": ("create", {"cfu": ["kws"]}),
    "spec-with_timing-string": ("create", {"with_timing": "false"}),
    "spec-session_id-slash": ("create", {"session_id": "a/b"}),
    "spec-session_id-dots": ("create", {"session_id": ".."}),
    "spec-session_id-long": ("create", {"session_id": "s" * 20_000}),
    "load-offset-string": ("load", {"binary_hex": "00", "offset": "abc"}),
    "load-offset-null": ("load", {"binary_hex": "00", "offset": None}),
    "load-unknown-key": ("load", {"binary_hex": "13000000",
                                  "region": "main_ram", "ofset": 4096}),
    "load-assembly-and-binary": ("load", {"assembly": "nop",
                                          "binary_hex": "13000000",
                                          "region": "main_ram"}),
    "snapshot-body": ("snapshot", {"label": "before"}),
    "restore-unknown-key": ("restore", {"snapshot_id": "snap-1",
                                        "keep": True}),
    "discard-unknown-key": ("discard-snapshot", {"snapshot_id": "snap-1",
                                                 "keep": True}),
    "profile-backend": ("profile", {"backend": "step"}),
}


@pytest.mark.parametrize("method,payload", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_input_is_a_400(fleet, method, payload):
    """Malformed session input is the client's error (400), never a 500,
    and it changes nothing: no session that no route can reach, no run
    on a default the client did not ask for, no snapshot taken, used or
    dropped."""
    _, client = fleet
    sid = client.create({})["session_id"]
    client.load(sid, assembly=COUNT_ASM, region="flash")
    assert client.snapshot(sid)["snapshot_id"] == "snap-1"
    client.run(sid, max_instructions=100_000)   # a restore would rewind
    before = client.list()
    with pytest.raises(SessionClientError) as error:
        if method == "create":
            client.create(payload)
        else:
            client.request("POST", f"/sessions/{sid}/{method}", payload)
    assert error.value.status == 400
    assert client.list() == before


@pytest.mark.parametrize("payload", [
    {"max_instructions": "x"},
    {"backend": "step"},
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
        tmp_path, monkeypatch, fresh_gateware):
    """``repro sessions serve --compile-cache-dir DIR`` persists RTL
    source, not just tier-2 blocks: an RTL session run past the
    specialisation gate leaves its module and its MAC4 transaction in
    DIR, where a fresh cache (a new process) finds them.  The server
    starts from no elaborated gateware, as a new process does."""
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


# --- shared gateware ----------------------------------------------------------------

#: Int8 vectors of DOT_N elements at main_ram + DATA_OFFSET.
DOT_N, DOT_REPS, DATA_OFFSET = 16, 1100, 0x10000


def dot_asm(data_base):
    """A CFU2 MAC4 dot product repeated DOT_REPS times: more calls of
    MAC4 and of READ_ACC than the specialisation gate."""
    from repro.accel.kws import model as km

    return f"""
        li   s0, {DOT_REPS}
    outer:
        li   t0, {data_base}
        li   t1, {data_base + DOT_N}
        li   t2, {DOT_N // 4}
        li   a1, 0
        li   a2, 0
        cfu  1, {km.F3_MAC4}, a0, a1, a2
    loop:
        lw   a1, 0(t0)
        lw   a2, 0(t1)
        cfu  0, {km.F3_MAC4}, a0, a1, a2
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bnez t2, loop
        cfu  0, {km.F3_READ_ACC}, a0, x0, x0
        addi s0, s0, -1
        bnez s0, outer
        li   a7, 93
        ecall
    """


def load_dot(session):
    vectors = bytes((i * 37 + 11) & 0xFF for i in range(2 * DOT_N))
    session.load({"binary_hex": vectors.hex(), "region": "main_ram",
                  "offset": DATA_OFFSET})
    ram = session.emulator.soc.memory_map.get("main_ram").base
    session.load({"assembly": dot_asm(ram + DATA_OFFSET),
                  "region": "main_ram"})


def outcome(run):
    assert run["halted"]
    return run["exit_code"], run["instret"], run["cycles"]


@pytest.fixture
def fresh_gateware(monkeypatch):
    """Start from no elaborated gateware, as a new process does."""
    from repro.emu import sessions

    monkeypatch.setattr(sessions, "_GATEWARE", {})
    return sessions._GATEWARE


@pytest.fixture
def generic_calls(monkeypatch):
    """Every RTL call that took the generic (unspecialised) handshake."""
    from repro.cfu.rtl import RtlCfuAdapter

    calls, generic = [], RtlCfuAdapter._generic

    def counted(adapter, *args):
        calls.append(adapter)
        return generic(adapter, *args)

    monkeypatch.setattr(RtlCfuAdapter, "_generic", counted)
    return calls


def test_rtl_sessions_share_one_netlist(fresh_gateware, generic_calls):
    """Two kws gateware sessions share the elaborated netlist and its
    generated transactions, not state: interleaved runs, snapshots and
    restores each match the software model, and the session created
    after the first has specialised never runs a generic handshake."""
    from repro.accel.kws import model as km

    manager = SessionManager(compile_cache=None)
    model = manager.create({"cfu": "kws", "cfu_impl": "model"})
    load_dot(model)
    expected = outcome(model.run({"max_instructions": 1_000_000}))

    first = manager.create({"cfu": "kws", "cfu_impl": "rtl"})
    load_dot(first)
    first_snap = first.snapshot({})["snapshot_id"]
    assert outcome(first.run({"max_instructions": 1_000_000})) == expected
    program = first.emulator.cfu.sim.program
    assert program.transactions[km.F3_MAC4] is not None
    assert program.transactions[km.F3_READ_ACC] is not None

    generic_calls.clear()
    second = manager.create({"cfu": "kws", "cfu_impl": "rtl"})
    first_cfu, second_cfu = first.emulator.cfu, second.emulator.cfu
    assert second_cfu.rtl is first_cfu.rtl
    assert second_cfu.sim.program is program
    assert second_cfu.sim is not first_cfu.sim
    load_dot(second)
    second_snap = second.snapshot({})["snapshot_id"]
    partial = second.run({"max_instructions": 20_000})
    assert not partial["halted"]
    first.restore({"snapshot_id": first_snap})
    assert outcome(first.run({"max_instructions": 1_000_000})) == expected
    assert outcome(second.run({"max_instructions": 1_000_000})) == expected
    second.restore({"snapshot_id": second_snap})
    first.restore({"snapshot_id": first_snap})
    assert outcome(second.run({"max_instructions": 1_000_000})) == expected
    assert outcome(first.run({"max_instructions": 1_000_000})) == expected
    assert generic_calls == []
    assert list(fresh_gateware) == ["kws"]
    for cfu in (first_cfu, second_cfu):  # masks keep the ISA's ints ints
        assert {type(value) for value in cfu.sim._vals} == {int}


def test_gateware_is_shared_per_cfu_name(fresh_gateware):
    """Sessions on one RTL CFU share its gateware; different CFUs, and
    software models, never share an instance."""
    manager = SessionManager(compile_cache=None)

    def cfu(name, impl="rtl"):
        return manager.create({"cfu": name, "cfu_impl": impl}).emulator.cfu

    kws, simd, simd_again = cfu("kws"), cfu("simd-add"), cfu("simd-add")
    assert simd_again.rtl is simd.rtl
    assert kws.rtl.module is not simd.rtl.module
    assert kws.sim.program is not simd.sim.program
    assert cfu("kws", "model") is not cfu("kws", "model")
    assert sorted(fresh_gateware) == ["kws", "simd-add"]


def test_interp_adapter_on_shared_gateware_keeps_the_poke_handshake(
        fresh_gateware, generic_calls, monkeypatch):
    """An interpreter-backed adapter on the sessions' gateware runs the
    poke-level handshake, and answers as the specialised one does."""
    from repro.accel.kws import model as km
    from repro.cfu.rtl import RtlCfuAdapter
    from repro.emu.sessions import _build_cfu
    from repro.rtl import compile as rtl_compile

    monkeypatch.setattr(rtl_compile, "SPECIALIZE_AFTER", 1)
    gateware = _build_cfu("kws", "rtl")
    compiled = RtlCfuAdapter(gateware)
    interp = RtlCfuAdapter(gateware, backend="interp")
    handshakes, handshake = [], RtlCfuAdapter._handshake
    monkeypatch.setattr(RtlCfuAdapter, "_handshake", lambda adapter, *op: (
        handshakes.append(adapter) or handshake(adapter, *op)))
    ops = [(km.F3_MAC4, 1, 0x01020304, 0x05060708),
           (km.F3_MAC4, 0, 0xFF7F8001, 0x02030405),
           (km.F3_READ_ACC, 0, 0, 0)]
    for op in ops:
        assert interp.execute(*op) == compiled.execute(*op)
    assert compiled.sim.program.transactions[km.F3_MAC4] is not None
    assert interp._slots is None and compiled._slots is not None
    assert handshakes == [interp] * len(ops)
    assert generic_calls == []
