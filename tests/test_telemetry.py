"""One telemetry object across layers: the Playground loop, the traced
emulator, the session fleet, and the JSON Lines export."""

import json

from repro.boards import ARTY_A7_35T
from repro.core import Playground
from repro.core.telemetry import Telemetry
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator
from repro.emu.sessions import SessionManager
from repro.models import load
from repro.soc import Soc

#: 2,005 instructions: a two-instruction ``li``, a 1,000-trip
#: two-instruction loop, then exit.
COUNT_LOOP = """
    li t0, 1000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
"""


def test_playground_loop_reports_into_one_object():
    telemetry = Telemetry()
    model = load("dscnn_kws")
    playground = Playground(ARTY_A7_35T, model, telemetry=telemetry)
    playground.deploy()
    playground.profile()
    emulator = playground.emulator()
    assert emulator.telemetry is telemetry
    emulator.load_assembly(COUNT_LOOP, region="main_ram")
    emulator.run()
    emulator.export_metrics(telemetry)

    # The traced run adds a span, not a second instruction count.
    assert telemetry.value("sim_instructions") == emulator.machine.instret
    assert {"deploy", "profile", "estimate", "sim_run"} <= {
        span.name for span in telemetry.spans}
    # deploy() profiles once, then profile() again.
    assert telemetry.value("playground_profiles") == 2
    assert telemetry.value("perf_ops_estimated") == 2 * len(model.operators)


def test_traced_runs_record_per_run_cycles():
    telemetry = Telemetry()
    emulator = Emulator(Soc(ARTY_A7_35T, ARTY_DEFAULT), telemetry=telemetry)
    deltas = []
    for _ in range(2):
        emulator.load_assembly(COUNT_LOOP, region="main_ram")
        emulator.machine.halted = False
        before = emulator.machine.cycles
        emulator.run()
        deltas.append(emulator.machine.cycles - before)
    spans = [span for span in telemetry.spans if span.name == "sim_run"]
    assert [span.attrs["instructions"] for span in spans] == [2005, 2005]
    assert [span.attrs["cycles"] for span in spans] == deltas
    assert sum(deltas) == emulator.machine.cycles


def test_session_emulators_carry_no_telemetry():
    manager = SessionManager(compile_cache=None)
    session = manager.create({})
    assert session.emulator.telemetry is None
    session.load({"assembly": COUNT_LOOP, "region": "main_ram"})
    session.run({"max_instructions": 10_000})
    assert "session_runs" in manager.telemetry
    assert manager.telemetry.spans == []


def test_export_header_round_trips_through_from_snapshot(tmp_path):
    telemetry = Telemetry()
    telemetry.counter("dse_cache_hits").add(3)
    telemetry.gauge("dse_queue_depth", study="tiny").set(2)
    telemetry.histogram("session_run_seconds",
                        buckets=(0.1, 1.0)).observe(0.5)
    with telemetry.span("trial", family="none"):
        pass
    telemetry.event("progress", completed=1)
    path = tmp_path / "run.jsonl"
    assert telemetry.export_jsonl(path) == 3
    header = json.loads(path.read_text().splitlines()[0])
    assert (header["type"], header["spans"], header["events"]) == (
        "trace", 1, 1)
    assert Telemetry.from_snapshot(header).snapshot() == telemetry.snapshot()
