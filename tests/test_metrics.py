"""Telemetry series and their cross-layer producers.

Covers the series primitives of :class:`~repro.core.telemetry.Telemetry`
(counters/gauges/histograms, labels, snapshot round-trip) and every
subsystem feed: the ISA machine, the timing caches, the SoC bus traffic
accounting, the metered CFU, and the TFLM interpreter listener.
"""

import json

import pytest

from repro.cfu.interface import CfuModel, MeteredCfu
from repro.core.telemetry import TELEMETRY_SCHEMA_VERSION, Telemetry


# --- series primitives ----------------------------------------------------------------

def test_counter_labels_and_values():
    reg = Telemetry()
    reg.counter("ops", kind="alu").add(10)
    reg.counter("ops", kind="alu").inc()
    reg.counter("ops", kind="mul").add(3)
    assert reg.value("ops", kind="alu") == 11
    assert reg.value("ops", kind="mul") == 3
    assert len(reg) == 2
    assert "ops" in reg and "nope" not in reg


def test_counter_rejects_negative_and_kind_conflicts():
    reg = Telemetry()
    reg.counter("x").add(1)
    with pytest.raises(ValueError):
        reg.counter("x").add(-1)
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_label_order_is_irrelevant():
    reg = Telemetry()
    reg.counter("t", a=1, b=2).add(5)
    assert reg.value("t", b=2, a=1) == 5
    assert len(reg) == 1


def test_gauge_last_write_wins():
    reg = Telemetry()
    reg.gauge("temp").set(10)
    reg.gauge("temp").set(7)
    assert reg.value("temp") == 7


def test_histogram_buckets_and_mean():
    reg = Telemetry()
    h = reg.histogram("lat", buckets=(10, 100))
    for v in (5, 50, 500, 7):
        h.observe(v)
    assert h.counts == [2, 1, 1]  # <=10, <=100, overflow
    assert h.count == 4
    assert h.mean == pytest.approx((5 + 50 + 500 + 7) / 4)


def test_snapshot_roundtrip_and_json():
    reg = Telemetry()
    reg.counter("c", x=1).add(5)
    reg.gauge("g").set(2.5)
    reg.histogram("h", buckets=(10,)).observe(3)
    snap = reg.snapshot()
    assert snap["schema"] == TELEMETRY_SCHEMA_VERSION
    back = Telemetry.from_snapshot(snap)
    assert back.value("c", x=1) == 5
    assert back.value("g") == 2.5
    assert back.snapshot() == snap
    # The snapshot is plain JSON: it survives a serialization round trip.
    assert len(snap["series"]) == 3
    assert Telemetry.from_snapshot(
        json.loads(json.dumps(snap))).snapshot() == snap


def test_from_snapshot_rejects_unknown_schema():
    with pytest.raises(ValueError, match="unsupported metrics schema"):
        Telemetry.from_snapshot({"schema": 999, "series": []})


def test_summary_is_deterministic():
    reg = Telemetry()
    reg.counter("b").add(1)
    reg.counter("a", z=1).add(2)
    lines = reg.summary().splitlines()
    assert lines[0] == "telemetry: 2 series, 0 spans, 0 events"
    assert lines[1].strip().startswith("a{z=1}")


# --- subsystem feeds -----------------------------------------------------------------

class _EchoCfu(CfuModel):
    name = "echo"

    def op(self, funct3, funct7, a, b):
        return a ^ b

    def latency(self, funct3, funct7):
        return 4 if funct3 == 1 else 1


def test_metered_cfu_counts_and_passthrough():
    bare, metered = _EchoCfu(), MeteredCfu(_EchoCfu())
    assert metered.execute(1, 2, 5, 6) == bare.execute(1, 2, 5, 6)
    metered.execute(0, 0, 1, 2)
    metered.execute(1, 2, 3, 4)
    assert metered.invocations == {(1, 2): 2, (0, 0): 1}
    assert metered.total_invocations == 3
    assert metered.busy_cycles == 4 + 1 + 4
    assert metered.occupancy(90) == pytest.approx(9 / 90)
    reg = Telemetry()
    metered.export_metrics(reg, run="t")
    assert reg.value("cfu_invocations", funct3=1, funct7=2, run="t") == 2
    assert reg.value("cfu_busy_cycles", run="t") == 9
    metered.clear()
    assert metered.invocations == {} and metered.busy_cycles == 0


def test_machine_export_metrics():
    from repro.cpu.assembler import assemble
    from repro.cpu.machine import Machine

    machine = Machine()
    machine.load_assembly("""
        li t0, 10
    loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """)
    machine.run()
    reg = Telemetry()
    machine.export_metrics(reg)
    assert reg.value("sim_instructions") == machine.instret
    assert reg.value("sim_cycles") == machine.cycles
    assert reg.value("sim_block_cache_entries") == \
        machine.block_cache_entries


def test_machine_export_metrics_block_tier():
    from repro.cpu.machine import Machine

    src = """
        li t0, 200
    loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """
    machine = Machine()
    machine.load_assembly(src)
    machine.run(backend="auto")
    assert machine.block_cache_entries >= 1
    assert machine.block_promotions >= 1
    reg = Telemetry()
    machine.export_metrics(reg)
    assert reg.value("sim_block_cache_entries") == \
        machine.block_cache_entries
    assert reg.value("sim_block_promotions") == machine.block_promotions
    assert reg.value("sim_block_invalidations") == \
        machine.block_invalidation_count

    # A step run translates nothing, and its gauge says so.
    other = Machine()
    other.load_assembly(src)
    other.run(backend="step")
    assert other.block_cache_entries == 0
    reg2 = Telemetry()
    other.export_metrics(reg2)
    assert reg2.value("sim_block_cache_entries") == 0
    assert reg2.value("sim_block_promotions") == 0


def test_machine_block_invalidation_metrics():
    from repro.cpu.machine import Machine

    machine = Machine()
    machine.load_assembly("""
        li t0, 50
    loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """)
    machine.run(backend="auto")
    before = machine.block_invalidation_count
    assert machine.block_cache_entries >= 1
    # A store into the code page drops that page's blocks.
    machine.halted = False
    machine.memory.write32(4, 0x00000013)
    machine._invalidate_store(4, 3)
    assert machine.block_invalidation_count > before
    assert machine.block_cache_entries == 0


def test_bus_traffic_metrics():
    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.soc import Soc

    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    bus = soc.bus()
    assert bus.traffic() == {}  # disabled by default
    base = soc.memory_map.get("main_ram").base
    bus.write32(base, 123)
    bus.enable_traffic_metrics()
    bus.write32(base, 123)
    bus.read32(base)
    bus.read8(base + 1)
    traffic = bus.traffic()
    assert traffic[("main_ram", "write")] == (1, 4)
    assert traffic[("main_ram", "read")] == (2, 5)
    reg = Telemetry()
    bus.export_metrics(reg)
    assert reg.value("bus_bytes", region="main_ram", direction="read") == 5
    assert reg.value("bus_transactions", region="main_ram",
                     direction="write") == 1


def test_bus_csr_traffic_counted():
    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.soc import Soc

    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    bus = soc.bus().enable_traffic_metrics()
    uart = soc.csr_bank.get("uart_rxtx").address
    bus.write32(uart, 65)
    assert bus.traffic()[("csr", "write")] == (1, 4)


@pytest.mark.parametrize("via", ["bus", "step", "auto"],
                         ids=["bus", "step", "translated"])
def test_page_straddling_word_is_one_transaction(via):
    """A misaligned word inside one region is one 4-byte transaction,
    also where it straddles two of the region's 4 KiB pages: on the bus,
    and from each execution tier with alignment checks off."""
    import dataclasses

    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.emu import Emulator
    from repro.soc import Soc

    soc = Soc(ARTY_A7_35T,
              dataclasses.replace(ARTY_DEFAULT, hw_error_checking=False))
    addr = soc.memory_map.get("main_ram").base + 0x1FFE
    if via == "bus":
        bus = soc.bus().enable_traffic_metrics()
        bus.write32(addr, 0x1234_5678)
        assert bus.read32(addr) == 0x1234_5678
    else:
        emulator = Emulator(soc)
        bus = emulator.bus.enable_traffic_metrics()
        emulator.load_assembly(f"""
            li   t0, {addr}
            li   t1, 0x12345678
            sw   t1, 0(t0)
            lw   a0, 0(t0)
            li   a7, 93
            ecall
        """, region="flash")            # fetches count against flash
        emulator.machine.run(backend=via)
        assert emulator.machine.regs[10] == 0x1234_5678
    traffic = bus.traffic()
    assert traffic[("main_ram", "write")] == (1, 4)
    assert traffic[("main_ram", "read")] == (1, 4)


def test_tflm_metrics_listener():
    from repro.models import load
    from repro.perf.estimator import estimate_inference
    from repro.tflm.interpreter import Interpreter, metrics_listener

    import numpy as np

    model = load("dscnn_kws")
    from repro.boards import ARTY_A7_35T
    from repro.soc import Soc

    system = Soc(ARTY_A7_35T).system_config()
    estimate = estimate_inference(model, system)
    reg = Telemetry()
    interp = Interpreter(model,
                         listeners=[metrics_listener(reg, estimate=estimate)])
    rng = np.random.default_rng(0)
    interp.invoke(rng.integers(-128, 128, size=model.input.shape,
                               dtype=np.int8))
    first = model.operators[0]
    assert reg.value("tflm_op_invocations", op=first.name,
                     opcode=first.opcode) == 1
    cost = next(c for c in estimate.op_costs if c.op_name == first.name)
    assert reg.value("tflm_op_cycles", op=first.name,
                     opcode=first.opcode) == int(cost.cycles)
    total_invocations = sum(
        s.value for s in reg.series() if s.name == "tflm_op_invocations")
    assert total_invocations == len(model.operators)


def test_emulator_combined_export():
    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.emu import Emulator
    from repro.soc import Soc

    cfu = MeteredCfu(_EchoCfu())
    emu = Emulator(Soc(ARTY_A7_35T, ARTY_DEFAULT), cfu=cfu)
    emu.bus.enable_traffic_metrics()
    emu.load_assembly("""
        li a0, 3
        li a1, 5
        cfu 0, 0, a2, a0, a1
        ebreak
    """, region="main_ram")
    emu.run()
    reg = Telemetry()
    emu.export_metrics(reg, board="arty")
    assert reg.value("sim_instructions", board="arty") == emu.machine.instret
    assert reg.value("cfu_invocations", funct3=0, funct7=0, board="arty") == 1
    assert reg.value("bus_transactions", region="main_ram",
                     direction="read", board="arty") > 0
