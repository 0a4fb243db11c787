"""Renode-style emulation tests: programs on the SoC, CFU co-sim, VCD."""

import random

import pytest

from tests.test_rtl_compile import SHIPPED, _module_signals

from repro.accel import KwsCfu, KwsCfu2Rtl, Mnv2Cfu
from repro.accel.kws import model as km
from repro.boards import ARTY_A7_35T, FOMU
from repro.cfu import RtlCfuAdapter
from repro.cpu.vexriscv import ARTY_DEFAULT, FOMU_MINIMAL
from repro.emu import Emulator, VcdWriter, capture_cfu_waveform
from repro.rtl import Module, Signal, Simulator, compile_module
from repro.rtl import compile as rtl_compile
from repro.soc import Soc


@pytest.fixture
def arty_emu():
    return Emulator(Soc(ARTY_A7_35T, ARTY_DEFAULT))


def test_program_runs_on_soc(arty_emu):
    arty_emu.load_assembly("""
        li a0, 21
        add a0, a0, a0
        li a7, 93
        ecall
    """, region="main_ram")
    assert arty_emu.run() == 42
    assert arty_emu.cycles > 0


def test_uart_printf_path(arty_emu):
    uart_addr = arty_emu.soc.csr_bank.get("uart_rxtx").address
    arty_emu.load_assembly(f"""
        li t5, {uart_addr}
        li a0, 104     # 'h'
        sw a0, 0(t5)
        li a0, 105     # 'i'
        sw a0, 0(t5)
        li a7, 93
        ecall
    """, region="main_ram")
    arty_emu.run()
    assert arty_emu.uart_output == "hi"


def test_cfu_instruction_with_software_model():
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=Mnv2Cfu())
    emu.load_assembly("""
        li a1, 0x02020202
        li a2, 0x03030303
        cfu 1, 5, a0, a1, a2    # MAC4 with reset: 4 * 6
        li a7, 93
        ecall
    """, region="main_ram")
    assert emu.run() == 24


@pytest.mark.parametrize("rtl_backend", ["interp", "compiled"])
def test_cfu_instruction_with_rtl_cosimulation(rtl_backend):
    """The Renode mode: ISA CPU + cycle-accurate gateware CFU."""
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=RtlCfuAdapter(KwsCfu2Rtl(), backend=rtl_backend))
    emu.load_assembly(f"""
        li a1, 0x01010101
        li a2, 0x05050505
        cfu 1, {km.F3_MAC4}, a0, a1, a2
        cfu 0, {km.F3_MAC4}, a0, a1, a2
        li a7, 93
        ecall
    """, region="main_ram")
    assert emu.run() == 40  # 20 + 20


def test_swap_rtl_for_software_emulation():
    """Section II-E's debugging move: swap the CFU for its emulation and
    the program must behave identically."""
    program = f"""
        li a1, 0x7F7F7F7F
        li a2, 0x02020202
        cfu 1, {km.F3_MAC4}, a0, a1, a2
        li a7, 93
        ecall
    """
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=KwsCfu2Rtl())
    emu.load_assembly(program, region="main_ram")
    rtl_result = emu.run()

    soc2 = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu2 = Emulator(soc2, cfu=KwsCfu2Rtl())
    emu2.swap_cfu(KwsCfu())
    emu2.load_assembly(program, region="main_ram")
    assert emu2.run() == rtl_result


def test_fomu_program_in_sram():
    soc = Soc(FOMU, FOMU_MINIMAL)
    emu = Emulator(soc)
    emu.load_assembly("""
        li a0, 7
        slli a0, a0, 2
        li a7, 93
        ecall
    """, region="sram")
    assert emu.run() == 28


def test_fomu_execute_in_place_from_flash_is_slower():
    program = """
        li t0, 200
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    """
    from repro.core.ladders import FOMU_BASELINE_CPU  # no caches at all

    sram = Emulator(Soc(FOMU, FOMU_BASELINE_CPU))
    sram.load_assembly(program, region="sram")
    sram.run()
    flash = Emulator(Soc(FOMU, FOMU_BASELINE_CPU))
    flash.load_assembly(program, region="flash")
    flash.run()
    assert flash.cycles > 3 * sram.cycles  # XIP without caches is painful


def test_vcd_capture():
    vcd, results = capture_cfu_waveform(
        KwsCfu2Rtl(),
        [(km.F3_MAC4, 1, 0x01010101, 0x02020202),
         (km.F3_READ_ACC, 0, 0, 0)],
    )
    assert results[0][0] == 8
    assert results[1][0] == 8
    assert "$timescale" in vcd
    assert "$var wire 32" in vcd
    assert any(line.startswith("#") and line != "#0"
               for line in vcd.splitlines())  # timestamped changes exist


def test_vcd_writer_standalone():
    count = Signal(4, name="count")
    m = Module()
    m.d.sync += count.eq(count + 1)
    sim = Simulator(m)
    writer = VcdWriter([count])
    sim.add_tracer(writer)
    sim.tick(3)
    text = writer.text()
    assert "$var wire 4" in text
    assert "b11 " in text  # count reached 3


def test_vcd_identical_across_rtl_backends():
    """Waveform capture is backend-independent: the compiled simulator
    drives tracers at the same times with the same values, so the VCD
    text matches the interpreter's byte for byte."""
    ops = [
        (km.F3_CONFIG, 1, 0x40000000, 0),
        (km.F3_MAC4, 1, 0x01020304, 0x01010101),
        (km.F3_MAC4, 0, 0x7F7F7F7F, 0x02020202),
        (km.F3_READ_ACC, 0, 0, 0),
    ]
    vcd_interp, results_interp = capture_cfu_waveform(
        RtlCfuAdapter(KwsCfu2Rtl(), backend="interp"), ops)
    vcd_compiled, results_compiled = capture_cfu_waveform(
        RtlCfuAdapter(KwsCfu2Rtl(), backend="compiled"), ops)
    assert results_interp == results_compiled
    assert vcd_interp == vcd_compiled


@pytest.mark.parametrize("name,factory,make_seq",
                         SHIPPED, ids=[g[0] for g in SHIPPED])
def test_vcd_identical_on_every_shipped_cfu(name, factory, make_seq,
                                            monkeypatch):
    """The same byte-for-byte VCD on every shipped CFU, tracing every
    netlist signal, with each funct3 running its generated transaction
    from its first call: the deferred settle and the generated clock
    edge hand tracers the interpreter's state."""
    monkeypatch.setattr(rtl_compile, "SPECIALIZE_AFTER", 1)
    cfu = factory()
    ops = make_seq(random.Random(5))
    ports = {id(sig) for sig in cfu.ports.all()}
    internal = [sig for sig in _module_signals(cfu.module)
                if id(sig) not in ports]
    vcd_interp, results_interp = capture_cfu_waveform(
        RtlCfuAdapter(cfu, backend="interp"), ops, extra_signals=internal)
    vcd_compiled, results_compiled = capture_cfu_waveform(
        RtlCfuAdapter(cfu, backend="compiled"), ops, extra_signals=internal)
    assert any(compile_module(cfu.module).transactions)
    assert results_interp == results_compiled
    assert vcd_interp == vcd_compiled
