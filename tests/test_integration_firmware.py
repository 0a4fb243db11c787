"""Full-stack integration: real firmware on the emulated SoC.

These tests assemble genuine RV32IM programs, load them into the SoC's
memory map, and execute them on the ISA machine with the CFU attached —
as software emulation *and* as cycle-accurate gateware — exercising the
assembler, the machine, the bus/CSRs, the UART, and the CFU protocol in
one path.  This is the closest the reproduction comes to 'running on the
board'.
"""

import numpy as np
import pytest

from repro.accel import KwsCfu, KwsCfu2Rtl, Mnv2Cfu
from repro.accel.kws import model as km
from repro.accel.mnv2 import model as mm
from repro.boards import ARTY_A7_35T
from repro.cfu import RtlCfuAdapter, assert_firmware_equivalent
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator
from repro.soc import Soc

N = 32  # dot-product length (multiple of 4)

# MNV2 1x1-conv firmware shape: CH output channels, DW input words each.
MNV2_CH = 8
MNV2_DW = 4


def firmware(data_base, uart_addr):
    """SIMD dot product over int8 vectors via the CFU2 MAC4 instruction,
    then print 'OK' on the UART and return the accumulator."""
    return f"""
    start:
        li   t0, {data_base}        # a[]
        li   t1, {data_base + N}    # b[]
        li   t2, {N // 4}           # word count
        li   a1, 0
        li   a2, 0
        cfu  1, {km.F3_MAC4}, a0, a1, a2   # reset the accumulator (0*0)
    loop:
        lw   a1, 0(t0)
        lw   a2, 0(t1)
        cfu  0, {km.F3_MAC4}, a0, a1, a2   # acc += dot4(a, b)
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bnez t2, loop
        cfu  0, {km.F3_READ_ACC}, a0, x0, x0
        li   t5, {uart_addr}
        li   t6, 79                 # 'O'
        sw   t6, 0(t5)
        li   t6, 75                 # 'K'
        sw   t6, 0(t5)
        li   a7, 93
        ecall
    """


def postproc_firmware(mult, shift, zp, bias):
    """Requantization firmware: configure the CFU2 post-processing unit,
    build the accumulator 98,765 from MAC1 byte products, then POSTPROC."""
    return f"""
        li a1, {mult}
        cfu {km.CFG_MULT}, {km.F3_CONFIG}, a0, a1, x0
        li a1, {shift & 0xFFFFFFFF}
        cfu {km.CFG_SHIFT}, {km.F3_CONFIG}, a0, a1, x0
        li a1, {zp & 0xFFFFFFFF}
        li a2, {0x80 | (0x7F << 8)}
        cfu {km.CFG_OUTPUT}, {km.F3_CONFIG}, a0, a1, a2
        li a1, 127
        li a2, 127
        li t0, 6
        cfu 1, {km.F3_MAC1}, a0, x0, x0    # acc = 0
    square_loop:
        cfu 0, {km.F3_MAC1}, a0, a1, a2    # acc += 127*127
        addi t0, t0, -1
        bnez t0, square_loop
        li a2, 15
        cfu 0, {km.F3_MAC1}, a0, a1, a2    # acc += 127*15
        li a1, 86
        li a2, 1
        cfu 0, {km.F3_MAC1}, a0, a1, a2    # acc += 86
        li a2, {bias}
        cfu 0, {km.F3_POSTPROC}, a0, x0, a2
        li a7, 93
        ecall
    """


def mnv2_firmware(bias_base, mult_base, shift_base, filt_base, in_base,
                  out_base, zp):
    """A full CFU1 1x1-convolution: configure per-channel post-processing
    parameters from memory, stream filters and inputs into the on-CFU
    stores, then RUN_POSTPROC one int8 output per channel."""
    clamp_word = 0x80 | (0x7F << 8)  # act_min=-128, act_max=127
    return f"""
    start:
        cfu  {mm.CFG_RESET}, {mm.F3_CONFIG}, a0, x0, x0
        li   t0, {MNV2_CH}
        li   t1, {bias_base}
        li   t2, {mult_base}
        li   t3, {shift_base}
    cfg_loop:
        lw   a1, 0(t1)
        cfu  {mm.CFG_BIAS}, {mm.F3_CONFIG}, a0, a1, x0
        lw   a1, 0(t2)
        cfu  {mm.CFG_MULT}, {mm.F3_CONFIG}, a0, a1, x0
        lw   a1, 0(t3)
        cfu  {mm.CFG_SHIFT}, {mm.F3_CONFIG}, a0, a1, x0
        addi t1, t1, 4
        addi t2, t2, 4
        addi t3, t3, 4
        addi t0, t0, -1
        bnez t0, cfg_loop
        li   a1, {zp & 0xFFFFFFFF}
        li   a2, {clamp_word}
        cfu  {mm.CFG_OUTPUT}, {mm.F3_CONFIG}, a0, a1, a2
        li   a1, {MNV2_DW}
        cfu  {mm.CFG_DEPTH}, {mm.F3_CONFIG}, a0, a1, x0
    write_filters:
        li   t0, {MNV2_CH * MNV2_DW}
        li   t1, {filt_base}
    filt_loop:
        lw   a1, 0(t1)
        cfu  0, {mm.F3_WRITE_FILT}, a0, a1, x0
        addi t1, t1, 4
        addi t0, t0, -1
        bnez t0, filt_loop
    write_input:
        li   t1, {in_base}
        lw   a1, 0(t1)
        cfu  1, {mm.F3_WRITE_INPUT}, a0, a1, x0
        li   t0, {MNV2_DW - 1}
    in_loop:
        addi t1, t1, 4
        lw   a1, 0(t1)
        cfu  0, {mm.F3_WRITE_INPUT}, a0, a1, x0
        addi t0, t0, -1
        bnez t0, in_loop
    run:
        cfu  {mm.CFG_RESTART}, {mm.F3_CONFIG}, a0, x0, x0
        li   t0, {MNV2_CH}
        li   t1, {out_base}
    run_loop:
        cfu  {mm.RUN_POSTPROC}, {mm.F3_RUN1}, a0, x0, x0
        sb   a0, 0(t1)
        addi t1, t1, 1
        addi t0, t0, -1
        bnez t0, run_loop
    done:
        li   a0, 0
        li   a7, 93
        ecall
    """


def make_mnv2_data(seed):
    """Random per-channel postproc params, filters, and one input patch."""
    rng = np.random.default_rng(seed)
    bias = rng.integers(-500, 500, size=MNV2_CH).astype(np.int32)
    mult = rng.integers(0x40000000, 0x7F000000, size=MNV2_CH).astype(np.int32)
    shift = rng.integers(-8, 1, size=MNV2_CH).astype(np.int32)
    filt = rng.integers(-128, 128, size=(MNV2_CH, MNV2_DW, 4)).astype(np.int8)
    inp = rng.integers(-128, 128, size=(MNV2_DW, 4)).astype(np.int8)
    return bias, mult, shift, filt, inp


def mnv2_expected(bias, mult, shift, filt, inp, zp):
    """Independent oracle: numpy accumulation + the TFLite requantizer."""
    from repro.tflm.quantize import multiply_by_quantized_multiplier

    outputs = []
    for ch in range(MNV2_CH):
        acc = int((filt[ch].astype(np.int64) * inp.astype(np.int64)).sum())
        scaled = int(multiply_by_quantized_multiplier(
            acc + int(bias[ch]), int(mult[ch]), int(shift[ch])))
        outputs.append(max(-128, min(127, scaled + zp)))
    return outputs


def load_mnv2_firmware(emu, soc, seed=0, zp=-3):
    """Lay out the data, assemble, and load; returns (symbols, expected,
    out_base)."""
    bias, mult, shift, filt, inp = make_mnv2_data(seed)
    ram = soc.memory_map.get("main_ram").base
    bias_base = ram + 0x2000
    mult_base = bias_base + 4 * MNV2_CH
    shift_base = mult_base + 4 * MNV2_CH
    filt_base = shift_base + 4 * MNV2_CH
    in_base = filt_base + 4 * MNV2_CH * MNV2_DW
    out_base = in_base + 4 * MNV2_DW
    for base, blob in ((bias_base, bias), (mult_base, mult),
                       (shift_base, shift)):
        emu.bus.load_bytes(base, blob.astype("<i4").tobytes())
    emu.bus.load_bytes(filt_base, filt.tobytes())
    emu.bus.load_bytes(in_base, inp.tobytes())
    symbols = emu.load_assembly(
        mnv2_firmware(bias_base, mult_base, shift_base, filt_base, in_base,
                      out_base, zp),
        region="main_ram")
    return symbols, mnv2_expected(bias, mult, shift, filt, inp, zp), out_base


@pytest.mark.parametrize("seed", [0, 1])
def test_mnv2_conv_firmware(seed):
    """The CFU1 1x1 conv end to end: config, filter/input streaming,
    autonomous RUN, outputs in memory — against the numpy oracle."""
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=Mnv2Cfu())
    symbols, expected, out_base = load_mnv2_firmware(emu, soc, seed=seed)
    assert emu.run() == 0
    got = [emu.bus.read8(out_base + i) for i in range(MNV2_CH)]
    got = [b - 256 if b & 0x80 else b for b in got]
    assert got == expected
    assert "run_loop" in symbols


def make_vectors(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=N).astype(np.int8)
    b = rng.integers(-128, 128, size=N).astype(np.int8)
    return a, b


def run_firmware(cfu, seed=0):
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=cfu)
    ram = soc.memory_map.get("main_ram").base
    data_base = ram + 0x1000
    uart = soc.csr_bank.get("uart_rxtx").address
    a, b = make_vectors(seed)
    emu.bus.load_bytes(data_base, a.tobytes())
    emu.bus.load_bytes(data_base + N, b.tobytes())
    emu.load_assembly(firmware(data_base, uart), region="main_ram")
    result = emu.run()
    expected = int(a.astype(np.int64) @ b.astype(np.int64)) & 0xFFFFFFFF
    return result & 0xFFFFFFFF, expected, emu


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dot_product_firmware_with_cfu_model(seed):
    result, expected, emu = run_firmware(KwsCfu(), seed)
    assert result == expected
    assert emu.uart_output == "OK"
    assert emu.cycles > 0


@pytest.mark.parametrize("rtl_backend", ["interp", "compiled"])
def test_dot_product_firmware_with_cfu_gateware(rtl_backend):
    """Same firmware, CFU simulated cycle-accurately at RTL level."""
    result, expected, emu = run_firmware(
        RtlCfuAdapter(KwsCfu2Rtl(), backend=rtl_backend), seed=3)
    assert result == expected
    assert emu.uart_output == "OK"


def test_gateware_and_emulation_agree_on_cycles_and_result():
    """The Section II-E swap: identical architectural outcome either way."""
    model_result, _, model_emu = run_firmware(KwsCfu(), seed=4)
    rtl_result, _, rtl_emu = run_firmware(KwsCfu2Rtl(), seed=4)
    assert model_result == rtl_result
    assert model_emu.machine.instret == rtl_emu.machine.instret
    # CFU2 ops are single-cycle in both representations.
    assert model_emu.cycles == rtl_emu.cycles


def test_firmware_profiled_per_symbol():
    """Attach the ISA profiler: the loop must dominate."""
    from repro.cpu.profiler import MachineProfiler

    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=KwsCfu())
    ram = soc.memory_map.get("main_ram").base
    data_base = ram + 0x1000
    uart = soc.csr_bank.get("uart_rxtx").address
    a, b = make_vectors(9)
    emu.bus.load_bytes(data_base, a.tobytes())
    emu.bus.load_bytes(data_base + N, b.tobytes())
    symbols = emu.load_assembly(firmware(data_base, uart),
                                region="main_ram")
    profiler = MachineProfiler(emu.machine, symbols)
    profile = profiler.run()
    assert profile.top(1)[0].name == "loop"
    assert profile["loop"].cycles > profile["start"].cycles


def test_post_processing_firmware():
    """Requantize an accumulator entirely through CFU2 custom
    instructions, against the TFLite arithmetic oracle.

    MAC1 multiplies int8 lanes, so the firmware builds the accumulator
    98,765 = 6 * (127*127) + 127*15 + 86*1 from byte operands, then runs
    POSTPROC with the bias in rs2.
    """
    from repro.tflm.quantize import multiply_by_quantized_multiplier

    mult, shift, zp, bias = 0x52000000, -7, -12, 4321
    acc = 6 * 127 * 127 + 127 * 15 + 86  # = 98,765
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=KwsCfu2Rtl())
    emu.load_assembly(postproc_firmware(mult, shift, zp, bias),
                      region="main_ram")
    got = emu.run()
    expected = int(multiply_by_quantized_multiplier(acc + bias, mult, shift))
    expected = max(-128, min(127, expected + zp)) & 0xFF
    assert got & 0xFF == expected


def test_firmware_golden_harness_loads_where_the_soc_places_code():
    """The public firmware harness with no region: the firmware goes
    where the SoC places code (``main_ram`` on Arty), and gateware and
    software model agree on it and on the TFLite oracle."""
    from repro.tflm.quantize import multiply_by_quantized_multiplier

    mult, shift, zp, bias = 0x52000000, -7, -12, 4321
    acc = 6 * 127 * 127 + 127 * 15 + 86
    rtl_run, model_run = assert_firmware_equivalent(
        lambda: Soc(ARTY_A7_35T), KwsCfu2Rtl(), KwsCfu(),
        postproc_firmware(mult, shift, zp, bias))
    expected = int(multiply_by_quantized_multiplier(acc + bias, mult, shift))
    expected = max(-128, min(127, expected + zp)) & 0xFF
    assert rtl_run.exit_code & 0xFF == expected
    assert model_run.instret == rtl_run.instret > 0


def test_firmware_misuse_reports_cleanly():
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc)  # no CFU attached
    emu.load_assembly("""
        cfu 0, 0, a0, a1, a2
    """, region="main_ram")
    with pytest.raises(RuntimeError, match="no CFU attached"):
        emu.run()
