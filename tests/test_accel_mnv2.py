"""MNV2 CFU (CFU1 family) tests: model semantics, RTL golden equality,
latency agreement, and the Fig. 4 resource-curve shape."""

import random

import numpy as np
import pytest

from repro.accel import Cfu1Rtl, MNV2_STAGES, Mac4Rtl, Mnv2Cfu, PostprocRtl, stage_resources
from repro.accel.mnv2 import model as cm
from repro.cfu import CfuError, RtlCfuAdapter, run_sequence
from repro.tflm.quantize import multiply_by_quantized_multiplier


def test_mac4_semantics():
    cfu = Mnv2Cfu()
    # lanes: 1*2 + 2*3 + (-1)*4 + 127*(-128)
    a = (1 & 0xFF) | (2 << 8) | (0xFF << 16) | (127 << 24)
    b = (2 & 0xFF) | (3 << 8) | (4 << 16) | (0x80 << 24)
    result = cfu.op(cm.F3_MAC4, 1, a, b)
    expected = 1 * 2 + 2 * 3 + (-1) * 4 + 127 * (-128)
    assert result == expected & 0xFFFFFFFF


def test_mac4_accumulates_across_ops():
    cfu = Mnv2Cfu()
    cfu.op(cm.F3_MAC4, 1, 0x01010101, 0x01010101)  # 4
    result = cfu.op(cm.F3_MAC4, 0, 0x02020202, 0x01010101)  # +8
    assert result == 12


def test_postproc_matches_tflm_requantize():
    cfu = Mnv2Cfu()
    bias, mult, shift = 1234, 0x40000000, -6
    cfu.op(cm.F3_CONFIG, cm.CFG_BIAS, bias & 0xFFFFFFFF, 0)
    cfu.op(cm.F3_CONFIG, cm.CFG_MULT, mult, 0)
    cfu.op(cm.F3_CONFIG, cm.CFG_SHIFT, shift & 0xFFFFFFFF, 0)
    cfu.op(cm.F3_CONFIG, cm.CFG_OUTPUT, (-4) & 0xFFFFFFFF,
           (0x80 | (0x7F << 8)))
    acc = -50_000
    out = cfu.op(cm.F3_POSTPROC, 0, acc & 0xFFFFFFFF, 0)
    expected = int(multiply_by_quantized_multiplier(acc + bias, mult, shift)) - 4
    expected = max(-128, min(127, expected))
    assert out == expected & 0xFF


def test_positive_shift_rejected():
    cfu = Mnv2Cfu()
    with pytest.raises(CfuError):
        cfu.op(cm.F3_CONFIG, cm.CFG_SHIFT, 2, 0)


def test_run_latency_model():
    fast = Mnv2Cfu(pipelined_input=True, run_cycles_per_word=1.0)
    fast.depth_words = 32
    slow = Mnv2Cfu(pipelined_input=False, run_cycles_per_word=2.0)
    slow.depth_words = 32
    assert fast.latency(cm.F3_RUN1, cm.RUN_PACK4) < slow.latency(
        cm.F3_RUN1, cm.RUN_PACK4)
    assert fast.latency(cm.F3_RUN1, cm.RUN_RAW) == 32 + 2


def _param_sequence(rng, channels):
    seq = []
    for _ in range(channels):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    return seq


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_postproc_rtl_golden(backend):
    rng = random.Random(11)
    seq = _param_sequence(rng, 8)
    seq += [(cm.F3_POSTPROC, 0, rng.randrange(-2**24, 2**24) & 0xFFFFFFFF, 0)
            for _ in range(64)]
    report = run_sequence(RtlCfuAdapter(PostprocRtl(channels=8),
                                        backend=backend), Mnv2Cfu(), seq)
    assert report.passed, report.mismatches[:3]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_mac4_rtl_golden(backend):
    rng = random.Random(12)
    seq = [(cm.F3_MAC4, rng.choice([0, 1]), rng.getrandbits(32),
            rng.getrandbits(32)) for _ in range(100)]
    report = run_sequence(RtlCfuAdapter(Mac4Rtl(), backend=backend),
                          Mnv2Cfu(), seq)
    assert report.passed


def _cfu1_run_sequence(rng, depth, channels, run_mode, runs):
    seq = [(cm.F3_CONFIG, cm.CFG_DEPTH, depth, 0)]
    seq += _param_sequence(rng, channels)
    for _ in range(channels * depth):
        seq.append((cm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((cm.F3_WRITE_INPUT, 1, rng.getrandbits(32), 0))
    for _ in range(depth - 1):
        seq.append((cm.F3_WRITE_INPUT, 0, rng.getrandbits(32), 0))
    for _ in range(runs):
        seq.append((cm.F3_RUN1, run_mode, 0, 0))
    return seq


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("run_mode,runs", [
    (cm.RUN_RAW, 3), (cm.RUN_POSTPROC, 6), (cm.RUN_PACK4, 2),
])
def test_cfu1_rtl_golden_all_run_modes(run_mode, runs, backend):
    rng = random.Random(run_mode * 7 + runs)
    seq = _cfu1_run_sequence(rng, depth=4, channels=8,
                             run_mode=run_mode, runs=runs)
    report = run_sequence(
        RtlCfuAdapter(Cfu1Rtl(channels=8, filter_words=64, input_words=16),
                      backend=backend), Mnv2Cfu(), seq)
    assert report.passed, report.mismatches[:3]


def test_cfu1_rtl_latency_matches_model():
    """The cost model's CFU latencies must be what the gateware takes."""
    rng = random.Random(5)
    seq = _cfu1_run_sequence(rng, depth=4, channels=8,
                             run_mode=cm.RUN_PACK4, runs=2)
    report = run_sequence(
        Cfu1Rtl(channels=8, filter_words=64, input_words=16), Mnv2Cfu(), seq)
    assert report.rtl_cycles == report.model_cycles


def test_cfu1_restart_rewinds_filter_walk():
    rng = random.Random(6)
    seq = _cfu1_run_sequence(rng, depth=2, channels=4,
                             run_mode=cm.RUN_RAW, runs=1)
    seq.append((cm.F3_CONFIG, cm.CFG_RESTART, 0, 0))
    seq.append((cm.F3_RUN1, cm.RUN_RAW, 0, 0))
    rtl = RtlCfuAdapter(Cfu1Rtl(channels=4, filter_words=16, input_words=8))
    results = [rtl.execute(*op)[0] for op in seq]
    # seq[-3] is the first RUN, seq[-2] the restart, seq[-1] the re-run.
    assert results[-1] == results[-3]


def test_verilog_emission_of_cfu1():
    verilog = Cfu1Rtl(channels=8, filter_words=32, input_words=8).verilog()
    assert "module mnv2-cfu1".replace("-", "_") or "module" in verilog
    assert "cmd_funct3" in verilog
    assert "endmodule" in verilog


# --- Fig. 4 resource curve shape ---------------------------------------------------

def test_resource_curve_peaks_midway():
    """'Resource usage peaked midway ... resulting in overall resource
    usage reduction' (Section III-A)."""
    cells = [stage_resources(stage).logic_cells for stage in MNV2_STAGES]
    peak_index = cells.index(max(cells))
    assert 3 <= peak_index <= 6          # peak in the middle of the ladder
    assert cells[-1] < max(cells)        # integration reduces usage
    assert cells[0] == cells[1] == 0     # software stages use no CFU logic


def test_stage_resources_monotone_early():
    assert (stage_resources("cfu_postproc").logic_cells
            < stage_resources("cfu_hold_filt").logic_cells
            < stage_resources("cfu_mac4").logic_cells)


def test_full_cfu1_has_stores_in_bram():
    report = stage_resources("cfu1_full")
    assert report.bram_bits >= 4096 * 32  # the filter store alone
    assert report.dsps >= 4


def test_unknown_stage_rejected():
    with pytest.raises(KeyError):
        stage_resources("nonexistent")
