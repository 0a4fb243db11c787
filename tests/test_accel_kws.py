"""KWS CFU (CFU2) tests: semantics, RTL golden equality, resource budget."""

import random

import pytest

from repro.accel import KwsCfu, KwsCfu2Rtl
from repro.accel.kws import model as km
from repro.accel.kws.resources import cfu2_resources
from repro.cfu import CfuError, RtlCfuAdapter, run_sequence
from repro.tflm.quantize import multiply_by_quantized_multiplier


def test_mac4_and_mac1_lanes():
    cfu = KwsCfu()
    a = (5 & 0xFF) | (1 << 8)
    b = (3 & 0xFF) | (2 << 8)
    assert cfu.op(km.F3_MAC4, 1, a, b) == 5 * 3 + 1 * 2
    cfu.reset()
    assert cfu.op(km.F3_MAC1, 1, a, b) == 15  # lane 0 only


def test_mac1_signed_lane():
    cfu = KwsCfu()
    assert cfu.op(km.F3_MAC1, 1, 0x80, 0x7F) == (-128 * 127) & 0xFFFFFFFF


def test_postproc_matches_tflm():
    cfu = KwsCfu()
    mult, shift = 0x55000000, -4
    cfu.op(km.F3_CONFIG, km.CFG_MULT, mult, 0)
    cfu.op(km.F3_CONFIG, km.CFG_SHIFT, shift & 0xFFFFFFFF, 0)
    cfu.op(km.F3_CONFIG, km.CFG_OUTPUT, (-128) & 0xFFFFFFFF,
           0x80 | (0x7F << 8))
    cfu.op(km.F3_MAC1, 1, 100, 50)   # acc = 5000
    bias = 777
    out = cfu.op(km.F3_POSTPROC, 0, 0, bias)
    expected = int(multiply_by_quantized_multiplier(5000 + bias, mult, shift))
    expected = max(-128, min(127, expected - 128))
    assert out == expected & 0xFF


def test_read_acc():
    cfu = KwsCfu()
    cfu.op(km.F3_MAC1, 1, 7, 6)
    assert cfu.op(km.F3_READ_ACC, 0, 0, 0) == 42


def test_unknown_op_rejected():
    with pytest.raises(CfuError):
        KwsCfu().op(7, 0, 0, 0)
    with pytest.raises(CfuError):
        KwsCfu().op(km.F3_CONFIG, 9, 0, 0)


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_rtl_golden_random_mix(backend):
    rng = random.Random(99)
    seq = [
        (km.F3_CONFIG, km.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0),
        (km.F3_CONFIG, km.CFG_SHIFT, -7 & 0xFFFFFFFF, 0),
        (km.F3_CONFIG, km.CFG_OUTPUT, (-10) & 0xFFFFFFFF, 0x80 | (0x7F << 8)),
    ]
    for _ in range(150):
        f3 = rng.choice([km.F3_MAC4, km.F3_MAC1, km.F3_POSTPROC,
                         km.F3_READ_ACC])
        f7 = 1 if f3 in (km.F3_MAC4, km.F3_MAC1) and rng.random() < 0.3 else 0
        seq.append((f3, f7, rng.getrandbits(32), rng.getrandbits(32)))
    report = run_sequence(RtlCfuAdapter(KwsCfu2Rtl(), backend=backend),
                          KwsCfu(), seq)
    assert report.passed, report.mismatches[:3]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_rtl_reconfiguration_mid_stream(backend):
    rng = random.Random(5)
    seq = []
    for round_index in range(4):
        seq.append((km.F3_CONFIG, km.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((km.F3_CONFIG, km.CFG_SHIFT,
                    -rng.randrange(0, 10) & 0xFFFFFFFF, 0))
        seq.append((km.F3_CONFIG, km.CFG_OUTPUT, 0, 0x80 | (0x7F << 8)))
        seq.append((km.F3_MAC4, 1, rng.getrandbits(32), rng.getrandbits(32)))
        seq.append((km.F3_POSTPROC, 0, 0, rng.randrange(-500, 500) & 0xFFFFFFFF))
    report = run_sequence(RtlCfuAdapter(KwsCfu2Rtl(), backend=backend),
                          KwsCfu(), seq)
    assert report.passed


def test_postproc_latency_reflects_fabric_multiplier():
    cfu = KwsCfu()
    assert cfu.latency(km.F3_POSTPROC, 0) > cfu.latency(km.F3_MAC4, 0)


# --- the Fomu DSP budget story -----------------------------------------------------

def test_cfu2_uses_exactly_four_dsps():
    """The SIMD MAC takes Fomu's remaining four DSP tiles; post-processing
    must be DSP-free (Section III-B)."""
    assert cfu2_resources(postproc=False).dsps == 4
    assert cfu2_resources(postproc=True).dsps == 4


def test_cfu2_postproc_adds_fabric_only():
    without = cfu2_resources(postproc=False)
    with_pp = cfu2_resources(postproc=True)
    assert with_pp.luts > without.luts
    assert with_pp.dsps == without.dsps
    assert with_pp.bram_bits == without.bram_bits == 0


def test_cfu2_is_small():
    """CFU2 is the 'small CFU' — an order of magnitude below CFU1."""
    from repro.accel import stage_resources

    assert cfu2_resources().logic_cells < stage_resources("cfu1_full").logic_cells / 3
