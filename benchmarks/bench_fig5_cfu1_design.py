"""Figure 5: the MNV2 CFU control logic and datapath design.

Fig. 5 is an architecture diagram; its reproduction artifact is the
CFU1 gateware itself.  This bench elaborates the full design, emits its
Verilog, synthesizes the resource estimate, and validates the datapath
against the software emulation (the strongest check a diagram admits).
"""

import random

import pytest

from repro.accel import Cfu1Rtl, Mnv2Cfu
from repro.accel.mnv2 import model as cm
from repro.cfu import run_sequence
from repro.rtl import estimate


@pytest.fixture(scope="module")
def cfu1():
    return Cfu1Rtl(channels=16, filter_words=128, input_words=32)


def test_fig5_cfu1_design(report, cfu1):
    verilog = cfu1.verilog()
    resources = estimate(cfu1.module)
    report("Figure 5 — CFU1 (MNV2) datapath, elaborated from the RTL DSL")
    report(f"Verilog: {len(verilog.splitlines())} lines, "
           f"{len(verilog)} bytes")
    report(f"simulation-size resources: {resources}")
    from repro.accel import stage_resources

    full = stage_resources("cfu1_full")
    report(f"deployment-size resources: {full}")
    report("datapath blocks (paper Fig. 5): filter store, input store, "
           "bias/multiplier/shift tables, 4xMAC, requantize, output pack")
    for block in ("c1_filt", "c1_inp", "c1_bias", "c1_mult", "c1_shift",
                  "c1_acc", "c1_outword"):
        assert block in verilog, block
        report(f"  {block}: present")

    assert "endmodule" in verilog
    assert full.dsps >= 4
    assert full.bram_bits >= 4096 * 32


def test_fig5_datapath_golden(report, cfu1):
    """Random program over the full op set, gateware vs emulation."""
    rng = random.Random(2024)
    depth = 4
    seq = [(cm.F3_CONFIG, cm.CFG_DEPTH, depth, 0)]
    for _ in range(16):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-2000, 2000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 10) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-7) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    for _ in range(16 * depth):
        seq.append((cm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((cm.F3_WRITE_INPUT, 1, rng.getrandbits(32), 0))
    for _ in range(depth - 1):
        seq.append((cm.F3_WRITE_INPUT, 0, rng.getrandbits(32), 0))
    for mode in (cm.RUN_RAW, cm.RUN_POSTPROC, cm.RUN_PACK4, cm.RUN_PACK4):
        seq.append((cm.F3_RUN1, mode, 0, 0))
    result = run_sequence(cfu1, Mnv2Cfu(), seq)
    report(f"golden program: {result.total} ops, "
           f"rtl {result.rtl_cycles} cycles vs model {result.model_cycles}")
    assert result.passed
    assert result.rtl_cycles == result.model_cycles
