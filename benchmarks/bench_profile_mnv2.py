"""Section III-A profile table: the MNV2 baseline operator breakdown.

Paper: "the unaccelerated baseline application takes about 900M cycles.
About 95% of its execution time is spread across three different types
of convolutions: 1x1 2D Convolution (63%), Depthwise Convolution
(22.5%), 3x3 2D Convolution (11%)."
"""

import pytest

from repro.boards import ARTY_A7_35T
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.models import load
from repro.perf.estimator import estimate_inference
from repro.soc import Soc

PAPER_SHARES = {"CONV_2D_1x1": 0.63, "DEPTHWISE_CONV_2D": 0.225,
                "CONV_2D_other": 0.11}


@pytest.fixture(scope="module")
def baseline_profile():
    model = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    system = Soc(ARTY_A7_35T, ARTY_DEFAULT).system_config()
    return estimate_inference(model, system)


def test_profile_mnv2_baseline(report, baseline_profile):
    estimate = baseline_profile
    total = estimate.total_cycles
    report("MNV2 baseline profile on Arty A7-35T (reference kernels)")
    report(f"total: {total:,.0f} cycles (paper: ~900M); "
           f"{estimate.seconds * 1000:.0f} ms @ 75 MHz")
    report(f"{'operator type':22s} {'cycles':>15s} {'share':>7s} {'paper':>7s}")
    shares = estimate.by_opcode(split_conv_1x1=True)
    for opcode, cycles in sorted(shares.items(), key=lambda kv: -kv[1]):
        paper = PAPER_SHARES.get(opcode)
        paper_txt = f"{100 * paper:.1f}%" if paper else "-"
        report(f"{opcode:22s} {cycles:>15,.0f} {100 * cycles / total:>6.1f}% "
               f"{paper_txt:>7s}")

    # Shape assertions.
    assert 3e8 <= total <= 3e9                       # same order as 900M
    conv_share = sum(shares.get(k, 0) for k in PAPER_SHARES) / total
    assert conv_share > 0.9                          # paper: ~95%
    ordering = sorted(PAPER_SHARES, key=lambda k: -shares.get(k, 0))
    assert ordering == ["CONV_2D_1x1", "DEPTHWISE_CONV_2D", "CONV_2D_other"]


def test_profile_per_op_table(report, baseline_profile):
    """The per-operator view the on-board profiler prints."""
    table = baseline_profile.per_op_table()
    report(table)
    assert "block" in table
