"""Beyond the paper, part 2: lifting MNV2's *overall* speedup.

The paper's footnote 2: "For an overall speedup of this magnitude, we
would also need to speed up the other significant operator types by a
similar amount, which we have not yet implemented.  Our overall speedup
as a result for MNV2 was 3x."

After CFU1 makes 1x1 convolutions ~50x faster, the profile shifts:
depthwise and 3x3 convolutions own the runtime.  This bench implements
the paper's "in theory as well" remark — apply the SIMD depthwise/conv
treatment (the CFU2-style kernels, which handle any CONV_2D and
DEPTHWISE_CONV_2D) to the remaining operators — and measures how far
the overall number moves.
"""

import pytest

from repro.boards import ARTY_A7_35T, fit
from repro.accel.kws.resources import cfu2_resources
from repro.accel.mnv2.resources import stage_resources
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.kernels.conv1x1 import OverlapInput
from repro.kernels.kws import kws_variants
from repro.kernels.reference import reference_variants
from repro.models import load
from repro.perf.estimator import estimate_inference
from repro.soc import Soc


@pytest.fixture(scope="module")
def setup():
    model = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    system = Soc(ARTY_A7_35T, ARTY_DEFAULT).system_config()
    return model, system


def test_mnv2_overall_extension(report, setup):
    model, system = setup

    def run_all():
        baseline = estimate_inference(model, system)
        cfu1_only = estimate_inference(
            model, system, reference_variants().extended(OverlapInput()))
        # CFU1 for 1x1 convs; CFU2-style SIMD kernels pick up depthwise
        # and the remaining convolutions.
        combined_variants = reference_variants().extended(
            *kws_variants(postproc=True, specialized=True), OverlapInput())
        combined = estimate_inference(model, system, combined_variants)
        return baseline, cfu1_only, combined

    baseline, cfu1_only, combined = run_all()
    report("MNV2 overall speedup: the footnote-2 extension")
    rows = [("reference kernels", baseline),
            ("+ CFU1 (paper endpoint)", cfu1_only),
            ("+ SIMD dw/conv kernels (extension)", combined)]
    report(f"{'configuration':36s} {'cycles':>14s} {'overall':>8s}")
    for name, estimate in rows:
        report(f"{name:36s} {estimate.total_cycles:>14,.0f} "
               f"{baseline.total_cycles / estimate.total_cycles:>7.2f}x")

    shares = cfu1_only.by_opcode(split_conv_1x1=True)
    top = max(shares, key=shares.get)
    report(f"\nafter CFU1 the profile shifts: {top} now owns "
           f"{100 * shares[top] / cfu1_only.total_cycles:.0f}% of the runtime")

    overall_paper = baseline.total_cycles / cfu1_only.total_cycles
    overall_ext = baseline.total_cycles / combined.total_cycles
    report(f"overall: {overall_paper:.2f}x (paper: 3x) -> "
           f"{overall_ext:.2f}x with the extension")

    # The combined design still fits the Arty comfortably.
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    both = fit(ARTY_A7_35T, soc.resources(), stage_resources("overlap_input"),
               cfu2_resources())
    report(both.summary())

    assert 2.5 <= overall_paper <= 5.5        # the paper's 3x
    assert overall_ext > 1.7 * overall_paper  # the extension pays
    assert top == "DEPTHWISE_CONV_2D"         # the predicted next hotspot
    assert both.ok


def test_amdahl_structure(report, setup):
    """Sanity: the 1x1-only endpoint is Amdahl-limited by the unmoved
    operators; speeding them up must unlock most of the remainder."""
    model, system = setup
    baseline = estimate_inference(model, system)
    cfu1_only = estimate_inference(
        model, system, reference_variants().extended(OverlapInput()))
    filt = {op.name for op in model.operators
            if op.opcode == "CONV_2D" and op.params.get("kernel") == (1, 1)}
    moved = baseline.cycles_for(lambda c: c.op_name in filt)
    unmoved = baseline.total_cycles - moved
    amdahl_limit = baseline.total_cycles / unmoved
    measured = baseline.total_cycles / cfu1_only.total_cycles
    report(f"Amdahl ceiling with only 1x1 accelerated: {amdahl_limit:.2f}x; "
           f"measured {measured:.2f}x")
    assert measured < amdahl_limit
