"""Beyond the paper: the next turn of the deploy-profile-optimize loop.

The paper stops at the CMSIS-NN-class endpoint but notes it "could have
kept making improvements using the tool".  End-to-end profiling says the
MFCC frontend is now the hotspot, so this bench takes the next turn:

1. design CFU3, an FFT-butterfly unit (``repro.accel.audio``);
2. try to deploy it next to CFU2 on Fomu — and hit the resource wall
   (all 8 DSP tiles are already spent: the fitter says NO);
3. move to the next board up (OrangeCrab, ECP5-25F) where both CFUs
   fit, and measure the end-to-end win.

This is the framework's thesis in action: the tool surfaces the real
bottleneck, the real constraint, and the real trade — hardware,
software, *and* board selection co-design.
"""

import pytest

from repro.accel.audio import cfu3_resources
from repro.accel.kws.resources import cfu2_resources
from repro.boards import FOMU, ORANGECRAB, fit
from repro.core.ladders import kws_initial_state, kws_ladder, run_ladder
from repro.cpu.vexriscv import VexRiscvConfig
from repro.kernels.kws import kws_variants
from repro.kernels.reference import reference_variants
from repro.models import load
from repro.perf.estimator import estimate_inference
from repro.soc import Soc
from repro.tflm.frontend import frontend_cycles, frontend_cycles_with_cfu


@pytest.fixture(scope="module")
def fig6():
    return run_ladder(kws_ladder(), kws_initial_state())


def test_next_iteration_hits_fomu_resource_wall(report, fig6):
    final = fig6[-1]
    attempt = fit(FOMU, final.fit.usage, cfu3_resources())
    report("Next loop iteration: add CFU3 (FFT butterfly) to the Fomu design")
    report(attempt.summary())
    report("-> NO-FIT: the KWS endpoint already uses 8/8 DSP tiles and "
           f"{100 * final.fit.cell_utilization:.1f}% of the cells.")
    report("   On Fomu the loop has genuinely converged — the same wall "
           "the paper describes ('there were no remaining resources').")
    assert not attempt.ok
    assert final.fit.usage.dsps + cfu3_resources().dsps > FOMU.dsp_blocks


def test_next_iteration_on_orangecrab(report, fig6):
    """Scale up one board (Section II-C: 'the system is inherently
    scalable') and take the frontend win."""
    kws = load("dscnn_kws")
    # The ECP5 has room for a comfortable CPU next to both CFUs.
    cpu = VexRiscvConfig(
        bypassing=True, branch_prediction="dynamic",
        multiplier="single_cycle", divider="none", shifter="barrel",
        icache_bytes=4096, dcache_bytes=4096, hw_error_checking=False,
    )
    soc = Soc(ORANGECRAB, cpu)
    usage = fit(ORANGECRAB, soc.resources(), cfu2_resources(),
                cfu3_resources())
    report("CFU2 + CFU3 on OrangeCrab (ECP5-25F):")
    report(usage.summary())
    assert usage.ok

    system = soc.system_config()
    variants = reference_variants().extended(
        *kws_variants(postproc=True, specialized=True))
    inference = estimate_inference(kws, system, variants).total_cycles
    fe_plain = frontend_cycles(system)
    fe_cfu = frontend_cycles_with_cfu(system)
    e2e_before = fe_plain + inference
    e2e_after = fe_cfu + inference
    report(f"\n{'':18s} {'frontend':>12s} {'inference':>12s} {'e2e':>12s}")
    report(f"{'without CFU3':18s} {fe_plain:>12,.0f} {inference:>12,.0f} "
           f"{e2e_before:>12,.0f}")
    report(f"{'with CFU3':18s} {fe_cfu:>12,.0f} {inference:>12,.0f} "
           f"{e2e_after:>12,.0f}")
    report(f"\nfrontend speedup {fe_plain / fe_cfu:.2f}x; "
           f"end-to-end {e2e_before / e2e_after:.2f}x")
    assert fe_plain / fe_cfu > 1.5
    assert e2e_before / e2e_after > 1.05


def test_next_iteration_dsp_accounting(report):
    """The wall is specifically DSP tiles, mirroring Section III-B's
    4 (fast mult) + 4 (SIMD MAC) budget."""
    cpu_dsps = 4  # single-cycle multiplier
    budget = FOMU.dsp_blocks
    used = cpu_dsps + cfu2_resources().dsps
    report(f"Fomu DSP budget: {budget}; CPU multiplier {cpu_dsps} + "
           f"CFU2 SIMD MAC {cfu2_resources().dsps} = {used} (full)")
    report(f"CFU3 needs {cfu3_resources().dsps} more -> impossible on Fomu")
    assert used == budget
