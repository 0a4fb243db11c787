"""End-to-end KWS: MFCC pre-processing + inference, per ladder rung.

Section I's full-stack argument: the framework "accounts for end-to-end
bottlenecks that may arise elsewhere in the stack (software overheads,
pre-processing, etc.) but are often ignored when designing in
isolation."  This bench shows it quantitatively: the MFCC frontend is
noise at the baseline (~4% of runtime) but becomes a first-order term
once inference is ~80x faster — a bottleneck a kernel-only evaluation
would never see.
"""

import numpy as np
import pytest

from repro.core.ladders import kws_initial_state, kws_ladder, run_ladder
from repro.models import load
from repro.tflm import Interpreter
from repro.tflm.frontend import frontend_cycles, preprocess_audio


@pytest.fixture(scope="module")
def fig6():
    return run_ladder(kws_ladder(), kws_initial_state())


def test_e2e_kws_with_frontend(report, fig6):
    # Functional path: audio -> MFCC -> int8 features -> DS-CNN.
    t = np.arange(16_000) / 16_000
    audio = 0.4 * np.sin(2 * np.pi * 700 * t)
    model = load("dscnn_kws")
    features = preprocess_audio(audio)
    output = Interpreter(model).invoke(features)
    assert output.shape == (1, 12)

    clock = fig6[0].estimate.system.clock_hz
    report("End-to-end KWS (MFCC frontend + inference) per Fig. 6 rung")
    report(f"{'step':16s} {'inference':>12s} {'frontend':>12s} "
           f"{'e2e ms':>9s} {'frontend %':>11s}")
    shares = []
    for r in fig6:
        frontend = frontend_cycles(r.estimate.system)
        e2e = frontend + r.cycles
        share = frontend / e2e
        shares.append((r.step.name, share))
        report(f"{r.step.name:16s} {r.cycles:>12,.0f} {frontend:>12,.0f} "
               f"{1000 * e2e / clock:>9.1f} {100 * share:>10.1f}%")

    base_share = shares[0][1]
    final_share = shares[-1][1]
    report(f"\nfrontend share: {100 * base_share:.1f}% at baseline -> "
           f"{100 * final_share:.1f}% after optimization")
    report("-> the pre-processing that was invisible at the baseline is "
           "now a first-order bottleneck: the next deploy-profile-optimize "
           "iteration would target the MFCC (e.g. an FFT butterfly CFU)")

    assert base_share < 0.15
    assert final_share > 0.1
    assert final_share > 3 * base_share


def test_e2e_speedup_is_less_than_kernel_speedup(report, fig6):
    """Amdahl: counting pre-processing, the end-to-end win is smaller
    than the inference-only 75x-class number."""
    clock = fig6[0].estimate.system.clock_hz
    base = fig6[0]
    final = fig6[-1]
    e2e_speedup = ((frontend_cycles(base.estimate.system) + base.cycles)
                   / (frontend_cycles(final.estimate.system) + final.cycles))
    report(f"inference-only speedup: {final.speedup:.1f}x; "
           f"end-to-end speedup: {e2e_speedup:.1f}x")
    assert e2e_speedup < final.speedup
    assert e2e_speedup > 10
