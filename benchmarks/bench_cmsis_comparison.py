"""Section III-B's target: the Cortex-M4 + CMSIS-NN comparison.

"We started with a baseline that was 75x slower than CMSIS-NN hand
optimized kernels ... The final optimized Fomu KWS results, if
normalized for the differing clock rates, are roughly comparable to the
MLPerf Tiny results for the much more complex Cortex-M4."
"""

import pytest

from repro.core.ladders import kws_initial_state, kws_ladder, run_ladder
from repro.models import load
from repro.perf.cortex_m4 import (
    CORTEX_M4_CLOCK_HZ,
    cmsis_nn_cycles,
    compare_with_cmsis_nn,
)


@pytest.fixture(scope="module")
def fig6():
    return run_ladder(kws_ladder(), kws_initial_state())


def test_cmsis_nn_comparison(report, fig6):
    kws = load("dscnn_kws")
    m4_cycles = cmsis_nn_cycles(kws)
    baseline, final = fig6[0], fig6[-1]

    report("KWS vs Cortex-M4 + CMSIS-NN (clock-normalized cycle counts)")
    report(f"{'platform':34s} {'cycles':>14s} {'clock':>8s} {'latency':>10s}")
    rows = [
        ("Fomu VexRiscv baseline", baseline.cycles, 12e6),
        ("Fomu VexRiscv + CFU2 (final)", final.cycles, 12e6),
        ("Cortex-M4 + CMSIS-NN (modeled)", m4_cycles, CORTEX_M4_CLOCK_HZ),
    ]
    for name, cycles, clock in rows:
        report(f"{name:34s} {cycles:>14,.0f} {clock / 1e6:>6.0f}MHz "
               f"{1000 * cycles / clock:>8.1f}ms")

    gap_before = baseline.cycles / m4_cycles
    _, _, gap_after = compare_with_cmsis_nn(kws, final.cycles)
    report(f"\ncycle gap to CMSIS-NN: {gap_before:,.0f}x -> {gap_after:.1f}x")
    report("(paper: started '75x slower than CMSIS-NN', ended 'roughly "
           "comparable' normalized for clock rate)")

    # Shape: huge starting gap, near-closed after the ladder.
    assert gap_before > 50
    assert gap_after < 10
    assert gap_before / gap_after > 40
