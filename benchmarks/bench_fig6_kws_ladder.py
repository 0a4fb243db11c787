"""Figure 6: keyword-spotting speedup and resource usage on Fomu.

Regenerates the Section III-B ladder: memory-system, CPU, CFU, and
software steps from the flash-XIP baseline (paper: 2.5 minutes) to the
final co-optimized deployment (paper: under 2 seconds, 75x), including
the resource-fit story (8/8 DSP tiles, near-full logic utilization).
"""

import pytest

from repro.boards import FOMU, fit
from repro.core.ladders import kws_initial_state, kws_ladder, run_ladder
from repro.cpu.vexriscv import VexRiscvConfig
from repro.soc import Soc

PAPER_SPEEDUPS = {
    "quadspi": 3.04,
    "sram-ops-model": 7.84,
    "larger-icache": 8.3,
    "fast-mult": 15.35,
    "mac-conv": 32.10,
    "post-proc": 37.64,
    "sw-spec": 75.0,
}


@pytest.fixture(scope="module")
def ladder_results():
    return run_ladder(kws_ladder(), kws_initial_state())


def test_fig6_kws_ladder(report, ladder_results):
    results = ladder_results
    clock = results[0].estimate.system.clock_hz
    report("Figure 6 — KWS speedup & resource usage (Fomu, iCE40UP5k)")
    report(f"baseline: {results[0].cycles:,.0f} cycles = "
           f"{results[0].cycles / clock:.0f} s @ {clock / 1e6:.0f} MHz "
           "(paper: ~2.5 minutes)")
    report(f"{'step':16s} {'speedup':>9s} {'paper':>7s} {'seconds':>9s} "
           f"{'cells':>6s} {'DSP':>4s} {'fit':>4s}")
    for r in results:
        paper = PAPER_SPEEDUPS.get(r.step.name)
        paper_txt = f"{paper:.2f}" if paper else "-"
        report(f"{r.step.name:16s} {r.speedup:>8.2f}x {paper_txt:>7s} "
               f"{r.cycles / clock:>9.2f} {r.fit.usage.logic_cells:>6d} "
               f"{r.fit.usage.dsps:>4d} {'OK' if r.fit.ok else 'NO':>4s}")
    final = results[-1]
    report(f"final: {final.cycles / clock:.2f} s (paper: < 2 s); "
           f"{final.fit.usage.dsps}/{FOMU.dsp_blocks} DSP tiles, "
           f"{100 * final.fit.cell_utilization:.1f}% of logic cells")

    # Shape assertions.
    assert 50 <= final.speedup <= 115
    for name, paper_value in PAPER_SPEEDUPS.items():
        measured = next(r.speedup for r in results if r.step.name == name)
        assert 0.5 * paper_value <= measured <= 2.0 * paper_value, (
            name, measured, paper_value)
    speedups = [r.speedup for r in results]
    assert all(b > a for a, b in zip(speedups, speedups[1:]))
    assert all(r.fit.ok for r in results)
    assert final.fit.usage.dsps == FOMU.dsp_blocks


def test_fig6_fitting_narrative(report):
    """'The minimal VexRiscv configuration does not fit on Fomu' until
    SoC features and error checking are stripped."""
    minimal = VexRiscvConfig(
        bypassing=False, branch_prediction="none", multiplier="none",
        divider="none", shifter="iterative", icache_bytes=0, dcache_bytes=0,
    )
    stock = Soc(FOMU, minimal)
    stock_fit = fit(FOMU, stock.resources())
    report("stock LiteX SoC + minimal VexRiscv:")
    report(stock_fit.summary())
    assert not stock_fit.ok

    dieted = Soc(FOMU, minimal.evolve(hw_error_checking=False,
                                      multiplier="iterative"))
    for feature in ("timer", "ctrl", "rgb", "touch"):
        dieted.remove_peripheral(feature)
    diet_fit = fit(FOMU, dieted.resources())
    report("after the SoC diet (timer/ctrl/rgb/touch removed, "
           "error checking off):")
    report(diet_fit.summary())
    assert diet_fit.ok


def test_fig6_cfu_attribution(report, ladder_results):
    """'Only 3x of the speedup was directly attributed to the small CFU.
    The other 25x was derived from optimizing the CPU, software, memory
    accesses, and system interfaces.'"""
    by_name = {r.step.name: r.speedup for r in ladder_results}
    cfu_direct = by_name["post-proc"] / by_name["fast-mult"]
    system_side = by_name["fast-mult"] * (by_name["sw-spec"] / by_name["post-proc"])
    report(f"CFU-direct factor: {cfu_direct:.2f}x (paper: ~3x)")
    report(f"CPU/memory/software factor: {system_side:.1f}x (paper: ~25x)")
    assert cfu_direct < system_side
