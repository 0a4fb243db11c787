"""Ablation: energy per inference along the Fig. 6 ladder.

The paper's future work ("studying the optimization space for power and
energy efficiency"), executed: the same ladder that buys 75x-class
latency also cuts energy per inference by an order of magnitude, because
race-to-idle savings in static energy and the collapse of flash/DDR
traffic dominate the CFU's extra toggling.
"""

import pytest

from repro.core.ladders import kws_initial_state, kws_ladder, run_ladder
from repro.perf.energy import EnergyModel, static_power_mw


@pytest.fixture(scope="module")
def fig6():
    return run_ladder(kws_ladder(), kws_initial_state())


def test_ablation_energy_ladder(report, fig6):
    model = EnergyModel()
    energies = [model.estimate(r.estimate, r.fit) for r in fig6]
    report("Energy per inference along the Fig. 6 ladder (Fomu)")
    report(f"{'step':16s} {'total uJ':>12s} {'static':>10s} {'memory':>10s} "
           f"{'compute':>10s} {'cfu':>8s} {'power mW':>9s}")
    for r, energy in zip(fig6, energies):
        power = static_power_mw(r.fit.usage)
        report(f"{r.step.name:16s} {energy.total_uj:>12,.0f} "
               f"{energy.static_uj:>10,.0f} {energy.memory_uj:>10,.0f} "
               f"{energy.compute_uj:>10,.0f} {energy.cfu_uj:>8,.0f} "
               f"{power:>9.2f}")

    base, final = energies[0], energies[-1]
    report(f"\nenergy: {base.total_uj:,.0f} uJ -> {final.total_uj:,.0f} uJ "
           f"({base.total_uj / final.total_uj:.1f}x less per inference)")

    # Shape: monotone-ish decline, order-of-magnitude total saving.
    assert final.total_uj < base.total_uj / 10
    totals = [e.total_uj for e in energies]
    for before, after in zip(totals, totals[1:]):
        assert after < before * 1.1
    # The CFU rungs increase static power but still win on energy.
    by_name = {r.step.name: (r, e) for r, e in zip(fig6, energies)}
    fast_mult = by_name["fast-mult"]
    mac_conv = by_name["mac-conv"]
    assert static_power_mw(mac_conv[0].fit.usage) > static_power_mw(
        fast_mult[0].fit.usage)
    assert mac_conv[1].total_uj < fast_mult[1].total_uj


def test_ablation_energy_vs_latency_tradeoff(report, fig6):
    """Energy-delay product: the co-designed endpoint wins on both axes."""
    model = EnergyModel()
    base = fig6[0]
    final = fig6[-1]
    clock = base.estimate.system.clock_hz
    edp_base = (model.estimate(base.estimate, base.fit).total_uj
                * base.cycles / clock)
    edp_final = (model.estimate(final.estimate, final.fit).total_uj
                 * final.cycles / clock)
    report(f"energy-delay product: {edp_base:,.0f} -> {edp_final:,.0f} uJ*s "
           f"({edp_base / edp_final:,.0f}x better)")
    assert edp_base / edp_final > 500
