"""Ablation: the CPU-vs-memory resource trade on the KWS workload.

The paper's thesis for Section III-B is that in resource-constrained
deployments, logic spent on caches competes with logic spent on the CFU.
This ablation sweeps icache sizes on the Fomu configuration and reports
cycles and cells — showing diminishing returns (the basis for picking
4 kB before spending the rest on the CFU).
"""

from repro.boards import FOMU, fit
from repro.core.ladders import FOMU_BASELINE_CPU
from repro.models import load
from repro.perf.estimator import estimate_inference
from repro.soc import Soc

ICACHE_SIZES = (0, 1024, 2048, 4096, 8192, 16384)


def sweep():
    model = load("dscnn_kws")
    rows = []
    for size in ICACHE_SIZES:
        cpu = FOMU_BASELINE_CPU.evolve(icache_bytes=size,
                                       multiplier="single_cycle")
        soc = Soc(FOMU, cpu, quad_spi=True)
        for feature in ("timer", "ctrl", "rgb", "touch"):
            soc.remove_peripheral(feature)
        estimate = estimate_inference(model, soc.system_config())
        usage = fit(FOMU, soc.resources())
        rows.append((size, estimate.total_cycles, usage.usage.logic_cells,
                     usage.usage.bram_blocks(4096)))
    return rows


def test_ablation_icache_sweep(report):
    rows = sweep()
    report("Ablation — icache size vs KWS cycles (Fomu, QSPI, fast mult)")
    report(f"{'icache':>8s} {'cycles':>14s} {'cells':>7s} {'EBR':>5s}")
    for size, cycles, cells, ebr in rows:
        report(f"{size:>8d} {cycles:>14,.0f} {cells:>7d} {ebr:>5d}")

    cycles = [r[1] for r in rows]
    # Adding an icache helps (code still executes from flash)...
    assert cycles[1] < cycles[0]
    # ...but returns diminish once the hot code is captured.
    gain_first = cycles[0] - cycles[2]
    gain_last = cycles[2] - cycles[-1]
    report(f"first 2 kB gains {gain_first:,.0f} cycles; "
           f"next 14 kB gains {gain_last:,.0f}")
    assert gain_first > 3 * max(gain_last, 1)
    # Cells grow with cache control + BRAM pressure.
    assert rows[-1][2] >= rows[0][2]


def test_ablation_dcache_tradeoff(report):
    """A dcache competes with the CFU for the same logic budget."""
    model = load("dscnn_kws")
    rows = []
    for dcache in (0, 2048, 8192):
        cpu = FOMU_BASELINE_CPU.evolve(dcache_bytes=dcache,
                                       multiplier="single_cycle",
                                       icache_bytes=4096)
        soc = Soc(FOMU, cpu, quad_spi=True)
        for feature in ("timer", "ctrl", "rgb", "touch"):
            soc.remove_peripheral(feature)
        estimate = estimate_inference(
            model,
            soc.system_config(placement={"kernel_text": "sram",
                                         "model_weights": "sram"}),
        )
        result = fit(FOMU, soc.resources())
        rows.append((dcache, estimate.total_cycles,
                     result.usage.logic_cells, result.ok))
        report(f"dcache {dcache:>6d}: {estimate.total_cycles:>13,.0f} cycles, "
               f"{result.usage.logic_cells} cells, fit={result.ok}")
    # With the hot data already in single-cycle SRAM, a dcache buys little
    # but costs cells the CFU needs.
    no_cache, small, big = rows
    assert small[1] >= no_cache[1] * 0.9
    assert small[2] > no_cache[2]
