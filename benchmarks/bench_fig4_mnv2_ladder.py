"""Figure 4: MobileNetV2 1x1 CONV_2D speedup and resource usage on Arty.

Regenerates the paper's bar chart series: cumulative speedup of the 1x1
CONV_2D operator and FPGA resource usage at each optimization step, plus
the per-step deltas quoted in the Section III-A text (~55 cycles saved
per output by the postproc CFU, <1 cycle/MAC at Mac4Run1, 3x overall).
"""

import pytest

from repro.core.ladders import (
    mnv2_1x1_filter,
    mnv2_initial_state,
    mnv2_ladder,
    run_ladder,
)
from repro.core.reporting import PAPER_FIG4


@pytest.fixture(scope="module")
def ladder_results():
    state = mnv2_initial_state()
    return run_ladder(mnv2_ladder(), state,
                      op_filter=mnv2_1x1_filter(state.model)), state


def test_fig4_mnv2_ladder(report, ladder_results):
    results, state = ladder_results
    macs_1x1 = sum(op.macs for op in state.model.operators
                   if op.opcode == "CONV_2D"
                   and op.options.get("kernel") == (1, 1))
    base_op_cycles = results[0].estimate.cycles_for(
        mnv2_1x1_filter(state.model))

    report("Figure 4 — MNV2 1x1 CONV_2D speedup & resource usage (Arty A7-35T)")
    report(f"baseline: {results[0].cycles:,.0f} total cycles, "
           f"{base_op_cycles:,.0f} in 1x1 convs "
           f"({base_op_cycles / macs_1x1:.2f} cyc/MAC)")
    report(f"{'step':16s} {'op speedup':>11s} {'paper':>7s} "
           f"{'cyc/MAC':>8s} {'cells':>7s} {'DSP':>4s} {'BRAM kb':>8s}")
    for r in results:
        op_cycles = base_op_cycles / r.op_speedup
        paper = PAPER_FIG4.get(r.step.name)
        paper_txt = f"{paper:.1f}" if paper else "-"
        usage = r.fit.usage
        report(f"{r.step.name:16s} {r.op_speedup:>10.2f}x {paper_txt:>7s} "
               f"{op_cycles / macs_1x1:>8.3f} {usage.logic_cells:>7d} "
               f"{usage.dsps:>4d} {usage.bram_bits / 1024:>8.1f}")
    report(f"overall MNV2 speedup: {results[-1].speedup:.2f}x (paper: 3x)")
    report(f"operator time: {results[0].estimate.system.seconds(base_op_cycles):.2f}s"
           f" -> {results[-1].estimate.system.seconds(base_op_cycles / results[-1].op_speedup):.3f}s"
           " (paper: 5.5s -> 0.10s)")

    # Shape assertions (the reproduction criteria from EXPERIMENTS.md).
    final = results[-1].op_speedup
    assert 35 <= final <= 80
    for name, paper_value in PAPER_FIG4.items():
        measured = next(r.op_speedup for r in results if r.step.name == name)
        assert 0.5 * paper_value <= measured <= 2.0 * paper_value, (
            name, measured, paper_value)
    cells = [r.fit.usage.logic_cells for r in results]
    assert cells[-1] < max(cells)  # usage falls after the mid-ladder peak


def test_fig4_text_deltas(report, ladder_results):
    """The quoted per-step observations from the Section III-A text."""
    results, state = ladder_results
    by_name = {r.step.name: r for r in results}
    filt = mnv2_1x1_filter(state.model)
    outputs = sum(
        op.macs // state.model.tensor(op.inputs[0]).shape[-1]
        for op in state.model.operators
        if op.opcode == "CONV_2D" and op.options.get("kernel") == (1, 1)
    )
    sw = by_name["sw-1x1"].estimate.cycles_for(filt)
    pp = by_name["cfu-postproc"].estimate.cycles_for(filt)
    saved_per_output = (sw - pp) / outputs
    report(f"postproc CFU saves {saved_per_output:.1f} cycles/output "
           "(paper: ~55)")
    assert 10 <= saved_per_output <= 120

    macs_1x1 = sum(op.macs for op in state.model.operators
                   if op.opcode == "CONV_2D"
                   and op.options.get("kernel") == (1, 1))
    run1 = by_name["mac4-run1"].estimate.cycles_for(filt) / macs_1x1
    report(f"Mac4Run1: {run1:.3f} cycles/MAC (paper: 'less than one')")
    assert run1 < 1.0
