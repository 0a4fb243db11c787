"""Experiment report generation: one markdown file with every result.

``python -m repro report --out REPORT.md`` replays the paper's
experiments (both ladders, the profile table, the CMSIS comparison, the
energy ladder, optionally a DSE pass) and renders a self-contained
markdown report with paper-vs-measured columns — the artifact a
reproduction reviewer actually wants.
"""

from __future__ import annotations

from ..models import load
from ..perf.cortex_m4 import CORTEX_M4_CLOCK_HZ, cmsis_nn_cycles
from ..perf.energy import EnergyModel
from .ladders import (
    kws_initial_state,
    kws_ladder,
    mnv2_1x1_filter,
    mnv2_initial_state,
    mnv2_ladder,
    run_ladder,
)

PAPER_FIG4 = {"sw-1x1": 2.0, "cfu-postproc": 2.3, "cfu-mac4": 9.8,
              "mac4-run1": 26.0, "incl-postproc": 31.1,
              "overlap-input": 55.0}
PAPER_FIG6 = {"quadspi": 3.04, "sram-ops-model": 7.84, "larger-icache": 8.3,
              "fast-mult": 15.35, "mac-conv": 32.10, "post-proc": 37.64,
              "sw-spec": 75.0}


def _table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def fig4_section():
    state = mnv2_initial_state()
    results = run_ladder(mnv2_ladder(), state,
                         op_filter=mnv2_1x1_filter(state.model))
    rows = []
    for r in results:
        paper = PAPER_FIG4.get(r.step.name)
        rows.append((r.step.name, f"{r.op_speedup:.2f}x",
                     f"{paper}x" if paper else "—",
                     f"{r.fit.usage.logic_cells:,}",
                     r.fit.usage.dsps))
    text = ["## Figure 4 — MNV2 1x1 CONV_2D ladder (Arty A7-35T)", ""]
    text.append(_table(
        ("step", "measured", "paper", "cells", "DSP"), rows))
    text.append("")
    text.append(f"Overall MNV2 speedup: {results[-1].speedup:.2f}x "
                "(paper: 3x).")
    return "\n".join(text), results


def fig6_section():
    results = run_ladder(kws_ladder(), kws_initial_state())
    clock = results[0].estimate.system.clock_hz
    rows = []
    for r in results:
        paper = PAPER_FIG6.get(r.step.name)
        rows.append((r.step.name, f"{r.speedup:.2f}x",
                     f"{paper}x" if paper else "—",
                     f"{r.cycles / clock:.2f} s",
                     "yes" if r.fit.ok else "NO"))
    text = ["## Figure 6 — KWS ladder (Fomu)", ""]
    text.append(_table(("step", "measured", "paper", "latency", "fits"),
                       rows))
    text.append("")
    text.append(
        f"Baseline {results[0].cycles / clock:.0f} s → final "
        f"{results[-1].cycles / clock:.2f} s (paper: ~150 s → <2 s)."
    )
    return "\n".join(text), results


def profile_section(fig4_results):
    estimate = fig4_results[0].estimate
    total = estimate.total_cycles
    shares = estimate.by_opcode(split_conv_1x1=True)
    paper = {"CONV_2D_1x1": "63%", "DEPTHWISE_CONV_2D": "22.5%",
             "CONV_2D_other": "11%"}
    rows = [(k, f"{100 * v / total:.1f}%", paper.get(k, "—"))
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])[:5]]
    text = ["## MNV2 baseline profile", "",
            f"Total: {total:,.0f} cycles (paper: ~900M).", "",
            _table(("operator type", "measured", "paper"), rows)]
    return "\n".join(text)


def cmsis_section(fig6_results):
    kws = load("dscnn_kws")
    m4 = cmsis_nn_cycles(kws)
    base, final = fig6_results[0], fig6_results[-1]
    rows = [
        ("Fomu baseline", f"{base.cycles:,.0f}", "12 MHz",
         f"{base.cycles / 12e6:.0f} s"),
        ("Fomu + CFU2 final", f"{final.cycles:,.0f}", "12 MHz",
         f"{final.cycles / 12e6:.2f} s"),
        ("Cortex-M4 CMSIS-NN", f"{m4:,.0f}",
         f"{CORTEX_M4_CLOCK_HZ / 1e6:.0f} MHz",
         f"{1000 * m4 / CORTEX_M4_CLOCK_HZ:.1f} ms"),
    ]
    text = ["## KWS vs Cortex-M4 + CMSIS-NN", "",
            _table(("platform", "cycles", "clock", "latency"), rows), "",
            f"Cycle gap closes {base.cycles / m4:,.0f}x → "
            f"{final.cycles / m4:.1f}x ('roughly comparable, normalized "
            "for clock')."]
    return "\n".join(text)


def energy_section(fig6_results):
    model = EnergyModel()
    rows = []
    for r in fig6_results:
        energy = model.estimate(r.estimate, r.fit)
        rows.append((r.step.name, f"{energy.total_uj:,.0f} uJ"))
    text = ["## Energy per inference (future-work extension)", "",
            _table(("step", "energy"), rows)]
    return "\n".join(text)


def generate_report(path=None, include_dse=False, dse_trials=45,
                    dse_workers=1, dse_cache_dir=None):
    """Build the full markdown report; returns the text."""
    sections = ["# CFU Playground reproduction — experiment report", ""]
    fig4_text, fig4_results = fig4_section()
    fig6_text, fig6_results = fig6_section()
    sections += [profile_section(fig4_results), "", fig4_text, "",
                 fig6_text, "", cmsis_section(fig6_results), "",
                 energy_section(fig6_results), ""]
    if include_dse:
        from ..dse import run_fig7, total_space_size, trace_summary
        from .telemetry import Telemetry

        telemetry = Telemetry()
        result = run_fig7(trials_per_family=dse_trials, workers=dse_workers,
                          cache_dir=dse_cache_dir, telemetry=telemetry)
        sections += [
            "## Figure 7 — design-space exploration", "",
            f"Space: {total_space_size():,} points.", "",
            "```", result.summary(), "```", "",
            "```", trace_summary(telemetry), "```", "",
        ]
    text = "\n".join(sections)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return text
