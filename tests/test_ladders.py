"""The paper's headline results as tests: Fig. 4 and Fig. 6 shape checks.

These assert the *shape* criteria from EXPERIMENTS.md: monotone
improvement along each ladder, factors in the paper's band, every Fomu
rung fitting the FPGA, and the untouched configuration not fitting.
The last section pins every rung's and every project's numbers, and
checks each Section III project is its ladder's last rung.
"""

import pytest

from repro.boards import FOMU, fit
from repro.core.ladders import (
    FOMU_BASELINE_CPU,
    kws_initial_state,
    kws_ladder,
    mnv2_1x1_filter,
    mnv2_initial_state,
    mnv2_ladder,
    run_ladder,
)
from repro.core.project import load_project
from repro.cpu.vexriscv import VexRiscvConfig
from repro.soc import Soc


@pytest.fixture(scope="module")
def fig4():
    state = mnv2_initial_state()
    return run_ladder(mnv2_ladder(), state,
                      op_filter=mnv2_1x1_filter(state.model)), state


@pytest.fixture(scope="module")
def fig6():
    return run_ladder(kws_ladder(), kws_initial_state())


# --- Fig. 4 -------------------------------------------------------------------------

def test_fig4_step_names(fig4):
    results, _ = fig4
    names = [r.step.name for r in results]
    assert names == ["base", "sw-1x1", "cfu-postproc", "cfu-hold-filt",
                     "cfu-hold-inp", "cfu-mac4", "mac4-run1",
                     "incl-postproc", "macc4-run4", "overlap-input"]


def test_fig4_final_speedup_band(fig4):
    """Paper: 55x on the 1x1 CONV_2D operator.  Band: 35x-80x."""
    results, _ = fig4
    final = results[-1].op_speedup
    assert 35 <= final <= 80, final


def test_fig4_monotone_except_hold_inp(fig4):
    results, _ = fig4
    speedups = [r.op_speedup for r in results]
    for i in range(1, len(speedups)):
        if results[i].step.name == "cfu-hold-inp":
            # The paper's own regression: holding inputs canceled out.
            assert speedups[i] < speedups[i - 1]
        else:
            assert speedups[i] > speedups[i - 1] * 0.99


def test_fig4_key_rungs_in_band(fig4):
    results, _ = fig4
    by_name = {r.step.name: r.op_speedup for r in results}
    assert 1.6 <= by_name["sw-1x1"] <= 2.8          # paper 2.0
    assert 1.8 <= by_name["cfu-postproc"] <= 3.2    # paper 2.3
    assert 6.5 <= by_name["cfu-mac4"] <= 14         # paper 9.8
    assert 13 <= by_name["mac4-run1"] <= 40         # paper 26
    assert 18 <= by_name["incl-postproc"] <= 47     # paper 31.1


def test_fig4_never_close_to_arty_limits(fig4):
    """'we were never close to running out of any FPGA resources'."""
    results, _ = fig4
    for r in results:
        assert r.fit.ok
        assert r.fit.cell_utilization < 0.5


def test_fig4_overall_mnv2_speedup(fig4):
    """Paper: 'Our overall speedup as a result for MNV2 was 3x'."""
    results, _ = fig4
    assert 2.5 <= results[-1].speedup <= 5.5


def test_fig4_resource_curve_peaks_midway(fig4):
    results, _ = fig4
    cells = [r.fit.usage.logic_cells for r in results]
    peak = cells.index(max(cells))
    assert 3 <= peak <= 7
    assert cells[-1] < cells[peak]


def test_fig4_baseline_matches_paper_order_of_magnitude(fig4):
    """Paper: ~900M cycles baseline, 1x1 conv ~63% of runtime."""
    results, state = fig4
    base = results[0]
    assert 3e8 < base.cycles < 3e9
    filt = mnv2_1x1_filter(state.model)
    share = base.estimate.cycles_for(filt) / base.cycles
    assert 0.5 < share < 0.9  # paper: 0.63


# --- Fig. 6 --------------------------------------------------------------------------

def test_fig6_step_names(fig6):
    assert [r.step.name for r in fig6] == [
        "base", "quadspi", "sram-ops-model", "larger-icache", "fast-mult",
        "mac-conv", "post-proc", "sw-spec",
    ]


def test_fig6_final_speedup_band(fig6):
    """Paper: 75x overall.  Band: 50x-115x."""
    assert 50 <= fig6[-1].speedup <= 115, fig6[-1].speedup


def test_fig6_strictly_monotone(fig6):
    speedups = [r.speedup for r in fig6]
    assert all(b > a for a, b in zip(speedups, speedups[1:]))


def test_fig6_key_rungs_in_band(fig6):
    by_name = {r.step.name: r.speedup for r in fig6}
    assert 2.2 <= by_name["quadspi"] <= 4.2        # paper 3.04
    assert 6.0 <= by_name["sram-ops-model"] <= 12  # paper 7.84
    assert 11 <= by_name["fast-mult"] <= 23        # paper 15.35
    assert 24 <= by_name["mac-conv"] <= 55         # paper 32.1
    assert 27 <= by_name["post-proc"] <= 60        # paper 37.64


def test_fig6_larger_icache_is_a_small_step(fig6):
    by_name = {r.step.name: r.speedup for r in fig6}
    assert by_name["larger-icache"] / by_name["sram-ops-model"] < 1.15


def test_fig6_wall_clock(fig6):
    """Paper: 2.5 minutes -> under 2 seconds at the Fomu clock."""
    clock = 12e6
    baseline_s = fig6[0].cycles / clock
    final_s = fig6[-1].cycles / clock
    assert 100 <= baseline_s <= 320
    assert final_s <= 4.0


def test_fig6_every_rung_fits_fomu(fig6):
    for r in fig6:
        assert r.fit.ok, r.step.name


def test_fig6_final_design_is_tight(fig6):
    """'We stopped once we reached this state': nearly all cells used."""
    final = fig6[-1].fit
    assert final.cell_utilization > 0.90
    assert final.usage.dsps == FOMU.dsp_blocks  # all 8 DSP tiles consumed


def test_fig6_untouched_soc_does_not_fit():
    """The Section III-B motivation: the minimal VexRiscv on the stock
    LiteX SoC exceeds Fomu, forcing the feature diet."""
    minimal = VexRiscvConfig(
        bypassing=False, branch_prediction="none", multiplier="none",
        divider="none", shifter="iterative", icache_bytes=0, dcache_bytes=0,
    )
    stock = Soc(FOMU, minimal)
    assert not fit(FOMU, stock.resources()).ok


def test_fig6_cfu_contribution_is_minority():
    """Paper: 'Only 3x of the speedup was directly attributed to the
    small CFU. The other 25x was derived from optimizing the CPU,
    software, memory accesses, and system interfaces.'"""
    results = run_ladder(kws_ladder(), kws_initial_state())
    by_name = {r.step.name: r.speedup for r in results}
    cfu_factor = by_name["post-proc"] / by_name["fast-mult"]
    non_cfu_factor = by_name["fast-mult"]
    assert cfu_factor < non_cfu_factor
    assert 1.5 <= cfu_factor <= 5  # paper: ~3x directly from the CFU


def test_fomu_baseline_cpu_is_the_dieted_config():
    assert not FOMU_BASELINE_CPU.bypassing
    assert FOMU_BASELINE_CPU.multiplier == "iterative"
    assert FOMU_BASELINE_CPU.divider == "none"
    assert not FOMU_BASELINE_CPU.hw_error_checking


# --- Pinned numbers ---------------------------------------------------------------------

#: (cycles, logic cells, DSPs) at every rung.  A total is ``sum()`` over
#: float operator costs, which Python 3.12 rounds with compensated
#: summation and earlier versions do not, so cycles compare to a relative
#: 1e-12: far below any change to the cost model, which moves them by
#: whole cycles.  The resource counts are integers and compare exactly.
FIG4_NUMBERS = [
    ("base", 771122157.6500001, 8806, 4),
    ("sw-1x1", 473111135.64999974, 8806, 4),
    ("cfu-postproc", 457580360.8500001, 10097, 8),
    ("cfu-hold-filt", 433094444.8500001, 10587, 8),
    ("cfu-hold-inp", 466837811.8500001, 11044, 8),
    ("cfu-mac4", 242789673.45000005, 11360, 12),
    ("mac4-run1", 216252965.05000004, 11464, 28),
    ("incl-postproc", 208292865.05000007, 11206, 28),
    ("macc4-run4", 200785269.35000005, 11091, 28),
    ("overlap-input", 195988602.35000005, 11186, 28),
]
FIG6_NUMBERS = [
    ("base", 2510056021.0, 4496, 0),
    ("quadspi", 833680376.0, 4536, 0),
    ("sram-ops-model", 260014304.0, 4536, 0),
    ("larger-icache", 259173206.0, 4826, 0),
    ("fast-mult", 144591158.0, 4772, 4),
    ("mac-conv", 59169458.0, 5024, 8),
    ("post-proc", 55023986.0, 5115, 8),
    ("sw-spec", 29892386.0, 5115, 8),
]
#: Each project's ``profile().total_cycles`` and fit usage as
#: (LUTs, FFs, DSPs, BRAM bits).
PROJECT_NUMBERS = {
    "mnv2_first": (195988602.35000005, (10057, 4519, 28, 280960)),
    "kws_micro_accel": (29892386.0, (4594, 2087, 8, 43776)),
    "proj_template": (51101012.725, (7773, 4132, 4, 106368)),
}


def _cycles(value):
    return pytest.approx(value, rel=1e-12)


def _assert_rungs(results, expected):
    assert [r.step.name for r in results] == [row[0] for row in expected]
    for result, (name, cycles, cells, dsps) in zip(results, expected):
        assert result.cycles == _cycles(cycles), name
        usage = result.fit.usage
        assert (usage.logic_cells, usage.dsps) == (cells, dsps), name


def test_fig4_numbers_are_pinned(fig4):
    _assert_rungs(fig4[0], FIG4_NUMBERS)


def test_fig6_numbers_are_pinned(fig6):
    _assert_rungs(fig6, FIG6_NUMBERS)


@pytest.mark.parametrize("name", sorted(PROJECT_NUMBERS))
def test_project_numbers_are_pinned(name):
    playground = load_project(name).playground
    cycles, usage = PROJECT_NUMBERS[name]
    assert playground.profile().total_cycles == _cycles(cycles)
    fitted = playground.fit().usage
    assert (fitted.luts, fitted.ffs, fitted.dsps, fitted.bram_bits) == usage


def test_section_iii_projects_are_their_ladders_last_rungs(fig4, fig6):
    for name, final in (("mnv2_first", fig4[0][-1]),
                        ("kws_micro_accel", fig6[-1])):
        playground = load_project(name).playground
        assert playground.profile().total_cycles == final.cycles, name
        assert playground.fit().usage == final.fit.usage, name
