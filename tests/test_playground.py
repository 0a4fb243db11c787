"""Playground API tests: the deploy-profile-optimize loop end to end."""

import numpy as np
import pytest

from repro.accel import KwsCfu, Mnv2Cfu
from repro.boards import ARTY_A7_35T, FOMU
from repro.core import FOMU_BASELINE_CPU, Playground, PlaygroundError
from repro.kernels.conv1x1 import OverlapInput
from repro.kernels.kws import kws_variants
from repro.models import load


@pytest.fixture(scope="module")
def kws():
    return load("dscnn_kws")


@pytest.fixture(scope="module")
def mnv2():
    return load("mobilenet_v2", width_multiplier=0.75, num_classes=100)


def test_deploy_profile_loop(kws):
    pg = Playground(ARTY_A7_35T, kws)
    report = pg.deploy()
    assert report.ok
    estimate = pg.profile()
    assert estimate.total_cycles > 0
    assert "CONV_2D" in estimate.by_opcode()


def test_kernel_swap_reduces_cycles(mnv2):
    pg = Playground(ARTY_A7_35T, mnv2)
    before = pg.profile(checkpoint="base").total_cycles
    pg.swap_kernel(OverlapInput())
    pg.attach_cfu(Mnv2Cfu(pipelined_input=True))
    after = pg.profile(checkpoint="cfu1").total_cycles
    assert after < before / 2
    history = pg.speedup_history()
    assert history[0] == ("base", 1.0)
    assert history[1][1] > 2


def test_cfu_resources_are_computed_when_fit_reads_them(kws):
    """A callable resource report runs on the first fit, once; profiling
    never runs it."""
    from repro.accel.kws.resources import cfu2_resources

    calls = []

    def report():
        calls.append(1)
        return cfu2_resources()

    pg = Playground(ARTY_A7_35T, kws)
    pg.swap_kernel(*kws_variants(postproc=True)).attach_cfu(KwsCfu(), report)
    pg.profile()
    assert calls == []
    fitted = pg.fit()
    assert calls == [1]
    assert pg.fit() == fitted and calls == [1]
    assert pg.cfu_resources == cfu2_resources()
    assert pg.attach_cfu(KwsCfu()).cfu_resources == cfu2_resources()
    assert pg.attach_cfu(None).cfu_resources.dsps == 0


def test_fomu_requires_diet(kws):
    pg = Playground(FOMU, kws, cpu_config=FOMU_BASELINE_CPU)
    # The stock SoC + even a dieted CPU is too big with USB on board.
    pg.reconfigure_cpu(hw_error_checking=True)
    assert not pg.fit().ok
    pg.remove_soc_feature("timer")
    pg.remove_soc_feature("ctrl")
    pg.remove_soc_feature("rgb")
    pg.remove_soc_feature("touch")
    pg.reconfigure_cpu(hw_error_checking=False)
    assert pg.fit().ok
    assert pg.deploy().ok


def test_deploy_raises_when_not_fitting(kws):
    pg = Playground(FOMU, kws, cpu_config=FOMU_BASELINE_CPU.evolve(
        hw_error_checking=True, bypassing=True, shifter="barrel"))
    with pytest.raises(PlaygroundError):
        pg.deploy()


def test_memory_ladder_via_playground(kws):
    pg = Playground(FOMU, kws, cpu_config=FOMU_BASELINE_CPU)
    pg.remove_soc_feature("timer")
    pg.remove_soc_feature("ctrl")
    pg.remove_soc_feature("rgb")
    pg.remove_soc_feature("touch")
    base = pg.profile().total_cycles
    pg.upgrade_to_quad_spi()
    quad = pg.profile().total_cycles
    pg.place_section("kernel_text", "sram")
    pg.place_section("model_weights", "sram")
    sram = pg.profile().total_cycles
    assert base > quad > sram


def test_place_section_validates_region(kws):
    pg = Playground(ARTY_A7_35T, kws)
    with pytest.raises(KeyError):
        pg.place_section("kernel_text", "nonexistent")


def test_run_inference_and_golden(kws):
    pg = Playground(ARTY_A7_35T, kws)
    pg.swap_kernel(*kws_variants(postproc=True))
    pg.attach_cfu(KwsCfu())
    pg.golden_test()
    x = np.zeros(kws.input.shape, dtype=np.int8)
    out = pg.run_inference(x)
    assert out.shape == (1, 12)


def test_emulator_from_playground(kws):
    pg = Playground(ARTY_A7_35T, kws)
    pg.attach_cfu(Mnv2Cfu())
    emu = pg.emulator()
    emu.load_assembly("""
        li a1, 0x01010101
        li a2, 0x01010101
        cfu 1, 5, a0, a1, a2
        li a7, 93
        ecall
    """, region="main_ram")
    assert emu.run() == 4


def test_summary_renders(kws):
    pg = Playground(ARTY_A7_35T, kws)
    text = pg.summary()
    assert "dscnn_kws" in text
    assert "arty" in text


def test_reset_kernels(mnv2):
    pg = Playground(ARTY_A7_35T, mnv2)
    base = pg.profile().total_cycles
    pg.swap_kernel(OverlapInput())
    assert pg.profile().total_cycles < base
    pg.reset_kernels()
    assert pg.profile().total_cycles == pytest.approx(base)


def test_profile_simulate_cross_validates_estimate(kws, monkeypatch):
    """Playground.profile(simulate=True): the analytic estimate is
    replayed as synthesized firmware on the ISA simulator and rescaled
    by the measured drift — which must stay inside the asserted band."""
    from repro.core import ProfileDriftError, SimulatedProfile, simprofile

    pg = Playground(ARTY_A7_35T, kws)
    estimate = pg.profile()
    sim = pg.profile(simulate=True, budget=5_000, checkpoint="simulated")
    assert isinstance(sim, SimulatedProfile)
    assert sim.classes, "dominant classes must have been simulated"
    for cls in sim.classes:
        lo, hi = simprofile.DEFAULT_DRIFT_BAND
        assert lo <= cls.drift <= hi
        assert cls.sim_cycles > 0
        assert cls.profile.total_cycles == cls.sim_cycles
    # The corrected total stays in the same ballpark as the estimate.
    assert sim.total_cycles == pytest.approx(estimate.total_cycles, rel=0.5)
    assert pg.history[-1][0] == "simulated"
    assert "simulated profile" in sim.summary()
    # Folded stacks are two-level: class;segment.
    assert all(";" in line.split(" ")[0] for line in sim.folded())
    # An impossible band trips the drift assertion.
    monkeypatch.setattr(simprofile, "DEFAULT_DRIFT_BAND", (0.999, 1.001))
    with pytest.raises(ProfileDriftError):
        pg.profile(simulate=True, budget=5_000)


def test_simulate_rejects_a_budget_below_one(kws):
    pg = Playground(ARTY_A7_35T, kws)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            pg.profile(simulate=True, budget=budget)


def test_simulate_skips_minor_classes_and_reports_them(kws, monkeypatch):
    from repro.core import simprofile

    monkeypatch.setattr(simprofile, "MIN_SHARE", 0.5)
    pg = Playground(ARTY_A7_35T, kws)
    sim = pg.profile(simulate=True, budget=5_000)
    assert len(sim.classes) <= 1
    assert sim.skipped
    assert sim.total_estimated == pytest.approx(
        pg.profile().total_cycles, rel=1e-6)
