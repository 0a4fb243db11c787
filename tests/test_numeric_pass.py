"""Which flows run a built model's numeric pass.

A built model holds its graph; its numbers come from one numeric pass
on their first read (``repro.tflm.builder``).  The profile, the Fig-7
cost paths and both ladders price a model by its graph alone, so they
run no pass.  The Winograd variants test calibrated output shifts, so
an estimate with them runs exactly one.  Each case clears the ``load()``
memo first and counts accumulates on the models its flow builds afresh:
an earlier test's inference cannot hide a pass, and running this file
alone gives the same counts.
"""

import pytest

from repro.boards import ARTY_A7_35T
from repro.core.ladders import (
    kws_initial_state,
    kws_ladder,
    mnv2_1x1_filter,
    mnv2_initial_state,
    mnv2_ladder,
    run_ladder,
)
from repro.core.project import load_project
from repro.cpu.vexriscv import VexRiscvConfig
from repro.dse.exhaustive import ExhaustiveSweeper
from repro.dse.runner import CFU_FAMILIES, evaluate_design
from repro.kernels import reference_variants
from repro.kernels.winograd import winograd_variants
from repro.models import load
from repro.perf.estimator import estimate_inference
from repro.soc import Soc
from tests.test_models import count_accumulates, one_pass


@pytest.fixture
def calls(monkeypatch):
    load.cache_clear()
    return count_accumulates(monkeypatch)


def mnv2():
    return load("mobilenet_v2", width_multiplier=0.75, num_classes=100)


def arty_system():
    return Soc(ARTY_A7_35T, VexRiscvConfig()).system_config()


def estimate():
    return [estimate_inference(mnv2(), arty_system()).total_cycles]


def simulated_profile(project_name):
    project = load_project(project_name)
    return [project.profile(simulate=True).total_cycles]


def evaluate_every_family():
    sweeper = ExhaustiveSweeper()
    point = sweeper.grid.point(0)
    return [evaluate_design(sweeper.model, sweeper.board, point, family)
            for family in CFU_FAMILIES]


def evaluate_points():
    sweeper = ExhaustiveSweeper()
    cycles, _, _ = sweeper.evaluate_points(
        [sweeper.grid.point(index) for index in (0, 1, 2)], "none")
    return list(cycles)


def ladders():
    state = mnv2_initial_state()
    fig4 = run_ladder(mnv2_ladder(), state,
                      op_filter=mnv2_1x1_filter(state.model))
    fig6 = run_ladder(kws_ladder(), kws_initial_state())
    return fig4 + fig6


@pytest.mark.parametrize("flow", [
    estimate,
    lambda: simulated_profile("mnv2_first"),
    lambda: simulated_profile("kws_micro_accel"),
    evaluate_every_family,
    evaluate_points,
    ladders,
], ids=["estimate", "profile-mnv2_first", "profile-kws_micro_accel",
        "evaluate_design", "evaluate_points", "ladders"])
def test_flow_runs_no_numeric_pass(calls, flow):
    results = flow()
    assert results and all(result is not None for result in results)
    assert not calls


def test_winograd_estimate_runs_one_numeric_pass(calls):
    """The Winograd variants run only where the requantization shifts
    right (``kernels/winograd.py``), so their ``applies_to`` reads
    calibrated ``out_shifts``."""
    model = mnv2()
    variants = reference_variants().extended(*winograd_variants())
    estimate_inference(model, arty_system(), variants)
    assert calls == one_pass(model) and model.prepared
