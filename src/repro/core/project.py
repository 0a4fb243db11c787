"""Projects: CFU Playground's ``proj/`` directory structure, as objects.

In the real framework each accelerator effort lives in a project
directory bundling the CFU gateware, the optimized kernels, the model,
and the board configuration, driven by ``make`` targets.  Here a
:class:`Project` bundles the same pieces and :meth:`Project.build`
produces the same artifacts — CFU Verilog, resource/fit report, image
layout, serialized model, cycle estimate — into an output directory.

A project is a :class:`~repro.core.playground.Playground` plus the
ladder steps (:mod:`repro.core.ladders`) that bring it to its
deployment, CFU included, so each Section III case study is its
ladder's end state:

- ``mnv2_first``      — MobileNetV2 on Arty with CFU1 (Section III-A):
  the Fig. 4 start plus its last rung;
- ``kws_micro_accel`` — DS-CNN KWS on Fomu with CFU2 (Section III-B):
  the Fig. 6 start plus every rung;
- ``proj_template``   — the starting point users copy: a bare
  Playground, no CFU.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..boards import ARTY_A7_35T
from ..cpu.vexriscv import ARTY_DEFAULT
from ..models import load
from ..tflm.serialize import save_model
from .ladders import (kws_initial_state, kws_ladder, mnv2_initial_state,
                      mnv2_ladder)
from .playground import Playground


@dataclass
class ProjectSpec:
    """Declarative description of one project."""

    name: str
    description: str
    playground_factory: object            # () -> Playground
    steps: tuple = ()                     # LadderSteps applied in order
    rtl_factory: object = None            # () -> RtlCfu (for Verilog emit)


@dataclass
class BuildArtifacts:
    """What `make` leaves behind."""

    fit: object
    layout: object
    estimate: object
    verilog_path: str = None
    model_path: str = None
    report_path: str = None

    @property
    def ok(self):
        return self.fit.ok


class Project:
    """An instantiated project: a configured Playground plus build flow."""

    def __init__(self, spec):
        self.spec = spec
        self.playground = spec.playground_factory()
        for step in spec.steps:
            step.apply(self.playground)

    @property
    def name(self):
        return self.spec.name

    def build(self, output_dir=None):
        """The `make bitstream && make prog` equivalent."""
        report = self.playground.deploy(require_fit=False)
        artifacts = BuildArtifacts(fit=report.fit, layout=report.layout,
                                   estimate=report.estimate)
        if output_dir is not None:
            os.makedirs(output_dir, exist_ok=True)
            if self.spec.rtl_factory is not None:
                verilog = self.spec.rtl_factory().verilog()
                artifacts.verilog_path = os.path.join(output_dir, "cfu.v")
                with open(artifacts.verilog_path, "w") as handle:
                    handle.write(verilog)
            model = self.playground.model
            artifacts.model_path = os.path.join(output_dir,
                                                f"{model.name}.rtflm")
            save_model(model, artifacts.model_path)
            artifacts.report_path = os.path.join(output_dir, "build_report.txt")
            with open(artifacts.report_path, "w") as handle:
                handle.write(report.summary() + "\n")
        return artifacts

    def golden_test(self):
        return self.playground.golden_test()

    def profile(self, **kwargs):
        return self.playground.profile(**kwargs)


def _cfu1_rtl():
    from ..accel.mnv2.rtl import Cfu1Rtl

    return Cfu1Rtl(channels=64, filter_words=512, input_words=64)


def _cfu2_rtl():
    from ..accel.kws.rtl import KwsCfu2Rtl

    return KwsCfu2Rtl()


def _registry():
    return {
        "proj_template": ProjectSpec(
            name="proj_template",
            description="Starting point: reference kernels, no CFU "
                        "(copy me to begin a new accelerator)",
            playground_factory=lambda: Playground(
                ARTY_A7_35T, load("dscnn_kws"), cpu_config=ARTY_DEFAULT),
        ),
        "mnv2_first": ProjectSpec(
            name="mnv2_first",
            description="Section III-A: MobileNetV2 1x1-conv acceleration "
                        "on Arty A7-35T with CFU1",
            playground_factory=mnv2_initial_state,
            steps=tuple(mnv2_ladder()[-1:]),
            rtl_factory=_cfu1_rtl,
        ),
        "kws_micro_accel": ProjectSpec(
            name="kws_micro_accel",
            description="Section III-B: DS-CNN keyword spotting on Fomu "
                        "with CFU2 (SoC diet + QSPI + SRAM sections)",
            playground_factory=kws_initial_state,
            steps=tuple(kws_ladder()),
            rtl_factory=_cfu2_rtl,
        ),
    }


PROJECTS = _registry()


def load_project(name):
    """Instantiate a registered project by name."""
    try:
        spec = PROJECTS[name]
    except KeyError:
        raise KeyError(
            f"unknown project {name!r}; available: {sorted(PROJECTS)}"
        ) from None
    return Project(spec)


def list_projects():
    return {name: spec.description for name, spec in sorted(PROJECTS.items())}
