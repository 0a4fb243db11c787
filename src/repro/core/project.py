"""Projects: CFU Playground's ``proj/`` directory structure, as objects.

In the real framework each accelerator effort lives in a project
directory bundling the CFU gateware, the optimized kernels, the model,
and the board configuration, driven by ``make`` targets.  Here a
:class:`Project` bundles the same pieces and :meth:`Project.build`
produces the same artifacts — CFU Verilog, resource/fit report, image
layout, serialized model, cycle estimate — into an output directory.

The two case-study projects from Section III ship in the registry:

- ``mnv2_first``      — MobileNetV2 on Arty with CFU1 (Section III-A);
- ``kws_micro_accel`` — DS-CNN KWS on Fomu with CFU2 (Section III-B);
- ``proj_template``   — the starting point users copy, no CFU.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..accel.kws.model import KwsCfu
from ..accel.mnv2.model import Mnv2Cfu
from ..boards import ARTY_A7_35T, FOMU
from ..cpu.vexriscv import ARTY_DEFAULT, VexRiscvConfig
from ..kernels.conv1x1 import OverlapInput
from ..kernels.kws import kws_variants
from ..models import load
from ..tflm.serialize import save_model
from .playground import Playground


@dataclass
class ProjectSpec:
    """Declarative description of one project."""

    name: str
    description: str
    board: object
    model_factory: object                 # () -> Model
    cpu_config: VexRiscvConfig = None
    kernel_factory: object = None         # () -> [KernelVariant]
    cfu_factory: object = None            # () -> CfuModel
    rtl_factory: object = None            # () -> RtlCfu (for Verilog emit)
    removed_features: tuple = ()
    quad_spi: bool = False
    placement: dict = field(default_factory=dict)


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
        self.model = spec.model_factory()
        self.playground = Playground(spec.board, self.model,
                                     cpu_config=spec.cpu_config)
        for feature in spec.removed_features:
            self.playground.remove_soc_feature(feature)
        if spec.quad_spi:
            self.playground.upgrade_to_quad_spi()
        for section, region in spec.placement.items():
            self.playground.place_section(section, region)
        if spec.kernel_factory is not None:
            self.playground.swap_kernel(*spec.kernel_factory())
        if spec.cfu_factory is not None:
            self.playground.attach_cfu(spec.cfu_factory())

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
            artifacts.model_path = os.path.join(
                output_dir, f"{self.model.name}.rtflm")
            save_model(self.model, artifacts.model_path)
            artifacts.report_path = os.path.join(output_dir, "build_report.txt")
            with open(artifacts.report_path, "w") as handle:
                handle.write(report.summary() + "\n")
        return artifacts

    def golden_test(self):
        return self.playground.golden_test()

    def profile(self, **kwargs):
        return self.playground.profile(**kwargs)


def _kws_cpu():
    return VexRiscvConfig(
        bypassing=False, branch_prediction="none", multiplier="single_cycle",
        divider="none", shifter="iterative", icache_bytes=4096,
        dcache_bytes=0, hw_error_checking=False,
    )


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
            board=ARTY_A7_35T,
            model_factory=lambda: load("dscnn_kws"),
            cpu_config=ARTY_DEFAULT,
        ),
        "mnv2_first": ProjectSpec(
            name="mnv2_first",
            description="Section III-A: MobileNetV2 1x1-conv acceleration "
                        "on Arty A7-35T with CFU1",
            board=ARTY_A7_35T,
            model_factory=lambda: load("mobilenet_v2", width_multiplier=0.75,
                                       num_classes=100),
            cpu_config=ARTY_DEFAULT,
            kernel_factory=lambda: [OverlapInput()],
            cfu_factory=lambda: Mnv2Cfu(pipelined_input=True),
            rtl_factory=_cfu1_rtl,
        ),
        "kws_micro_accel": ProjectSpec(
            name="kws_micro_accel",
            description="Section III-B: DS-CNN keyword spotting on Fomu "
                        "with CFU2 (SoC diet + QSPI + SRAM sections)",
            board=FOMU,
            model_factory=lambda: load("dscnn_kws"),
            cpu_config=_kws_cpu(),
            kernel_factory=lambda: list(
                kws_variants(postproc=True, specialized=True)),
            cfu_factory=KwsCfu,
            rtl_factory=_cfu2_rtl,
            removed_features=("timer", "ctrl", "rgb", "touch"),
            quad_spi=True,
            placement={"kernel_text": "sram", "model_weights": "sram"},
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
