"""The paper's two optimization ladders as step sequences over a Playground.

Each :class:`LadderStep` applies one incremental move of Sections III-A
(Fig. 4) and III-B (Fig. 6) to a :class:`~repro.core.playground.Playground`
in place — a kernel swap, a CFU attachment, a CPU reconfiguration, a
memory-map or linker change — through the Playground method for that
move.  A rung that changes the CFU attaches the CFU model its kernels
issue instructions to, charged with that rung's gateware report, which
is computed when the rung's fit first reads it.
:func:`run_ladder` replays the steps, re-profiling the model and
re-fitting the FPGA after each.  The Section III projects
(:mod:`repro.core.project`) are these ladders' end states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..accel.kws.model import KwsCfu
from ..accel.kws.resources import cfu2_resources
from ..accel.mnv2.resources import stage_resources
from ..boards import ARTY_A7_35T, FOMU
from ..cpu.vexriscv import ARTY_DEFAULT, VexRiscvConfig
from ..kernels.conv1x1 import LADDER_VARIANTS
from ..kernels.kws import kws_variants
from ..models import load
from ..soc import link
from .playground import Playground


@dataclass
class LadderStep:
    name: str
    description: str
    apply: object  # callable(Playground): changes the playground in place


@dataclass
class LadderResult:
    step: LadderStep
    cycles: float
    speedup: float
    op_speedup: float
    fit: object
    estimate: object

    def row(self):
        usage = self.fit.usage
        return (f"{self.step.name:16s} {self.cycles:>14,.0f} cyc  "
                f"x{self.speedup:6.2f} overall  x{self.op_speedup:6.2f} op  "
                f"{usage.logic_cells:>6} cells {usage.dsps:>2} DSP "
                f"{'OK' if self.fit.ok else 'NO-FIT'}")


def run_ladder(steps, playground, op_filter=None):
    """Replay a ladder on ``playground``; returns the list of
    :class:`LadderResult`.

    ``op_filter(op_cost) -> bool`` selects the operator subset whose
    speedup Fig. 4 tracks (e.g. only 1x1 convs); overall speedup uses
    total cycles.
    """
    results = []
    base_total = base_op = None
    for step in steps:
        step.apply(playground)
        estimate = playground.profile()
        total = estimate.total_cycles
        op_cycles = (estimate.cycles_for(op_filter)
                     if op_filter else total)
        if base_total is None:
            base_total, base_op = total, op_cycles
        results.append(LadderResult(
            step=step,
            cycles=total,
            speedup=base_total / total,
            op_speedup=base_op / op_cycles if op_cycles else float("inf"),
            fit=playground.fit(),
            estimate=estimate,
        ))
    return results


def _baseline(playground):
    """The rung every speedup is measured against: no change."""


# --------------------------------------------------------------------------------
# Section III-A: MobileNetV2 1x1 CONV_2D on Arty (Fig. 4)
# --------------------------------------------------------------------------------

def mnv2_initial_state(model=None):
    """The Fig. 4 start: a Playground of MobileNetV2 on the stock Arty
    SoC with the reference kernels."""
    model = model or load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    return Playground(ARTY_A7_35T, model, cpu_config=ARTY_DEFAULT)


def mnv2_ladder():
    """Fig. 4's bars: baseline + the nine variant swaps."""
    steps = [LadderStep("base", "TFLM reference kernels, stock SoC",
                        _baseline)]
    for variant_cls in LADDER_VARIANTS:
        def swap(playground, cls=variant_cls):
            variant = cls()
            cfu = variant.cfu_factory() if variant.cfu_model else None
            playground.reset_kernels().swap_kernel(variant).attach_cfu(
                cfu, resources=partial(stage_resources, cls.stage))
        steps.append(LadderStep(variant_cls.name, variant_cls.__doc__ or "",
                                swap))
    return steps


def mnv2_1x1_filter(model):
    """Predicate selecting the 1x1 CONV_2D operators of a built model."""
    names = {
        op.name for op in model.operators
        if op.opcode == "CONV_2D" and op.params.get("kernel") == (1, 1)
    }
    return lambda op_cost: op_cost.op_name in names


# --------------------------------------------------------------------------------
# Section III-B: DS-CNN keyword spotting on Fomu (Fig. 6)
# --------------------------------------------------------------------------------

#: The CPU that squeezes onto Fomu after the SoC diet (Section III-B
#: "Profile"): no caches beyond a small icache, iterative multiply,
#: software division, no bypassing, no branch prediction, no hardware
#: error checking.
FOMU_BASELINE_CPU = VexRiscvConfig(
    bypassing=False,
    branch_prediction="none",
    multiplier="iterative",
    divider="none",
    shifter="iterative",
    icache_bytes=0,
    dcache_bytes=0,
    hw_error_checking=False,
)


def kws_initial_state(model=None):
    """The Fig. 6 start: a Playground of DS-CNN KWS on the dieted Fomu
    SoC, code and weights executing from flash."""
    model = model or load("dscnn_kws")
    playground = Playground(FOMU, model, cpu_config=FOMU_BASELINE_CPU)
    # The SoC diet that makes VexRiscv fit at all (Section III-B).
    for feature in ("timer", "ctrl", "rgb", "touch"):
        playground.remove_soc_feature(feature)
    link(playground.soc, model, playground.placement)  # the image must fit
    return playground


def kws_ladder():
    """Fig. 6's bars, from the flash-XIP baseline to the SW-specialized
    CFU2 deployment."""

    def sram_ops_model(playground):
        playground.place_section("kernel_text", "sram")
        playground.place_section("model_weights", "sram")
        link(playground.soc, playground.model, playground.placement)

    def cfu2(postproc):
        def attach(playground):
            playground.reset_kernels().swap_kernel(
                *kws_variants(postproc=postproc)).attach_cfu(
                KwsCfu(), resources=partial(cfu2_resources,
                                            postproc=postproc))
        return attach

    def sw_spec(playground):
        playground.reset_kernels().swap_kernel(
            *kws_variants(postproc=True, specialized=True))

    return [
        LadderStep("base", "flash-XIP baseline on the dieted SoC", _baseline),
        LadderStep("quadspi", "SPI -> Quad SPI flash interface",
                   Playground.upgrade_to_quad_spi),
        LadderStep("sram-ops-model", "conv/dw code + weights into SRAM",
                   sram_ops_model),
        LadderStep("larger-icache", "freed CSR/logic space -> 4 kB icache",
                   lambda playground: playground.reconfigure_cpu(
                       icache_bytes=4096)),
        LadderStep("fast-mult", "iterative -> single-cycle multiply (4 DSP)",
                   lambda playground: playground.reconfigure_cpu(
                       multiplier="single_cycle")),
        LadderStep("mac-conv", "4-way SIMD MAC CFU (remaining 4 DSP)",
                   cfu2(postproc=False)),
        LadderStep("post-proc", "accumulator post-processing in the CFU",
                   cfu2(postproc=True)),
        LadderStep("sw-spec", "operator specialization (constants known)",
                   sw_spec),
    ]
