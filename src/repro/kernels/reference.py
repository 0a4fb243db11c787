"""Cost models of the stock TFLite Micro *reference* kernels.

These mixes mirror the actual reference C++ loops, whose dominant
characteristic is that every element access goes through an ``Offset()``
index computation containing integer multiplies.  On a CPU with a
single-cycle multiplier this costs a handful of cycles per MAC; on the
Fomu's iterative (~32-cycle) multiplier it is catastrophic — which is
exactly why the paper's *Fast Mult* step buys 1.85x and why the KWS
baseline takes minutes.  Loop structure per kernel:

CONV_2D (reference ``ConvPerChannel``)::

    for batch, out_y, out_x, out_ch:            # output loop
        for filter_y, filter_x:                  # taps (1 for 1x1)
            if in bounds:                        # padding check
                for in_ch:                       # inner loop
                    acc += input[Offset(...)] * filter[Offset(...)]
        acc += bias[out_ch]; requantize; store   # post-processing

DEPTHWISE_CONV_2D iterates channels outside the tap loops, so its
per-MAC overhead (bounds checks + two Offsets per tap) is much higher.
"""

from __future__ import annotations

from ..perf.cost import CostContext
from .api import KernelVariant

# Requantization (MultiplyByQuantizedMultiplier + clamp) instruction mix.
_REQUANT_MULS = 2       # SaturatingRoundingDoublingHighMul is a widening mul pair
_REQUANT_ALUS = 12      # nudge add, rounding, zero point, min/max clamps
_REQUANT_SHIFTS = 2


def _postprocess(ctx, outputs, bias_section="model_weights"):
    """Per-output-element bias add + requantize + clamp + store."""
    ctx.load(outputs, size=4, section=bias_section, pattern="seq")
    ctx.mul(outputs * _REQUANT_MULS)
    ctx.shift(outputs * _REQUANT_SHIFTS, amount=8)
    ctx.alu(outputs * _REQUANT_ALUS)
    ctx.branch(outputs * 2, taken=0.1, predictable=True)  # clamp branches
    ctx.store(outputs, size=1, section="arena")


class RefConv2D(KernelVariant):
    """Generalized CONV_2D reference kernel (any filter/stride/padding)."""

    opcode = "CONV_2D"
    name = "reference"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, kh, kw = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        taps = outputs * kh * kw
        ctx = CostContext(system, code_section="kernel_text")
        # Inner loop: two Offset() computations (3 muls + adds each),
        # two byte loads, multiply-accumulate, loop bookkeeping.
        ctx.mul(macs * 6)
        ctx.alu(macs * 6)
        ctx.load(macs, size=1, section="arena", pattern="seq",
                 footprint=in_ch * kh * kw)
        ctx.load(macs, size=1, section="model_weights", pattern="seq",
                 footprint=out_ch * in_ch * kh * kw)
        ctx.branch(macs, taken=0.95)
        # Tap loop: padding bounds checks.
        ctx.alu(taps * 4)
        ctx.branch(taps, taken=0.9)
        _postprocess(ctx, outputs)
        ctx.alu(pixels * 10)          # spatial loop bookkeeping
        ctx.alu(300)                  # parameter unpacking / setup
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=700)


class RefDepthwiseConv2D(KernelVariant):
    """Reference DEPTHWISE_CONV_2D: channels outside the tap loops."""

    opcode = "DEPTHWISE_CONV_2D"
    name = "reference"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, kh, kw = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        in_shape = model.tensor(op.inputs[0]).shape
        row_bytes = in_shape[2] * in_shape[3]
        ctx = CostContext(system, code_section="kernel_text")
        # Per tap: bounds check, two Offset() computations, two loads, MAC.
        ctx.mul(macs * 7)
        ctx.alu(macs * 11)
        # Strided row accesses: the live window is kh input rows.
        ctx.load(macs, size=1, section="arena", pattern="rand",
                 footprint=kh * row_bytes)
        ctx.load(macs, size=1, section="model_weights", pattern="seq",
                 footprint=kh * kw * out_ch)
        ctx.branch(macs * 2, taken=0.9)
        _postprocess(ctx, outputs)
        ctx.alu(pixels * 12)
        ctx.alu(300)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=800)


class RefFullyConnected(KernelVariant):
    opcode = "FULLY_CONNECTED"
    name = "reference"

    def cycles(self, op, model, system):
        macs = op.macs
        out_features = model.tensor(op.outputs[0]).shape[-1]
        in_features = macs // max(1, out_features)
        ctx = CostContext(system, code_section="kernel_text")
        # FC reference walks flat arrays: cheap addressing, no Offset().
        ctx.mul(macs)
        ctx.alu(macs * 3)
        ctx.load(macs, size=1, section="arena", pattern="seq",
                 footprint=in_features)
        ctx.load(macs, size=1, section="model_weights", pattern="seq",
                 footprint=macs)
        ctx.branch(macs, taken=0.95)
        _postprocess(ctx, out_features)
        ctx.alu(120)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=400)


class RefPool(KernelVariant):
    opcode = "AVERAGE_POOL_2D"
    name = "reference"

    def cycles(self, op, model, system):
        out = model.tensor(op.outputs[0])
        pool = op.options["pool_size"]
        window = pool[0] * pool[1]
        elements = out.num_elements
        ctx = CostContext(system, code_section="text")
        ctx.load(elements * window, size=1, section="arena", pattern="seq")
        ctx.alu(elements * window * 4)
        ctx.div(elements)
        ctx.alu(elements * 6)
        ctx.store(elements, size=1, section="arena")
        ctx.branch(elements * window, taken=0.9)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=300)


class RefMaxPool(RefPool):
    opcode = "MAX_POOL_2D"


class RefAdd(KernelVariant):
    opcode = "ADD"
    name = "reference"

    def cycles(self, op, model, system):
        elements = model.tensor(op.outputs[0]).num_elements
        ctx = CostContext(system, code_section="text")
        ctx.load(2 * elements, size=1, section="arena", pattern="seq")
        ctx.mul(elements * 6)       # three MultiplyByQuantizedMultiplier
        ctx.shift(elements * 3, amount=8)
        ctx.alu(elements * 14)
        ctx.store(elements, size=1, section="arena")
        ctx.branch(elements, taken=0.95)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=300)


class RefSoftmax(KernelVariant):
    opcode = "SOFTMAX"
    name = "reference"

    def cycles(self, op, model, system):
        elements = model.tensor(op.outputs[0]).num_elements
        ctx = CostContext(system, code_section="text")
        # Fixed-point exp via gemmlowp: ~25 ops per element, two passes.
        ctx.load(2 * elements, size=1, section="arena", pattern="hit")
        ctx.mul(elements * 6)
        ctx.alu(elements * 40)
        ctx.shift(elements * 6, amount=8)
        ctx.store(elements, size=1, section="arena")
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=500)


class RefReshape(KernelVariant):
    opcode = "RESHAPE"
    name = "reference"

    def cycles(self, op, model, system):
        ctx = CostContext(system, code_section="text")
        ctx.alu(60)  # shape bookkeeping only; buffers are shared
        ctx.call(1)
        return ctx.finish(loop_footprint_bytes=100)


class RefMean(KernelVariant):
    opcode = "MEAN"
    name = "reference"

    def cycles(self, op, model, system):
        elements = model.tensor(op.inputs[0]).num_elements
        outputs = model.tensor(op.outputs[0]).num_elements
        ctx = CostContext(system, code_section="text")
        ctx.load(elements, size=1, section="arena", pattern="seq")
        ctx.alu(elements * 4)
        ctx.div(outputs)
        ctx.store(outputs, size=1, section="arena")
        ctx.branch(elements, taken=0.95)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=250)


class RefPad(KernelVariant):
    opcode = "PAD"
    name = "reference"

    def cycles(self, op, model, system):
        elements = model.tensor(op.outputs[0]).num_elements
        ctx = CostContext(system, code_section="text")
        ctx.load(elements, size=1, section="arena", pattern="seq")
        ctx.store(elements, size=1, section="arena")
        ctx.alu(elements * 4)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=250)


def reference_variants():
    """The complete stock variant set (what a fresh deployment runs)."""
    from .api import VariantSet

    return VariantSet([
        RefConv2D(), RefDepthwiseConv2D(), RefFullyConnected(),
        RefPool(), RefMaxPool(), RefAdd(), RefSoftmax(), RefReshape(),
        RefMean(), RefPad(),
    ])
