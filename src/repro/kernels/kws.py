"""Section III-B kernel variants: keyword spotting on Fomu.

Most Fig. 6 ladder steps are *not* kernels: QuadSPI, moving sections to
SRAM, the larger icache and the single-cycle multiplier are SoC/CPU/
memory-map changes applied to the same reference kernels (their gains
emerge from the cost model).  The kernel variants here cover the last
three rungs:

- :class:`KwsSimdConv2D` / :class:`KwsSimdDepthwise` — *MAC Conv*: the
  4-way SIMD MAC CFU carries the convolution inner loop; depthwise
  reuses a single lane ("there were no remaining resources to extend
  the CFU", so depthwise gets lane 0 only).
- ``postproc=True`` — *Post Proc*: accumulator post-processing moves
  into the CFU (saturating multiply, rounding divide, clamping), 14x
  faster than the software path on this mul-starved CPU.
- ``specialized=True`` — *SW*: the compiler is told the constants
  ("our filter_width is always 3, our depth_multiplier is always 1"),
  removing bounds checks and branches from the loops.
"""

from __future__ import annotations

from ..accel.kws.model import KwsCfu
from ..perf.cost import CostContext
from .api import KernelVariant
from .reference import _REQUANT_ALUS, _REQUANT_MULS, _REQUANT_SHIFTS


class _KwsVariant(KernelVariant):
    """Shared options for the Fomu CFU2 variants."""

    cfu_model = KwsCfu

    def __init__(self, postproc=False, specialized=False):
        self.postproc = postproc
        self.specialized = specialized
        suffix = "+pp" if postproc else ""
        suffix += "+sw" if specialized else ""
        self.name = f"{self.base_name}{suffix}"

    def _postprocess(self, ctx, outputs, out_ch):
        """Per-output postproc: software SRDHM path or the CFU unit."""
        ctx.load(outputs, size=4, section="model_weights", pattern="seq")
        if self.postproc:
            ctx.cfu(outputs, latency=6)         # fabric multiplier, 14x faster
            ctx.cfu(3 * out_ch, latency=1)      # per-channel param loads
            ctx.alu(outputs)
        else:
            ctx.mul(outputs * _REQUANT_MULS)    # brutal on an iterative mul
            ctx.shift(outputs * _REQUANT_SHIFTS, amount=8)
            ctx.alu(outputs * _REQUANT_ALUS)
            ctx.branch(outputs * 2, taken=0.1)
        ctx.store(outputs, size=1, section="arena")


class KwsSimdConv2D(_KwsVariant):
    """CONV_2D via the 4-way MAC: packed word loads + one CFU op per
    four MACs.  Addressing stays generic until the SW step."""

    opcode = "CONV_2D"
    base_name = "kws-simd-conv"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, kh, kw = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        taps = outputs * kh * kw
        quads = macs / 4
        ctx = CostContext(system, code_section="kernel_text")
        ctx.load(quads, size=4, section="arena", pattern="seq",
                 footprint=in_ch * kh * kw)
        ctx.load(quads, size=4, section="model_weights", pattern="seq",
                 footprint=out_ch * in_ch * kh * kw)
        ctx.cfu(quads, latency=1)
        # Packed words straddle the stride: assemble with a shift + or.
        ctx.shift(quads, amount=8)
        ctx.alu(quads)
        if self.specialized:
            ctx.alu(quads * 4)
            ctx.branch(quads / 2, taken=0.95)
        else:
            ctx.mul(quads * 4)                  # Offset() index computation
            ctx.alu(quads * 6)                  # generic offset arithmetic
            ctx.branch(quads, taken=0.95)
            ctx.alu(taps * 4)                   # padding bounds checks
            ctx.branch(taps, taken=0.9)
        self._postprocess(ctx, outputs, out_ch)
        ctx.alu(pixels * 8 + 250)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=420)


class KwsSimdDepthwise(_KwsVariant):
    """DEPTHWISE_CONV_2D on a single SIMD lane (byte loads, MAC1)."""

    opcode = "DEPTHWISE_CONV_2D"
    base_name = "kws-simd-dw"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, kh, kw = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        ctx = CostContext(system, code_section="kernel_text")
        ctx.load(macs, size=1, section="arena", pattern="seq",
                 footprint=kh * in_ch * 16)
        ctx.load(macs, size=1, section="model_weights", pattern="seq",
                 footprint=kh * kw * out_ch)
        ctx.cfu(macs, latency=1)                # MAC1: lane 0 only
        if self.specialized:
            ctx.alu(macs * 4)                   # filter_width==3 known
            ctx.branch(macs / 3, taken=0.95)
        else:
            ctx.mul(macs * 4)                   # Offset() index computation
            ctx.alu(macs * 7)
            ctx.branch(macs * 2, taken=0.9)     # bounds checks per tap
        self._postprocess(ctx, outputs, out_ch)
        ctx.alu(pixels * 10 + 250)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=460)


def kws_variants(postproc=False, specialized=False):
    """The CFU2 kernel pair at a given ladder level."""
    return [
        KwsSimdConv2D(postproc=postproc, specialized=specialized),
        KwsSimdDepthwise(postproc=postproc, specialized=specialized),
    ]


def depthwise_via_cfu(op, inputs, model, cfu=None):
    """Compute a depthwise conv by driving a :class:`KwsCfu` MAC1 lane.

    The Section III-B dataflow for depthwise convolution: one multiply
    lane, per-channel post-processing parameters configured through the
    CFU, bias folded with the input zero point.  Pure-Python per custom
    instruction; used by golden tests on small layers.
    """
    import numpy as np

    from ..accel.kws import model as km
    from ..tflm.ops.conv import pad_input

    data, filters, bias = inputs
    in_tensor = model.tensor(op.inputs[0])
    out_tensor = model.tensor(op.outputs[0])
    params = op.params
    if params.get("depth_multiplier", 1) != 1:
        raise ValueError("CFU dataflow assumes depth_multiplier == 1 "
                         "(the paper's specialization)")
    cfu = cfu or KwsCfu()

    def op32(funct3, funct7, a=0, b=0):
        return cfu.op(funct3, funct7, int(a) & 0xFFFFFFFF, int(b) & 0xFFFFFFFF)

    _, kh, kw, out_ch = filters.shape
    stride = params["stride"]
    zp = int(in_tensor.quant.zero_point)
    padded, (oh, ow) = pad_input(data, (kh, kw), stride, params["padding"],
                                 pad_value=zp)
    weights = filters[0].astype(np.int64)  # (KH, KW, C)
    folded_bias = (np.asarray(bias, dtype=np.int64)
                   - zp * weights.sum(axis=(0, 1)))
    clamps = ((params["activation_min"] & 0xFF)
              | ((params["activation_max"] & 0xFF) << 8))

    output = np.empty((data.shape[0], oh, ow, out_ch), dtype=np.int8)
    for channel in range(out_ch):
        op32(km.F3_CONFIG, km.CFG_MULT, params["out_multipliers"][channel])
        op32(km.F3_CONFIG, km.CFG_SHIFT, params["out_shifts"][channel])
        op32(km.F3_CONFIG, km.CFG_OUTPUT, out_tensor.quant.zero_point, clamps)
        # Hoist the operands into plain Python lists so the tap loop
        # issues custom instructions without per-element numpy indexing.
        channel_weights = weights[:, :, channel].tolist()  # (KH, KW) ints
        channel_bias = int(folded_bias[channel])
        for b_i in range(data.shape[0]):
            plane = padded[b_i, :, :, channel].tolist()    # rows of ints
            for y in range(oh):
                base_y = y * stride[0]
                for x in range(ow):
                    base_x = x * stride[1]
                    first = True
                    for ky in range(kh):
                        row = plane[base_y + ky]
                        wrow = channel_weights[ky]
                        for kx in range(kw):
                            op32(km.F3_MAC1, 1 if first else 0,
                                 row[base_x + kx], wrow[kx])
                            first = False
                    byte = op32(km.F3_POSTPROC, 0, 0, channel_bias)
                    output[b_i, y, x, channel] = (
                        byte - 256 if byte & 0x80 else byte
                    )
    return output
