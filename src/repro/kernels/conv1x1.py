"""The Section III-A optimization ladder: 1x1 CONV_2D kernel variants.

Each class is one bar of Fig. 4.  All variants are bit-exact with the
reference kernel (``compute`` is inherited); what changes is the loop
structure — and therefore the instruction mix — plus which CFU
operations they lean on.  The narrative of each step is quoted from the
paper in the class docstrings.

All variants apply only when ``filter_width == filter_height == 1``
(the specialized-kernel dispatch check the paper adds to the general
kernel).
"""

from __future__ import annotations

from ..accel.mnv2.model import Mnv2Cfu
from ..perf.cost import CostContext
from .api import KernelVariant
from .reference import _postprocess


class _Conv1x1Variant(KernelVariant):
    opcode = "CONV_2D"
    stage = None

    def applies_to(self, op, model):
        return (op.opcode == "CONV_2D"
                and tuple(op.params.get("kernel", ())) == (1, 1))

    @staticmethod
    def _upload_postproc_params(ctx, out_ch):
        """Write per-channel bias/multiplier/shift into the CFU tables."""
        ctx.load(3 * out_ch, size=4, section="model_weights", pattern="seq")
        ctx.cfu(3 * out_ch, latency=1)
        ctx.alu(3 * out_ch)

    @staticmethod
    def _upload_filters(ctx, in_ch, out_ch):
        """Stream packed filter words into the CFU scratchpad."""
        words = out_ch * in_ch // 4
        ctx.load(words, size=4, section="model_weights", pattern="seq")
        ctx.cfu(words, latency=1)
        ctx.alu(words)


class SwSpecialized1x1(_Conv1x1Variant):
    """*SW*: a CONV_2D kernel specialized for the 1x1 case.

    "filter_width and filter_height can be assumed to be 1, and we can
    remove two levels of looping ... a padding out-of-bounds check can
    also be removed" plus loop unrolling: the Offset() multiplies of the
    general kernel become pointer increments and the tap loop vanishes.
    """

    name = "sw-1x1"
    stage = "sw"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, _, _ = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        ctx = CostContext(system, code_section="kernel_text")
        ctx.mul(macs)                       # the MAC multiply only
        ctx.alu(macs * 3)                   # acc add + two pointer bumps
        ctx.load(macs, size=1, section="arena", pattern="seq", footprint=in_ch)
        ctx.load(macs, size=1, section="model_weights", pattern="seq",
                 footprint=out_ch * in_ch)
        ctx.branch(macs / 4, taken=0.95)    # 4x unrolled inner loop
        _postprocess(ctx, outputs)
        ctx.alu(outputs * 3 + pixels * 6 + 200)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=300)


class CfuPostproc1x1(_Conv1x1Variant):
    """*CFU postproc*: per-channel bias/multiplier/shift live in the CFU;
    one custom instruction requantizes an accumulator."""

    name = "cfu-postproc"
    stage = "cfu_postproc"

    def cfu_factory(self):
        return Mnv2Cfu()

    @property
    def cfu_model(self):
        return Mnv2Cfu

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, _, _ = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        ctx = CostContext(system, code_section="kernel_text")
        ctx.mul(macs)
        ctx.alu(macs * 3)
        ctx.load(macs, size=1, section="arena", pattern="seq", footprint=in_ch)
        ctx.load(macs, size=1, section="model_weights", pattern="seq",
                 footprint=out_ch * in_ch)
        ctx.branch(macs / 4, taken=0.95)
        # Post-processing collapses to one pipelined CFU op per output.
        ctx.cfu(outputs, latency=3, ii=1)
        ctx.store(outputs, size=1, section="arena")
        ctx.alu(outputs * 2 + pixels * 6 + 200)
        self._upload_postproc_params(ctx, out_ch)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=280)


class CfuHoldFilt1x1(CfuPostproc1x1):
    """*CFU hold filt*: the filter tensor lives in CFU scratchpad memory;
    reading it back is a 1-cycle custom instruction instead of a cached
    memory load — "approximately 2 cycles per MAC"."""

    name = "cfu-hold-filt"
    stage = "cfu_hold_filt"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, _, _ = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        ctx = CostContext(system, code_section="kernel_text")
        ctx.mul(macs)
        ctx.alu(macs * 3)
        ctx.load(macs, size=1, section="arena", pattern="seq", footprint=in_ch)
        ctx.cfu(macs, latency=1)            # filter byte from CFU store
        ctx.alu(macs * 0.5)                 # dependent-use bubble on rsp
        ctx.branch(macs / 4, taken=0.95)
        ctx.cfu(outputs, latency=3, ii=1)
        ctx.store(outputs, size=1, section="arena")
        ctx.alu(outputs * 2 + pixels * 6 + 200)
        self._upload_postproc_params(ctx, out_ch)
        self._upload_filters(ctx, in_ch, out_ch)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=280)


class CfuHoldInp1x1(CfuPostproc1x1):
    """*CFU hold inp*: inputs also live in the CFU — but "the CPU must
    perform bit shifts and sign extensions to use values retrieved from
    the CFU", cancelling the benefit."""

    name = "cfu-hold-inp"
    stage = "cfu_hold_inp"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, _, _ = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        ctx = CostContext(system, code_section="kernel_text")
        ctx.mul(macs)
        ctx.alu(macs * 3)
        ctx.cfu(macs, latency=1)            # input word from CFU...
        ctx.shift(macs, amount=8)           # ...unpacked by the CPU
        ctx.alu(macs)                       # sign extension
        ctx.cfu(macs, latency=1)            # filter from CFU store
        ctx.branch(macs / 4, taken=0.95)
        ctx.cfu(outputs, latency=3, ii=1)
        ctx.store(outputs, size=1, section="arena")
        ctx.alu(outputs * 2 + pixels * 6 + 200)
        # Per pixel: stream the input column into the CFU, packed.
        ctx.load(pixels * in_ch / 4, size=4, section="arena", pattern="seq",
                 footprint=in_ch)
        ctx.cfu(pixels * in_ch / 4, latency=1)
        self._upload_postproc_params(ctx, out_ch)
        self._upload_filters(ctx, in_ch, out_ch)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=300)


class CfuMac4(CfuPostproc1x1):
    """*CFU MAC4*: a packed 4x4 multiply-accumulate instruction over the
    CFU buffers.  The CPU still orchestrates: it fetches the packed
    words from the CFU and issues the MAC4 — three custom instructions
    per four MACs."""

    name = "cfu-mac4"
    stage = "cfu_mac4"

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, _, _ = self.conv_geometry(op, model)
        macs = op.macs
        outputs = pixels * out_ch
        quads = macs / 4
        ctx = CostContext(system, code_section="kernel_text")
        ctx.cfu(quads * 2, latency=1)       # fetch input + filter words
        ctx.cfu(quads, latency=1)           # MAC4
        ctx.alu(quads * 3)                  # two stream pointers + loop count
        ctx.branch(quads / 4, taken=0.95)
        ctx.cfu(outputs, latency=1)         # retrieve accumulator
        ctx.cfu(outputs, latency=3, ii=1)   # post-process
        ctx.store(outputs, size=1, section="arena")
        ctx.alu(outputs * 2 + pixels * 6 + 200)
        ctx.load(pixels * in_ch / 4, size=4, section="arena", pattern="seq",
                 footprint=in_ch)
        ctx.cfu(pixels * in_ch / 4, latency=1)
        self._upload_postproc_params(ctx, out_ch)
        self._upload_filters(ctx, in_ch, out_ch)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=260)


class _RunVariant(CfuPostproc1x1):
    """Common shape for the autonomous-run stages."""

    run_cycles_per_word = 2.0
    pipelined_input = False
    per_output_cpu = 14.0   # CPU-side cycles around each output

    def cfu_factory(self):
        return Mnv2Cfu(pipelined_input=self.pipelined_input,
                       run_cycles_per_word=self.run_cycles_per_word)

    def _outputs_per_run(self):
        return 1

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, _, _ = self.conv_geometry(op, model)
        outputs = pixels * out_ch
        depth_words = max(1, in_ch // 4)
        runs = outputs / self._outputs_per_run()
        run_busy = depth_words * self.run_cycles_per_word * self._outputs_per_run()
        ctx = CostContext(system, code_section="kernel_text")
        ctx.cfu(runs, latency=2)            # issue RUN, consume response
        ctx.cfu_busy(runs * run_busy)       # CFU accumulation loop
        ctx.alu(runs * self.per_output_cpu * self._outputs_per_run())
        ctx.branch(runs, taken=0.9)
        self._per_output_tail(ctx, outputs)
        # Per pixel: stream the packed input column into the CFU.
        upload = pixels * in_ch / 4
        if self.pipelined_input:
            # Overlapped with RUN execution: only the issue slot remains,
            # hidden under cfu_busy; charge nothing extra.
            pass
        else:
            ctx.load(upload, size=4, section="arena", pattern="seq",
                     footprint=in_ch)
            ctx.cfu(upload, latency=1)
        self._upload_postproc_params(ctx, out_ch)
        self._upload_filters(ctx, in_ch, out_ch)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=220)

    def _per_output_tail(self, ctx, outputs):
        # Retrieve raw accumulator, post-process via CFU, write back bytes.
        ctx.cfu(outputs, latency=1)
        ctx.cfu(outputs, latency=3, ii=1)
        ctx.alu(outputs * 3)
        ctx.store(outputs, size=1, section="arena")


class Mac4Run1(_RunVariant):
    """*MAC4Run1*: "pull input parameters directly from the previously
    constructed buffers and move the whole inner accumulation loop into
    the CFU" — less than one cycle per MAC."""

    name = "mac4-run1"
    stage = "mac4run1"
    run_cycles_per_word = 2.0   # filter and input share a store port
    per_output_cpu = 10.0       # acc handoff + channel bookkeeping


class InclPostproc(_RunVariant):
    """*Incl postproc*: "connected the accumulation result directly to
    post-processing in the CFU without CPU intervention"."""

    name = "incl-postproc"
    stage = "incl_postproc"
    run_cycles_per_word = 2.0
    per_output_cpu = 2.0

    def _per_output_tail(self, ctx, outputs):
        # RUN returns the final requantized byte; just store it.
        ctx.store(outputs, size=1, section="arena")
        ctx.alu(outputs)


class Macc4Run4(InclPostproc):
    """*Macc4Run4*: four 8-bit outputs packed into one 32-bit word per
    retrieval — "calculating and writing back 8b output channel values
    one at a time was not making efficient use of memory bandwidth"."""

    name = "macc4-run4"
    stage = "macc4run4"
    run_cycles_per_word = 1.5   # filter store banked for the 4-output run
    per_output_cpu = 1.0

    def _outputs_per_run(self):
        return 4

    def _per_output_tail(self, ctx, outputs):
        words = outputs / 4
        ctx.store(words, size=4, section="arena")
        ctx.alu(words)


class OverlapInput(Macc4Run4):
    """*Overlap input*: "pipelined the CFU to calculate while loading
    inputs" — the final CFU1 design, one MAC4 per cycle."""

    name = "overlap-input"
    stage = "overlap_input"
    run_cycles_per_word = 1.0
    pipelined_input = True
    per_output_cpu = 0.5


def conv1x1_via_cfu(op, inputs, model, cfu=None):
    """Compute a 1x1 conv by *actually driving* an :class:`Mnv2Cfu`.

    This is the Macc4Run4 dataflow, instruction by instruction: upload
    post-processing parameters and packed filters once, then per pixel
    stream the input column and issue packed 4-output runs.  Slow (pure
    Python per custom instruction) — used by golden tests on small
    layers to prove the CFU semantics really implement the kernel.
    """
    import numpy as np

    from ..accel.mnv2 import model as cm

    data, filters, bias = inputs
    in_tensor = model.tensor(op.inputs[0])
    out_tensor = model.tensor(op.outputs[0])
    params = op.params
    n, h, w, in_ch = data.shape
    if in_ch % 4:
        raise ValueError("CFU dataflow requires channel counts divisible by 4")
    out_ch = filters.shape[0]
    if out_ch % 4:
        raise ValueError("CFU dataflow requires channel counts divisible by 4")
    cfu = cfu or Mnv2Cfu()

    def op32(funct3, funct7, a=0, b=0):
        return cfu.op(funct3, funct7, int(a) & 0xFFFFFFFF, int(b) & 0xFFFFFFFF)

    def pack_words(values):
        """Pack int8 lanes little-endian into uint32 words over the last
        axis (length divisible by 4) — one vectorized pass."""
        lanes = (np.ascontiguousarray(values, dtype=np.int8)
                 .view(np.uint8).astype(np.uint32)
                 .reshape(values.shape[:-1] + (values.shape[-1] // 4, 4)))
        return (lanes[..., 0] | (lanes[..., 1] << 8)
                | (lanes[..., 2] << 16) | (lanes[..., 3] << 24))

    weights = filters.reshape(out_ch, in_ch)
    # Fold the input zero point into the bias (the standard trick:
    # sum((q - zp) * w) == sum(q * w) - zp * sum(w)), so the CFU MACs
    # operate on raw int8 activations.
    folded_bias = (np.asarray(bias, dtype=np.int64)
                   - int(in_tensor.quant.zero_point)
                   * weights.astype(np.int64).sum(axis=1))

    op32(cm.F3_CONFIG, cm.CFG_RESET)
    op32(cm.F3_CONFIG, cm.CFG_DEPTH, in_ch // 4)
    for channel in range(out_ch):
        op32(cm.F3_CONFIG, cm.CFG_BIAS, folded_bias[channel])
        op32(cm.F3_CONFIG, cm.CFG_MULT, params["out_multipliers"][channel])
        op32(cm.F3_CONFIG, cm.CFG_SHIFT, params["out_shifts"][channel])
    clamps = ((params["activation_min"] & 0xFF)
              | ((params["activation_max"] & 0xFF) << 8))
    op32(cm.F3_CONFIG, cm.CFG_OUTPUT, out_tensor.quant.zero_point, clamps)

    # Raw activations; the zero point lives in the bias.  All packed
    # words are precomputed vectorized — the loops below only issue the
    # custom instructions.
    filter_words = pack_words(weights)            # (out_ch, in_ch // 4)
    input_words = pack_words(data)                # (n, h, w, in_ch // 4)
    for channel in range(out_ch):
        for word in filter_words[channel]:
            op32(cm.F3_WRITE_FILT, 0, word)

    output = np.empty((n, h, w, out_ch), dtype=np.int8)
    for b_i in range(n):
        for y in range(h):
            for x in range(w):
                column_words = input_words[b_i, y, x]
                op32(cm.F3_WRITE_INPUT, 1, column_words[0])
                for word in column_words[1:]:
                    op32(cm.F3_WRITE_INPUT, 0, word)
                op32(cm.F3_CONFIG, cm.CFG_RESTART)  # rewind the filter walk
                run_words = [op32(cm.F3_RUN1, cm.RUN_PACK4)
                             for _ in range(out_ch // 4)]
                output[b_i, y, x] = (np.asarray(run_words, dtype="<u4")
                                     .view(np.uint8).view(np.int8))
    return output


#: Fig. 4 bars, in ladder order (base = reference kernel, handled by the
#: ladder definition in :mod:`repro.core.ladders`).
LADDER_VARIANTS = (
    SwSpecialized1x1,
    CfuPostproc1x1,
    CfuHoldFilt1x1,
    CfuHoldInp1x1,
    CfuMac4,
    Mac4Run1,
    InclPostproc,
    Macc4Run4,
    OverlapInput,
)
