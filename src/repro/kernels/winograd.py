"""Winograd F(2x2,3x3) kernel pair: the third speedup ladder.

Two entry points per operator:

- ``winograd_depthwise`` / ``winograd_pointwise`` — vectorized *exact*
  integer implementations of the CFU's tile dataflow (the same
  transforms, bias folding and requantization, in numpy).  These are
  fast enough to prove bit-identity against the TFLM reference kernels
  over every qualifying layer of the model zoo.
- ``depthwise_via_winograd_cfu`` / ``pointwise_via_winograd_cfu`` —
  instruction-level drivers that stitch 2x2 output blocks into 4x4
  input tiles and issue real custom instructions (against the
  behavioural model or, through :class:`~repro.cfu.rtl.RtlCfuAdapter`,
  the gateware).  Golden tests prove the drivers equal the vectorized
  path on small layers, closing the chain reference == vectorized ==
  driver == RTL.

Both fall back to the reference path on non-3x3 / strided / non-unit
depth-multiplier layers (and on the 1x1 side, on widths that do not
pack into 4-lane words), mirroring how a TFLM kernel registration
keeps the reference implementation for shapes it cannot specialize.
"""

from __future__ import annotations

import numpy as np

from ..accel.winograd import model as wm
from ..accel.winograd.model import WinogradCfu
from ..perf.cost import CostContext
from ..tflm.ops.conv import pad_input
from ..tflm.ops.gemm import int_matmul
from ..tflm.quantize import requantize
from .api import KernelVariant, _REFERENCE

# Integer transform matrices (B^T and A^T exact; G doubled so that
# U' = G' g G'^T stays integral and Y' = A^T (U' (*) V) A = 4 * conv).
BT = np.array([[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]],
              dtype=np.int64)
G2 = np.array([[2, 0, 0], [1, 1, 1], [1, -1, 1], [0, 0, 2]], dtype=np.int64)
AT = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=np.int64)


def _shifts_supported(params):
    """The CFU implements right shifts only (TFLM shift <= 0)."""
    return not (np.asarray(params["out_shifts"]) > 0).any()


def _dw_applicable(params):
    return (tuple(params.get("kernel", ())) == (3, 3)
            and tuple(params["stride"]) == (1, 1)
            and params.get("depth_multiplier", 1) == 1
            and _shifts_supported(params))


def _pw_applicable(params, in_ch):
    return (tuple(params.get("kernel", ())) == (1, 1)
            and tuple(params["stride"]) == (1, 1)
            and in_ch % 4 == 0
            and _shifts_supported(params))


def _conv_io(op, model):
    in_tensor = model.tensor(op.inputs[0])
    out_tensor = model.tensor(op.outputs[0])
    return int(in_tensor.quant.zero_point), int(out_tensor.quant.zero_point)


# --- vectorized exact paths ---------------------------------------------------------


def winograd_depthwise(op, inputs, model):
    """Exact Winograd F(2x2,3x3) depthwise conv (vectorized dataflow)."""
    params = op.params
    if not _dw_applicable(params):
        return _REFERENCE.lookup(op.opcode)(op, inputs, model)
    data, filters, bias = inputs
    in_zp, out_zp = _conv_io(op, model)
    weights = filters[0].astype(np.int64)              # (3, 3, C)
    channels = weights.shape[-1]

    padded, (oh, ow) = pad_input(data, (3, 3), (1, 1), params["padding"],
                                 pad_value=in_zp)
    tiles_h, tiles_w = (oh + 1) // 2, (ow + 1) // 2
    n = data.shape[0]
    # Extend to the tile grid; the pad value never reaches a kept output
    # (every real output's 3x3 window lies inside the conv padding).
    ext = np.full((n, 2 * tiles_h + 2, 2 * tiles_w + 2, channels), in_zp,
                  dtype=np.int64)
    ext[:, :padded.shape[1], :padded.shape[2]] = padded

    tiles = np.empty((n, tiles_h, tiles_w, 4, 4, channels), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            tiles[:, :, :, i, j, :] = ext[:, i:i + 2 * tiles_h:2,
                                          j:j + 2 * tiles_w:2, :]
    v = np.einsum("ai,nhwijc,bj->nhwabc", BT, tiles, BT)
    u = np.einsum("ai,ijc,bj->abc", G2, weights, G2)
    y = np.einsum("pa,nhwabc,qb->nhwpqc", AT, v * u[None, None, None], AT) >> 2

    folded_bias = np.asarray(bias, dtype=np.int64) - in_zp * weights.sum((0, 1))
    out = requantize(y + folded_bias, params["out_multipliers"],
                     params["out_shifts"], out_zp,
                     params["activation_min"], params["activation_max"])
    stitched = out.transpose(0, 1, 3, 2, 4, 5).reshape(
        n, 2 * tiles_h, 2 * tiles_w, channels)
    return stitched[:, :oh, :ow, :]


def winograd_pointwise(op, inputs, model):
    """Exact 1x1 conv through the CFU's 4-lane dot-product dataflow."""
    params = op.params
    data, filters, bias = inputs
    in_ch = data.shape[-1]
    if not _pw_applicable(params, in_ch):
        return _REFERENCE.lookup(op.opcode)(op, inputs, model)
    in_zp, out_zp = _conv_io(op, model)
    out_ch = filters.shape[0]
    weights = filters.reshape(out_ch, in_ch).astype(np.int64)
    acc = int_matmul(data.reshape(-1, in_ch), weights.T)
    folded_bias = np.asarray(bias, dtype=np.int64) - in_zp * weights.sum(axis=1)
    # The CFU accumulates in 32 bits; wrap the same way (a no-op for
    # every in-range layer, exactly like TFLM's int32 accumulators).
    acc = ((acc + folded_bias + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)
    out = requantize(acc, params["out_multipliers"], params["out_shifts"],
                     out_zp, params["activation_min"], params["activation_max"])
    return out.reshape(data.shape[:-1] + (out_ch,))


# --- instruction-level drivers ------------------------------------------------------


def _pow2_at_least(value, floor):
    width = floor
    while width < value:
        width *= 2
    return width


def _packed_rows(plane):
    """Rows of packed-ready unsigned bytes for one channel plane."""
    return (np.asarray(plane).astype(np.int64) & 0xFF).tolist()


def depthwise_via_winograd_cfu(op, inputs, model, cfu=None):
    """Depthwise conv by driving the Winograd CFU tile by tile.

    Uploads each channel's 3x3 filter (transformed on upload by the
    CFU), then stitches 2x2 output blocks into 4x4 input tiles: four
    packed row words and one RUN_DW per tile.  Pure Python per custom
    instruction; golden tests run it against both the behavioural model
    and the RTL adapter.
    """
    params = op.params
    if not _dw_applicable(params):
        return _REFERENCE.lookup(op.opcode)(op, inputs, model)
    data, filters, bias = inputs
    in_zp, out_zp = _conv_io(op, model)
    _, kh, kw, out_ch = filters.shape
    cfu = cfu or WinogradCfu(channels=_pow2_at_least(out_ch, 64))

    def op32(funct3, funct7, a=0, b=0):
        return cfu.execute(funct3, funct7, int(a) & 0xFFFFFFFF,
                           int(b) & 0xFFFFFFFF)[0]

    fast = getattr(cfu, "fast_call", lambda f3, f7: None)
    wi_first = fast(wm.F3_WRITE_INPUT, 1) or \
        (lambda a, b: op32(wm.F3_WRITE_INPUT, 1, a, b))
    wi_next = fast(wm.F3_WRITE_INPUT, 0) or \
        (lambda a, b: op32(wm.F3_WRITE_INPUT, 0, a, b))

    padded, (oh, ow) = pad_input(data, (kh, kw), (1, 1), params["padding"],
                                 pad_value=in_zp)
    weights = filters[0].astype(np.int64)
    folded_bias = np.asarray(bias, dtype=np.int64) - in_zp * weights.sum((0, 1))
    clamps = ((params["activation_min"] & 0xFF)
              | ((params["activation_max"] & 0xFF) << 8))
    tiles_h, tiles_w = (oh + 1) // 2, (ow + 1) // 2

    op32(wm.F3_CONFIG, wm.CFG_RESET)
    for channel in range(out_ch):
        g = weights[:, :, channel].reshape(-1).tolist()
        op32(wm.F3_WRITE_FILT, 1, _word(g[0], g[1], g[2], g[3]))
        op32(wm.F3_WRITE_FILT, 0, _word(g[4], g[5], g[6], g[7]))
        op32(wm.F3_WRITE_FILT, 0, _word(g[8], 0, 0, 0))
        op32(wm.F3_CONFIG, wm.CFG_BIAS, folded_bias[channel])
        op32(wm.F3_CONFIG, wm.CFG_MULT, params["out_multipliers"][channel])
        op32(wm.F3_CONFIG, wm.CFG_SHIFT, params["out_shifts"][channel])
    op32(wm.F3_CONFIG, wm.CFG_OUTPUT, out_zp, clamps)

    output = np.empty((data.shape[0], oh, ow, out_ch), dtype=np.int8)
    pad_byte = in_zp & 0xFF
    for b_i in range(data.shape[0]):
        for channel in range(out_ch):
            op32(wm.F3_CONFIG, wm.CFG_CHANNEL, channel)
            rows = _packed_rows(padded[b_i, :, :, channel])
            # Tile rows beyond the conv padding never feed a kept output.
            pad_row = [pad_byte] * (2 * tiles_w + 2)
            while len(rows) < 2 * tiles_h + 2:
                rows.append(pad_row)
            plane = [row + [pad_byte] * (2 * tiles_w + 2 - len(row))
                     for row in rows]
            out_rows = [[0] * ow for _ in range(oh)]
            for ty in range(tiles_h):
                base_y = 2 * ty
                r0, r1 = plane[base_y], plane[base_y + 1]
                r2, r3 = plane[base_y + 2], plane[base_y + 3]
                for tx in range(tiles_w):
                    x = 2 * tx
                    wi_first(r0[x] | (r0[x + 1] << 8) | (r0[x + 2] << 16)
                             | (r0[x + 3] << 24), 0)
                    wi_next(r1[x] | (r1[x + 1] << 8) | (r1[x + 2] << 16)
                            | (r1[x + 3] << 24), 0)
                    wi_next(r2[x] | (r2[x + 1] << 8) | (r2[x + 2] << 16)
                            | (r2[x + 3] << 24), 0)
                    wi_next(r3[x] | (r3[x + 1] << 8) | (r3[x + 2] << 16)
                            | (r3[x + 3] << 24), 0)
                    word = op32(wm.F3_RUN_DW, 0)
                    y0, y1 = 2 * ty, 2 * ty + 1
                    out_rows[y0][x] = _sx(word & 0xFF)
                    if x + 1 < ow:
                        out_rows[y0][x + 1] = _sx((word >> 8) & 0xFF)
                    if y1 < oh:
                        out_rows[y1][x] = _sx((word >> 16) & 0xFF)
                        if x + 1 < ow:
                            out_rows[y1][x + 1] = _sx((word >> 24) & 0xFF)
            output[b_i, :, :, channel] = out_rows
    return output


def pointwise_via_winograd_cfu(op, inputs, model, cfu=None):
    """1x1 conv by driving the CFU's 4-pixel dot-product engine.

    Each quad of pixels is uploaded across the four input banks
    (``depth`` words per pixel), then one RUN_PW per output channel
    produces four requantized bytes; the channel pointer and filter
    pointer advance autonomously.
    """
    params = op.params
    data, filters, bias = inputs
    in_ch = data.shape[-1]
    if not _pw_applicable(params, in_ch):
        return _REFERENCE.lookup(op.opcode)(op, inputs, model)
    in_zp, out_zp = _conv_io(op, model)
    out_ch = filters.shape[0]
    depth = in_ch // 4
    if cfu is None:
        cfu = WinogradCfu(
            channels=_pow2_at_least(out_ch, 64),
            pw_filter_words=_pow2_at_least(out_ch * depth, 256),
            input_words=_pow2_at_least(4 * depth, 64))

    def op32(funct3, funct7, a=0, b=0):
        return cfu.execute(funct3, funct7, int(a) & 0xFFFFFFFF,
                           int(b) & 0xFFFFFFFF)[0]

    fast = getattr(cfu, "fast_call", lambda f3, f7: None)
    wi_first = fast(wm.F3_WRITE_INPUT, 1) or \
        (lambda a, b: op32(wm.F3_WRITE_INPUT, 1, a, b))
    wi_next = fast(wm.F3_WRITE_INPUT, 0) or \
        (lambda a, b: op32(wm.F3_WRITE_INPUT, 0, a, b))

    weights = filters.reshape(out_ch, in_ch).astype(np.int64)
    folded_bias = np.asarray(bias, dtype=np.int64) - in_zp * weights.sum(axis=1)
    clamps = ((params["activation_min"] & 0xFF)
              | ((params["activation_max"] & 0xFF) << 8))

    op32(wm.F3_CONFIG, wm.CFG_RESET)
    op32(wm.F3_CONFIG, wm.CFG_DEPTH, depth)
    filter_words = np.ascontiguousarray(
        weights.astype(np.int8).view(np.uint8)).view("<u4").tolist()
    first = True
    for row in filter_words:
        for word in row:
            op32(wm.F3_WRITE_FILT, 3 if first else 2, word)
            first = False
    for channel in range(out_ch):
        op32(wm.F3_CONFIG, wm.CFG_BIAS, folded_bias[channel])
        op32(wm.F3_CONFIG, wm.CFG_MULT, params["out_multipliers"][channel])
        op32(wm.F3_CONFIG, wm.CFG_SHIFT, params["out_shifts"][channel])
    op32(wm.F3_CONFIG, wm.CFG_OUTPUT, out_zp, clamps)

    flat = data.reshape(-1, in_ch)
    pixels = flat.shape[0]
    pixel_words = np.ascontiguousarray(
        flat.astype(np.int8).view(np.uint8)).view("<u4").tolist()
    out_flat = np.empty((pixels, out_ch), dtype=np.int8)
    for quad_base in range(0, pixels, 4):
        quad = [pixel_words[min(quad_base + r, pixels - 1)] for r in range(4)]
        op32(wm.F3_CONFIG, wm.CFG_RESTART)
        first = True
        for step in range(depth):
            for lane in range(4):
                word = quad[lane][step]
                if first:
                    wi_first(word, 0)
                    first = False
                else:
                    wi_next(word, 0)
        for channel in range(out_ch):
            word = op32(wm.F3_RUN_PW, 0)
            for lane in range(4):
                pixel = quad_base + lane
                if pixel < pixels:
                    out_flat[pixel, channel] = _sx((word >> (8 * lane)) & 0xFF)
    return out_flat.reshape(data.shape[:-1] + (out_ch,))


def _word(b0, b1, b2, b3):
    return ((int(b0) & 0xFF) | ((int(b1) & 0xFF) << 8)
            | ((int(b2) & 0xFF) << 16) | ((int(b3) & 0xFF) << 24))


def _sx(byte):
    return byte - 256 if byte & 0x80 else byte


# --- kernel variants (cost models for the estimator / DSE) --------------------------


class WinogradDepthwise(KernelVariant):
    """DEPTHWISE_CONV_2D on the tile engine: 36 MACs per 15-cycle tile
    issue sequence (4 uploads + a 3-cycle run + stitching overhead)."""

    opcode = "DEPTHWISE_CONV_2D"
    name = "winograd-dw"
    cfu_model = WinogradCfu

    def applies_to(self, op, model):
        return (op.opcode == self.opcode and _dw_applicable(op.params))

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, kh, kw = self.conv_geometry(op, model)
        outputs = pixels * out_ch
        tiles = -(-outputs // 4)
        ctx = CostContext(system, code_section="kernel_text")
        # Per-channel setup: 3 filter words (transformed on upload) +
        # the bias/mult/shift trio + the channel select.
        ctx.load(out_ch * 3, size=4, section="model_weights", pattern="seq",
                 footprint=out_ch * 12)
        ctx.cfu(out_ch * 7, latency=1)
        # Per tile: four packed rows assembled from the padded plane.
        ctx.load(tiles * 4, size=4, section="arena", pattern="seq",
                 footprint=in_ch * 64)
        ctx.shift(tiles * 4, amount=8)
        ctx.alu(tiles * 6)
        ctx.cfu(tiles * 4, latency=1)
        ctx.cfu(tiles, latency=3)
        ctx.store(outputs, size=1, section="arena")
        ctx.branch(tiles, taken=0.9)
        ctx.alu(pixels * 2 + 300)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=380)


class WinogradPointwise(KernelVariant):
    """CONV_2D 1x1 on the 4-bank dot-product engine: 16 MACs/cycle
    while the run FSM owns the stores (the CPU blocks on the run)."""

    opcode = "CONV_2D"
    name = "winograd-pw"
    cfu_model = WinogradCfu

    def applies_to(self, op, model):
        in_ch = model.tensor(op.inputs[0]).shape[-1]
        return (op.opcode == self.opcode and _pw_applicable(op.params, in_ch))

    def cycles(self, op, model, system):
        pixels, in_ch, out_ch, kh, kw = self.conv_geometry(op, model)
        outputs = pixels * out_ch
        depth = max(1, in_ch // 4)
        quads = -(-pixels // 4)
        uploads = quads * depth * 4
        runs = quads * out_ch
        ctx = CostContext(system, code_section="kernel_text")
        ctx.load(out_ch * depth, size=4, section="model_weights",
                 pattern="seq", footprint=out_ch * in_ch)
        ctx.cfu(out_ch * depth + out_ch * 3, latency=1)
        ctx.load(uploads, size=4, section="arena", pattern="seq",
                 footprint=in_ch * 4)
        ctx.cfu(uploads, latency=1)
        ctx.cfu(runs, latency=2)
        ctx.cfu_busy(runs * (depth + 1))    # blocking accumulate+requantize
        ctx.store(outputs, size=1, section="arena")
        ctx.alu(runs * 2 + quads * 8 + 250)
        ctx.branch(runs, taken=0.95)
        ctx.call(2)
        return ctx.finish(loop_footprint_bytes=360)


def winograd_variants():
    """The Winograd kernel pair (higher priority first in extended())."""
    return [WinogradPointwise(), WinogradDepthwise()]
