"""Reference int8 CONV_2D kernel (TFLite semantics, NHWC layout).

This is the generalized kernel the paper's case study begins from: it
handles any filter size, stride, and padding.  The optimized/specialized
variants (1x1 fast path, CFU-accelerated forms) live in
:mod:`repro.kernels` and are validated against this reference.
"""

from __future__ import annotations

import numpy as np

from ..quantize import requantize
from .gemm import int_matmul


def output_hw(in_hw, kernel_hw, stride_hw, padding):
    """Output (height, width) of a window op under TFLite SAME/VALID."""
    (h, w), (kh, kw), (sh, sw) = in_hw, kernel_hw, stride_hw
    if padding == "valid":
        return (h - kh) // sh + 1, (w - kw) // sw + 1
    if padding != "same":
        raise ValueError(f"unknown padding {padding!r}")
    return -(-h // sh), -(-w // sw)


def pad_input(input_data, kernel_hw, stride_hw, padding, pad_value):
    """Apply TFLite SAME/VALID padding; returns (padded, (oh, ow))."""
    n, h, w, c = input_data.shape
    kh, kw = kernel_hw
    sh, sw = stride_hw
    oh, ow = output_hw((h, w), kernel_hw, stride_hw, padding)
    if padding == "valid":
        return input_data, (oh, ow)
    pad_h = max(0, (oh - 1) * sh + kh - h)
    pad_w = max(0, (ow - 1) * sw + kw - w)
    top, left = pad_h // 2, pad_w // 2
    padded = np.full(
        (n, h + pad_h, w + pad_w, c), pad_value, dtype=input_data.dtype
    )
    padded[:, top:top + h, left:left + w, :] = input_data
    return padded, (oh, ow)


def extract_patches(padded, kernel_hw, stride_hw, out_hw):
    """im2col: (N, OH, OW, KH*KW*C) patches as int64."""
    n, _, _, c = padded.shape
    kh, kw = kernel_hw
    sh, sw = stride_hw
    oh, ow = out_hw
    patches = np.empty((n, oh, ow, kh * kw * c), dtype=np.int64)
    for ky in range(kh):
        for kx in range(kw):
            block = padded[:, ky:ky + oh * sh:sh, kx:kx + ow * sw:sw, :]
            start = (ky * kw + kx) * c
            patches[:, :, :, start:start + c] = block
    return patches


def conv2d_accumulate(input_data, input_zero_point, filters, stride, padding):
    """Raw int32 accumulators of a conv (before bias/requantization).

    ``filters`` has TFLite layout (out_channels, KH, KW, in_channels).
    Padded elements contribute zero because padding uses the input zero
    point and the kernel subtracts it before multiplying.
    """
    out_ch, kh, kw, in_ch = filters.shape
    padded, out_hw = pad_input(
        input_data, (kh, kw), stride, padding, pad_value=input_zero_point
    )
    patches = extract_patches(padded, (kh, kw), stride, out_hw)
    patches -= int(input_zero_point)
    weights = filters.reshape(out_ch, -1)
    return int_matmul(patches, weights.T)  # (N, OH, OW, out_ch)


def conv2d_reference(input_data, input_zero_point, filters, bias, stride,
                     padding, out_multipliers, out_shifts, output_zero_point,
                     activation_min=-128, activation_max=127):
    """Full int8 CONV_2D: accumulate, add bias, requantize, clamp."""
    acc = conv2d_accumulate(input_data, input_zero_point, filters, stride, padding)
    if bias is not None:
        acc += np.asarray(bias, dtype=np.int64)
    return requantize(
        acc, out_multipliers, out_shifts, output_zero_point,
        activation_min, activation_max,
    )


def conv2d_macs(input_shape, filters_shape, stride, padding):
    """Multiply-accumulate count of one conv layer."""
    n, h, w, _ = input_shape
    out_ch, kh, kw, in_ch = filters_shape
    oh, ow = output_hw((h, w), (kh, kw), stride, padding)
    return n * oh * ow * out_ch * kh * kw * in_ch
