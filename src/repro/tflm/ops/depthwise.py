"""Reference int8 DEPTHWISE_CONV_2D kernel (TFLite semantics)."""

from __future__ import annotations

import numpy as np

from ..quantize import requantize
from .conv import pad_input


def depthwise_accumulate(input_data, input_zero_point, filters, stride,
                         padding, depth_multiplier=1):
    """Raw int32 accumulators of a depthwise conv.

    ``filters`` has TFLite layout (1, KH, KW, in_channels * multiplier).
    Output channel ``c * multiplier + m`` convolves input channel ``c``
    with filter plane ``c * multiplier + m``.
    """
    _, kh, kw, out_ch = filters.shape
    n, _, _, in_ch = input_data.shape
    if out_ch != in_ch * depth_multiplier:
        raise ValueError("filter channels != in_channels * depth_multiplier")
    padded, (oh, ow) = pad_input(
        input_data, (kh, kw), stride, padding, pad_value=input_zero_point
    )
    sh, sw = stride
    acc = np.zeros((n, oh, ow, out_ch), dtype=np.int64)
    centered = padded.astype(np.int64)
    centered -= int(input_zero_point)
    weights = filters[0].astype(np.int64)  # (KH, KW, out_ch)
    for ky in range(kh):
        for kx in range(kw):
            block = centered[:, ky:ky + oh * sh:sh, kx:kx + ow * sw:sw, :]
            if depth_multiplier != 1:
                block = np.repeat(block, depth_multiplier, axis=-1)
            acc += block * weights[ky, kx]
    return acc


def depthwise_reference(input_data, input_zero_point, filters, bias, stride,
                        padding, out_multipliers, out_shifts,
                        output_zero_point, depth_multiplier=1,
                        activation_min=-128, activation_max=127):
    acc = depthwise_accumulate(
        input_data, input_zero_point, filters, stride, padding, depth_multiplier
    )
    if bias is not None:
        acc += np.asarray(bias, dtype=np.int64)
    return requantize(
        acc, out_multipliers, out_shifts, output_zero_point,
        activation_min, activation_max,
    )


def depthwise_macs(input_shape, filters_shape, stride, padding):
    n, h, w, _ = input_shape
    _, kh, kw, out_ch = filters_shape
    if padding == "same":
        oh, ow = -(-h // stride[0]), -(-w // stride[1])
    else:
        oh = (h - kh) // stride[0] + 1
        ow = (w - kw) // stride[1] + 1
    return n * oh * ow * out_ch * kh * kw
