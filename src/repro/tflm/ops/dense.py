"""Reference int8 FULLY_CONNECTED kernel (TFLite semantics)."""

from __future__ import annotations

import numpy as np

from ..quantize import requantize
from .gemm import int_matmul


def fully_connected_accumulate(input_data, input_zero_point, weights):
    """Raw int32 accumulators: ``weights`` is (out_features, in_features)."""
    flat = input_data.reshape(input_data.shape[0], -1).astype(np.int64)
    return int_matmul(flat - int(input_zero_point), weights.T)


def fully_connected_reference(input_data, input_zero_point, weights, bias,
                              out_multiplier, out_shift, output_zero_point,
                              activation_min=-128, activation_max=127):
    acc = fully_connected_accumulate(input_data, input_zero_point, weights)
    if bias is not None:
        acc += np.asarray(bias, dtype=np.int64)
    return requantize(
        acc, out_multiplier, out_shift, output_zero_point,
        activation_min, activation_max,
    )


def fully_connected_macs(input_shape, weights_shape):
    batch = input_shape[0]
    out_features, in_features = weights_shape
    return batch * out_features * in_features
