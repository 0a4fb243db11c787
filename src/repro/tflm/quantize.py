"""TFLite-exact fixed-point quantization arithmetic.

These functions are bit-exact ports of the gemmlowp/TFLite Micro
reference routines (``SaturatingRoundingDoublingHighMul``,
``RoundingDivideByPOT``, ``MultiplyByQuantizedMultiplier``,
``QuantizeMultiplier``).  Every quantized kernel in the framework —
reference or CFU-accelerated — funnels through this module, so software
emulation, gateware models, and golden tests all agree on the numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization: ``real = scale * (q - zero_point)``."""

    scale: float
    zero_point: int = 0

    def quantize(self, real, dtype=np.int8):
        info = np.iinfo(dtype)
        q = np.round(np.asarray(real, dtype=np.float64) / self.scale) + self.zero_point
        return np.clip(q, info.min, info.max).astype(dtype)

    def dequantize(self, q):
        return (np.asarray(q, dtype=np.float64) - self.zero_point) * self.scale


def saturating_rounding_doubling_high_mul(a, b):
    """gemmlowp SRDHM on int32 inputs (arrays or scalars)."""
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    overflow = (a64 == INT32_MIN) & (b64 == INT32_MIN)
    ab = a64 * b64
    nudge = np.where(ab >= 0, 1 << 30, 1 - (1 << 30))
    result = (ab + nudge) >> 31
    result = np.where(overflow, INT32_MAX, result)
    return result.astype(np.int64)


def rounding_divide_by_pot(x, exponent):
    """gemmlowp RoundingDivideByPOT (round half away from zero).

    ``exponent`` may be a scalar or an array broadcast against ``x``
    (an exponent of 0 falls out of the mask arithmetic as identity).
    """
    x = np.asarray(x, dtype=np.int64)
    exponent = np.asarray(exponent, dtype=np.int64)
    if exponent.ndim == 0 and int(exponent) == 0:
        return x
    mask = (np.int64(1) << exponent) - 1
    remainder = x & mask
    threshold = (mask >> 1) + (x < 0).astype(np.int64)
    return (x >> exponent) + (remainder > threshold).astype(np.int64)


def multiply_by_quantized_multiplier(x, quantized_multiplier, shift):
    """TFLM MultiplyByQuantizedMultiplier: x * multiplier * 2^shift.

    All three arguments may be scalars or mutually-broadcastable arrays
    (e.g. per-channel multiplier/shift against ``(..., channels)``
    accumulators).
    """
    shift = np.asarray(shift, dtype=np.int64)
    left_shift = np.where(shift > 0, shift, 0)
    right_shift = np.where(shift < 0, -shift, 0)
    shifted = np.asarray(x, dtype=np.int64) << left_shift
    high = saturating_rounding_doubling_high_mul(shifted, quantized_multiplier)
    return rounding_divide_by_pot(high, right_shift)


def quantize_multiplier(real_multiplier):
    """Decompose a real multiplier into (int32 mantissa, shift exponent)."""
    if real_multiplier == 0.0:
        return 0, 0
    mantissa, exponent = math.frexp(real_multiplier)
    q = int(round(mantissa * (1 << 31)))
    if q == (1 << 31):
        q //= 2
        exponent += 1
    if q < INT32_MIN or q > INT32_MAX:
        raise ValueError(f"multiplier {real_multiplier} out of range")
    return q, exponent


def output_multipliers(input_scale, filter_scales, output_scale):
    """Per-channel (multiplier, shift) pairs for conv/fc requantization.

    Channels sharing a filter scale share a pair, so each distinct scale
    is decomposed once.
    """
    filter_scales = np.atleast_1d(np.asarray(filter_scales, dtype=np.float64))
    distinct, channel = np.unique(filter_scales, return_inverse=True)
    pairs = np.array([
        quantize_multiplier(
            float(input_scale) * float(fscale) / float(output_scale))
        for fscale in distinct
    ], dtype=np.int64).reshape(-1, 2)
    return pairs[channel, 0], pairs[channel, 1]


def requantize(acc, multiplier, shift, output_zero_point,
               activation_min=-128, activation_max=127):
    """Bias-added accumulators -> int8 outputs, per TFLM semantics.

    ``multiplier``/``shift`` may be scalars or per-channel arrays
    broadcast over the last axis of ``acc``.
    """
    acc = np.asarray(acc, dtype=np.int64)
    multiplier = np.asarray(multiplier, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    # Per-channel multiplier/shift broadcast over the last axis of acc;
    # scalars broadcast over everything.  One vectorized pass either way.
    scaled = multiply_by_quantized_multiplier(acc, multiplier, shift)
    out = scaled + output_zero_point
    return np.clip(out, activation_min, activation_max).astype(np.int8)


def choose_quant_params(real_min, real_max, dtype=np.int8):
    """Pick (scale, zero_point) covering [real_min, real_max], nudged so
    zero is exactly representable (TFLite's requirement)."""
    info = np.iinfo(dtype)
    real_min = min(0.0, float(real_min))
    real_max = max(0.0, float(real_max))
    if real_min == real_max:
        return QuantParams(scale=1.0, zero_point=0)
    scale = (real_max - real_min) / (info.max - info.min)
    zero_point = int(round(info.min - real_min / scale))
    zero_point = max(info.min, min(info.max, zero_point))
    return QuantParams(scale=scale, zero_point=zero_point)
