"""TFLite fixed-point quantization arithmetic.

These functions port the gemmlowp/TFLite Micro reference routines
(``SaturatingRoundingDoublingHighMul``, ``RoundingDivideByPOT``,
``MultiplyByQuantizedMultiplier``, ``QuantizeMultiplier``) bit for bit,
with one known rounding difference in SRDHM (see
:func:`saturating_rounding_doubling_high_mul`).  Every quantized kernel
in the framework — reference or CFU-accelerated — funnels through this
module, so software emulation, gateware models, and golden tests all
agree on the numerics.
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


def _owned(x, *operands):
    """A fresh int64 copy of ``x`` broadcast against ``operands``: the one
    array the in-place steps below overwrite."""
    owned = np.array(x, dtype=np.int64)
    shape = np.broadcast(owned, *operands).shape
    if owned.shape != shape:
        owned = np.array(np.broadcast_to(owned, shape))
    return owned


# The in-place steps take an owned int64 array and overwrite it with
# in-place ufuncs; their only temporaries are boolean masks.  A boolean
# operand of ``+=``/``-=`` adds 0 or 1, which is far faster than a
# ``where=`` ufunc on large planes.

def _srdhm_in_place(x, b):
    """SRDHM in place: ``x`` becomes ``srdhm(x, b)``.

    ``(ab + nudge) >> 31`` nudges by ``2^30`` for ``ab >= 0`` and by
    ``1 - 2^30`` below; for ``ab < 0`` that is the same as
    ``((ab + 2^30 + 1) >> 31) - 1``, so one sign mask serves both
    corrections.  INT32_MIN * INT32_MIN saturates to INT32_MAX.
    """
    b = np.asarray(b, dtype=np.int64)
    overflow = None
    if np.count_nonzero(b == INT32_MIN):
        overflow = (x == INT32_MIN) & (b == INT32_MIN)
    x *= b
    negative = x < 0
    x += 1 << 30
    x += negative
    x >>= 31
    x -= negative
    if overflow is not None:
        np.copyto(x, INT32_MAX, where=overflow)
    return x


def _rdbp_in_place(x, exponent):
    """RoundingDivideByPOT in place: ``x`` becomes ``x / 2^exponent``,
    rounded half away from zero.

    Adding ``2^(e-1)`` (one less for negative ``x``) before the floor
    shift carries exactly when the remainder passes gemmlowp's threshold
    ``(mask >> 1) + (x < 0)``; an exponent of 0 leaves its elements alone.
    """
    exponent = np.asarray(exponent, dtype=np.int64)
    nonzero = np.count_nonzero(exponent)
    if not nonzero:
        return x
    negative = x < 0
    if nonzero < exponent.size:
        negative &= exponent > 0
    x += (np.int64(1) << exponent) >> 1
    x -= negative
    x >>= exponent
    return x


def _mbqm_in_place(x, quantized_multiplier, shift):
    """MultiplyByQuantizedMultiplier in place on ``x``."""
    shift = np.asarray(shift, dtype=np.int64)
    left_shift = np.maximum(shift, 0)
    if np.count_nonzero(left_shift):
        x <<= left_shift
    _srdhm_in_place(x, quantized_multiplier)
    return _rdbp_in_place(x, np.maximum(-shift, 0))


def saturating_rounding_doubling_high_mul(a, b):
    """gemmlowp SRDHM on int32 inputs (arrays or scalars).

    The final shift floors where gemmlowp's ``/ (1 << 31)`` truncates
    toward zero, so a nudged product that is negative and not a multiple
    of ``2^31`` lands one below gemmlowp (``srdhm(-1, 2^30)`` is -1, not
    0).  The gateware (``accel.common.srdhm_expr``) floors the same way,
    and the pinned zoo digests hold this behaviour.
    """
    return _srdhm_in_place(_owned(a, b), b)


def rounding_divide_by_pot(x, exponent):
    """gemmlowp RoundingDivideByPOT (round half away from zero).

    ``exponent`` may be a scalar or an array broadcast against ``x``
    (an exponent of 0 is the identity).
    """
    return _rdbp_in_place(_owned(x, exponent), exponent)


def multiply_by_quantized_multiplier(x, quantized_multiplier, shift):
    """TFLM MultiplyByQuantizedMultiplier: x * multiplier * 2^shift.

    All three arguments may be scalars or mutually-broadcastable arrays
    (e.g. per-channel multiplier/shift against ``(..., channels)``
    accumulators).
    """
    return _mbqm_in_place(_owned(x, quantized_multiplier, shift),
                          quantized_multiplier, shift)


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
    broadcast over the last axis of ``acc``.  ``acc`` is never written:
    the steps run in place on one int64 copy of it, so a layer's
    requantization holds one accumulator-sized temporary, not one per
    step.
    """
    out = _mbqm_in_place(_owned(acc, multiplier, shift), multiplier, shift)
    out += output_zero_point
    np.clip(out, activation_min, activation_max, out=out)
    return out.astype(np.int8)


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
