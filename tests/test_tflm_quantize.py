"""Bit-exactness tests for the TFLite fixed-point arithmetic."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tflm.quantize import (
    INT32_MAX,
    INT32_MIN,
    QuantParams,
    choose_quant_params,
    multiply_by_quantized_multiplier,
    output_multipliers,
    quantize_multiplier,
    requantize,
    rounding_divide_by_pot,
    saturating_rounding_doubling_high_mul,
)

i32 = st.integers(min_value=INT32_MIN, max_value=INT32_MAX)


def srdhm_scalar(a, b):
    """gemmlowp's reference implementation, transliterated."""
    if a == INT32_MIN and b == INT32_MIN:
        return INT32_MAX
    ab = a * b
    nudge = (1 << 30) if ab >= 0 else (1 - (1 << 30))
    return (ab + nudge) >> 31


def rdbpot_scalar(x, exponent):
    if exponent == 0:
        return x
    mask = (1 << exponent) - 1
    remainder = x & mask
    threshold = (mask >> 1) + (1 if x < 0 else 0)
    return (x >> exponent) + (1 if remainder > threshold else 0)


def requantize_scalar(x, multiplier, shift, zero_point, lo, hi):
    """One output element through the scalar transliterations: SRDHM,
    then RDBP, then the zero point, then the clamp."""
    high = srdhm_scalar(x * (1 << max(shift, 0)), multiplier)
    out = rdbpot_scalar(high, max(-shift, 0)) + zero_point
    return min(max(out, lo), hi)


@st.composite
def requantize_cases(draw):
    """``(acc rows, multipliers, shifts, per_channel, zero point, lo, hi)``.

    Each accumulator lies where TFLM defines the product: ``x * 2^left``
    within int32, for its channel's left shift.  Without ``per_channel``
    one multiplier/shift pair applies to a flat accumulator vector.
    """
    per_channel = draw(st.booleans())
    channels = draw(st.integers(1, 4)) if per_channel else 1
    multipliers = draw(st.lists(i32, min_size=channels, max_size=channels))
    shifts = draw(st.lists(st.integers(-31, 30), min_size=channels,
                           max_size=channels))
    rows = draw(st.lists(
        st.tuples(*(st.integers(INT32_MIN >> max(shift, 0),
                                INT32_MAX >> max(shift, 0))
                    for shift in shifts)),
        min_size=1, max_size=4))
    zero_point = draw(st.integers(-128, 127))
    lo = draw(st.integers(-128, 127))
    hi = draw(st.integers(lo, 127))
    return rows, multipliers, shifts, per_channel, zero_point, lo, hi


@settings(max_examples=300)
@given(case=requantize_cases())
@example(case=([(INT32_MIN, INT32_MIN, -1, 1)],
               [INT32_MIN, 1 << 30, INT32_MIN, INT32_MAX], [0, 0, -31, 30],
               True, 0, -128, 127))
@example(case=([(INT32_MIN,), (INT32_MAX,), (-1,)], [INT32_MIN], [0],
               False, -128, -128, 127))
def test_requantize_matches_the_scalar_pipeline(case):
    """The in-place array path equals, element by element, the scalar
    SRDHM -> RDBP -> zero point -> clamp, and leaves its input alone."""
    rows, multipliers, shifts, per_channel, zero_point, lo, hi = case
    acc = np.array(rows, dtype=np.int64)
    if per_channel:
        multiplier, shift = np.array(multipliers), np.array(shifts)
    else:
        acc = acc[:, 0]
        (multiplier,), (shift,) = multipliers, shifts
    before = acc.copy()
    out = requantize(acc, multiplier, shift, zero_point, lo, hi)
    assert np.array_equal(acc, before)
    assert out.dtype == np.int8 and out.shape == acc.shape
    expected = [[requantize_scalar(x, m, s, zero_point, lo, hi)
                 for x, m, s in zip(row, multipliers, shifts)]
                for row in rows]
    if not per_channel:
        expected = [row[0] for row in expected]
    assert out.tolist() == expected


@given(a=i32, b=i32)
@example(a=-(1 << 30) - 1, b=1)  # the nudged product is exactly -2^31
@example(a=INT32_MIN, b=INT32_MIN)
def test_srdhm_matches_gemmlowp(a, b):
    assert int(saturating_rounding_doubling_high_mul(a, b)) == srdhm_scalar(a, b)


@given(x=i32, exponent=st.integers(0, 31))
def test_rdbpot_matches_gemmlowp(x, exponent):
    assert int(rounding_divide_by_pot(x, exponent)) == rdbpot_scalar(x, exponent)


def test_rdbpot_rounds_half_away_from_zero():
    assert int(rounding_divide_by_pot(3, 1)) == 2     # 1.5 -> 2
    assert int(rounding_divide_by_pot(-3, 1)) == -2   # -1.5 -> -2
    assert int(rounding_divide_by_pot(5, 1)) == 3     # 2.5 -> 3
    assert int(rounding_divide_by_pot(-5, 1)) == -3   # -2.5 -> -3
    assert int(rounding_divide_by_pot(4, 2)) == 1
    assert int(rounding_divide_by_pot(-4, 2)) == -1


@given(real=st.floats(min_value=1e-8, max_value=0.9999,
                      allow_nan=False, allow_infinity=False))
def test_quantize_multiplier_accurate(real):
    mult, shift = quantize_multiplier(real)
    reconstructed = mult / (1 << 31) * (2.0 ** shift)
    assert math.isclose(reconstructed, real, rel_tol=1e-6)
    assert shift <= 0 or real >= 0.5  # sub-unity multipliers right-shift


def test_quantize_multiplier_zero():
    assert quantize_multiplier(0.0) == (0, 0)


@given(acc=st.integers(-(1 << 24), 1 << 24),
       real=st.floats(min_value=1e-5, max_value=0.999))
def test_requantize_tracks_real_arithmetic(acc, real):
    mult, shift = quantize_multiplier(real)
    got = int(multiply_by_quantized_multiplier(acc, mult, shift))
    expected = acc * real
    assert abs(got - expected) <= max(1.0, abs(expected) * 1e-5) + 1


def test_requantize_vector_per_channel():
    acc = np.array([[1000, -1000], [500, 2000]], dtype=np.int64)
    mults, shifts = output_multipliers(0.5, [0.01, 0.02], 0.1)
    out = requantize(acc, mults, shifts, output_zero_point=3)
    real = acc * np.array([0.5 * 0.01 / 0.1, 0.5 * 0.02 / 0.1])
    expected = np.clip(np.round(real) + 3, -128, 127)
    assert np.allclose(out, expected, atol=1)


def test_requantize_clamps():
    out = requantize(np.array([10**7, -(10**7)]), (1 << 30), 0, 0)
    assert out[0] == 127 and out[1] == -128


def test_quant_params_roundtrip():
    params = QuantParams(scale=0.05, zero_point=-10)
    values = np.array([-1.0, 0.0, 2.5])
    q = params.quantize(values)
    back = params.dequantize(q)
    assert np.allclose(back, values, atol=params.scale)


def test_choose_quant_params_zero_exactly_representable():
    params = choose_quant_params(-3.0, 5.0)
    assert np.isclose(params.dequantize(params.zero_point), 0.0)
    params = choose_quant_params(0.5, 5.0)  # min nudged to include zero
    assert params.zero_point == -128
