"""Reference kernel tests against naive oracles and float references."""

import numpy as np
import pytest

from repro.tflm.ops.conv import conv2d_accumulate, conv2d_macs, conv2d_reference, pad_input
from repro.tflm.ops.dense import fully_connected_accumulate
from repro.tflm.ops.depthwise import depthwise_accumulate, depthwise_macs
from repro.tflm.ops.elementwise import add_parameters, add_reference
from repro.tflm.ops.gemm import EXACT_BOUND, int_matmul
from repro.tflm.ops.misc import mean_reference, pad_reference, softmax_reference
from repro.tflm.ops.pooling import average_pool_reference, max_pool_reference

rng = np.random.default_rng(1234)


def naive_conv_acc(data, zp, filters, stride, padding):
    """Quadruple-loop oracle for conv2d_accumulate."""
    out_ch, kh, kw, in_ch = filters.shape
    padded, (oh, ow) = pad_input(data, (kh, kw), stride, padding, zp)
    n = data.shape[0]
    acc = np.zeros((n, oh, ow, out_ch), dtype=np.int64)
    for b in range(n):
        for y in range(oh):
            for x in range(ow):
                for oc in range(out_ch):
                    total = 0
                    for ky in range(kh):
                        for kx in range(kw):
                            for ic in range(in_ch):
                                iv = int(padded[b, y * stride[0] + ky,
                                                x * stride[1] + kx, ic]) - zp
                                total += iv * int(filters[oc, ky, kx, ic])
                    acc[b, y, x, oc] = total
    return acc


@pytest.mark.parametrize("stride,padding,kernel", [
    ((1, 1), "same", (3, 3)),
    ((2, 2), "same", (3, 3)),
    ((1, 1), "valid", (1, 1)),
    ((2, 1), "same", (2, 4)),
])
def test_conv_accumulate_matches_naive(stride, padding, kernel):
    data = rng.integers(-128, 128, size=(1, 6, 5, 3)).astype(np.int8)
    filters = rng.integers(-127, 128, size=(4, *kernel, 3)).astype(np.int8)
    fast = conv2d_accumulate(data, -5, filters, stride, padding)
    slow = naive_conv_acc(data, -5, filters, stride, padding)
    assert np.array_equal(fast, slow)


def test_depthwise_accumulate_matches_naive():
    data = rng.integers(-128, 128, size=(1, 5, 5, 3)).astype(np.int8)
    filters = rng.integers(-127, 128, size=(1, 3, 3, 3)).astype(np.int8)
    acc = depthwise_accumulate(data, 2, filters, (1, 1), "same")
    # depthwise == grouped conv: check channel 1 against a 1-channel conv
    single = conv2d_accumulate(
        data[..., 1:2], 2, filters[:, :, :, 1:2].transpose(0, 1, 2, 3),
        (1, 1), "same",
    )
    assert np.array_equal(acc[..., 1], single[..., 0])


def test_depthwise_multiplier_2():
    data = rng.integers(-128, 128, size=(1, 4, 4, 2)).astype(np.int8)
    filters = rng.integers(-127, 128, size=(1, 3, 3, 4)).astype(np.int8)
    acc = depthwise_accumulate(data, 0, filters, (1, 1), "same",
                               depth_multiplier=2)
    assert acc.shape == (1, 4, 4, 4)
    # Output channel 2 convolves input channel 1 with filter plane 2.
    single = conv2d_accumulate(data[..., 1:2], 0, filters[:, :, :, 2:3],
                               (1, 1), "same")
    assert np.array_equal(acc[..., 2], single[..., 0])


def test_conv_reference_quantization_tracks_float():
    """End-to-end int8 conv should track the float computation within
    a small multiple of the output scale."""
    in_scale, w_scale = 0.02, 0.005
    data = rng.integers(-128, 128, size=(1, 8, 8, 4)).astype(np.int8)
    filters = rng.integers(-127, 128, size=(8, 3, 3, 4)).astype(np.int8)
    bias = rng.integers(-100, 100, size=8).astype(np.int64)
    acc = conv2d_accumulate(data, 0, filters, (1, 1), "same") + bias
    out_scale = float(np.abs(acc).max()) * in_scale * w_scale / 120
    from repro.tflm.quantize import output_multipliers

    mults, shifts = output_multipliers(in_scale, [w_scale] * 8, out_scale)
    out = conv2d_reference(data, 0, filters, bias, (1, 1), "same",
                           mults, shifts, 0)
    float_out = acc * (in_scale * w_scale) / out_scale
    assert np.abs(out - np.clip(np.round(float_out), -128, 127)).max() <= 1


def test_fully_connected_matches_matmul():
    data = rng.integers(-128, 128, size=(2, 10)).astype(np.int8)
    weights = rng.integers(-127, 128, size=(4, 10)).astype(np.int8)
    acc = fully_connected_accumulate(data, 3, weights)
    expected = (data.astype(np.int64) - 3) @ weights.T.astype(np.int64)
    assert np.array_equal(acc, expected)


@pytest.mark.parametrize("fan_in", [1, 9, 960, 16_384])
def test_int_matmul_is_exact_at_the_int8_extremes(fan_in):
    """Centred int8 inputs (-128 and 127 less zero points of -128 and
    127) against filters of -128, -127 and 127, plus random rows and
    columns, equal the int64 product."""
    local = np.random.default_rng(fan_in)
    extremes = [x - zp for x in (-128, 127) for zp in (-128, 127)]
    rows = np.array([[v] * fan_in for v in extremes]
                    + [local.integers(-255, 256, size=fan_in)], dtype=np.int64)
    cols = np.array([[w] * fan_in for w in (-128, -127, 127)]
                    + [local.integers(-128, 128, size=fan_in)],
                    dtype=np.int8).T
    got = int_matmul(rows, cols)
    assert got.dtype == np.int64
    assert np.array_equal(got, rows @ cols.astype(np.int64))


def test_int_matmul_raises_outside_the_exactness_bound():
    half = np.full((1, 2), 1 << 26, dtype=np.int64)
    assert int_matmul(half, -half.T)[0, 0] == -EXACT_BOUND  # at the bound
    with pytest.raises(OverflowError):
        int_matmul(half + 1, half.T)
    with pytest.raises(OverflowError):
        int_matmul(half, -(half.T + 1))
    with pytest.raises(TypeError):
        int_matmul(half.astype(np.float64), half.T)


def test_average_pool_rounding():
    data = np.array([[[[1], [2]], [[2], [2]]]], dtype=np.int8)
    out = average_pool_reference(data, (2, 2), (2, 2))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 2  # (1+2+2+2)/4 = 1.75 -> 2


def test_average_pool_negative_rounding():
    data = np.full((1, 2, 2, 1), -3, dtype=np.int8)
    out = average_pool_reference(data, (2, 2), (2, 2))
    assert out[0, 0, 0, 0] == -3


def test_max_pool():
    data = rng.integers(-128, 128, size=(1, 4, 4, 2)).astype(np.int8)
    out = max_pool_reference(data, (2, 2), (2, 2))
    assert out[0, 0, 0, 0] == data[0, 0:2, 0:2, 0].max()


def test_add_matches_float():
    s1, s2, so = 0.1, 0.15, 0.2
    a = rng.integers(-100, 100, size=(1, 16)).astype(np.int8)
    b = rng.integers(-100, 100, size=(1, 16)).astype(np.int8)
    params = add_parameters(s1, 2, s2, -3, so, 1)
    params.update({"activation_min": -128, "activation_max": 127})
    out = add_reference(a, b, params)
    real = (a.astype(float) - 2) * s1 + (b.astype(float) + 3) * s2
    expected = np.clip(np.round(real / so) + 1, -128, 127)
    assert np.abs(out - expected).max() <= 1


def test_softmax_properties():
    logits = rng.integers(-128, 128, size=(1, 10)).astype(np.int8)
    out = softmax_reference(logits, input_scale=0.1)
    probs = (out.astype(np.int64) + 128) / 256.0
    assert abs(probs.sum() - 1.0) < 0.05
    assert out.argmax() == logits.argmax()


def test_pad_uses_zero_point():
    data = np.ones((1, 2, 2, 1), dtype=np.int8)
    out = pad_reference(data, [(0, 0), (1, 1), (1, 1), (0, 0)], pad_value=-7)
    assert out.shape == (1, 4, 4, 1)
    assert out[0, 0, 0, 0] == -7
    assert out[0, 1, 1, 0] == 1


def test_mean_reference():
    data = rng.integers(-128, 128, size=(1, 3, 3, 4)).astype(np.int8)
    out = mean_reference(data, (1, 2))
    assert out.shape == (1, 1, 1, 4)
    expected = data.astype(np.float64).mean(axis=(1, 2))
    assert np.abs(out[0, 0, 0] - expected[0]).max() <= 0.51


def test_mac_counting():
    assert conv2d_macs((1, 8, 8, 4), (8, 1, 1, 4), (1, 1), "same") == 8 * 8 * 8 * 4
    assert conv2d_macs((1, 8, 8, 4), (8, 3, 3, 4), (2, 2), "same") == 4 * 4 * 8 * 36
    assert depthwise_macs((1, 8, 8, 4), (1, 3, 3, 4), (1, 1), "same") == 8 * 8 * 4 * 9
