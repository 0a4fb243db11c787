"""MobileNetV2 — the image-classification workload of Section III-A.

Standard MobileNetV2 topology (Sandler et al.) at a configurable input
resolution and width multiplier.  The paper deploys an int8-quantized
MNV2 on the Arty A7-35T; at 96x96 input the op mix matches the profile
the paper reports: 1x1 CONV_2D dominates, followed by depthwise and the
lone 3x3 convolution.
"""

from __future__ import annotations

from ..tflm.builder import ModelBuilder

# (expansion t, output channels c, repeats n, first stride s)
_INVERTED_RESIDUAL_SETTINGS = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def _round_channels(channels, width_multiplier, divisor=8):
    channels = channels * width_multiplier
    rounded = max(divisor, int(channels + divisor / 2) // divisor * divisor)
    if rounded < 0.9 * channels:
        rounded += divisor
    return rounded


def build_mobilenet_v2(input_size=96, width_multiplier=1.0, num_classes=1000,
                       seed=42):
    """Build an int8 MobileNetV2 with deterministic synthetic weights."""
    b = ModelBuilder(f"mobilenet_v2_{width_multiplier}_{input_size}", seed=seed)
    b.input((1, input_size, input_size, 3))

    first_ch = _round_channels(32, width_multiplier)
    b.conv2d(first_ch, 3, stride=2, name="conv_first_3x3")

    block = 0
    in_ch = first_ch
    for t, c, n, s in _INVERTED_RESIDUAL_SETTINGS:
        out_ch = _round_channels(c, width_multiplier)
        for repeat in range(n):
            stride = s if repeat == 0 else 1
            block_in_name = b.tip
            if t != 1:
                b.conv2d(in_ch * t, 1, name=f"block{block}_expand_1x1")
            b.depthwise_conv2d((3, 3), stride=stride,
                               name=f"block{block}_dw_3x3")
            b.conv2d(out_ch, 1, relu=False, name=f"block{block}_project_1x1")
            if stride == 1 and in_ch == out_ch:
                b.add(block_in_name, name=f"block{block}_residual")
            in_ch = out_ch
            block += 1

    last_ch = _round_channels(1280, max(1.0, width_multiplier))
    b.conv2d(last_ch, 1, name="conv_last_1x1")
    b.mean_hw(name="global_pool")
    b.reshape((1, last_ch), name="flatten")
    b.fully_connected(num_classes, name="classifier")
    b.softmax(name="softmax")
    return b.build()


def conv_1x1_ops(model):
    """The operators Section III-A's ladder accelerates: 1x1 CONV_2D."""
    return [
        op for op in model.operators
        if op.opcode == "CONV_2D" and op.options.get("kernel") == (1, 1)
    ]
