"""Self-calibrating quantized model builder.

Builds int8 models layer by layer.  A deterministic sample activation is
propagated through every layer as it is added; each layer's output
quantization is calibrated from the sample's accumulator range, exactly
like post-training quantization calibrates from representative data.
Requantizing those same accumulators gives the sample's output, so each
layer is accumulated once.  All requantization multipliers are frozen
into the operator parameters (the TFLM Prepare step), so interpretation
is integer-only.
"""

from __future__ import annotations

import numpy as np

from .model import Model, Operator
from .ops import conv as conv_ops
from .ops import dense as dense_ops
from .ops import depthwise as dw_ops
from .ops import elementwise as ew_ops
from .ops import misc as misc_ops
from .ops import pooling as pool_ops
from .quantize import (
    QuantParams,
    output_multipliers,
    quantize_multiplier,
    requantize,
)
from .tensor import Tensor


class ModelBuilder:
    """Incremental builder; ``tip`` tracks the most recent activation."""

    def __init__(self, name, seed=0):
        self.name = name
        self.seed = seed
        self.tensors = {}
        self.operators = []
        self.samples = {}       # tensor name -> int8 sample data
        self.tip = None         # name of the current activation tensor
        self.input_names = []
        self._counter = 0

    # --- internals ---------------------------------------------------------------
    def _rng(self):
        self._counter += 1
        return np.random.default_rng(self.seed * 7919 + self._counter)

    def _unique(self, prefix):
        return f"{prefix}_{len(self.operators)}"

    def _add_tensor(self, tensor, sample=None):
        if tensor.name in self.tensors:
            raise ValueError(f"duplicate tensor {tensor.name}")
        self.tensors[tensor.name] = tensor
        if sample is not None:
            self.samples[tensor.name] = sample
        return tensor

    def _const(self, name, data, dtype, quant=None, channel_scales=None):
        tensor = Tensor(
            name=name, shape=data.shape, dtype=dtype,
            quant=quant or QuantParams(1.0, 0),
            channel_scales=channel_scales, data=data, is_constant=True,
        )
        return self._add_tensor(tensor)

    def _calibrate_output(self, real_min, real_max, relu):
        """Choose output quantization from the sample's real-valued range."""
        max_abs = max(-real_min, real_max) or 1.0
        if relu:
            # Post-ReLU range is [0, max]; use the full int8 span.
            scale = max(real_max, 1e-6) / 255.0
            zero_point = -128
        else:
            scale = max_abs / 127.0
            zero_point = 0
        return QuantParams(scale=scale, zero_point=zero_point)

    def _calibrate_accumulators(self, acc, scales, relu):
        """Output quantization of bias-added accumulators ``acc`` whose
        real values are ``acc * scales`` (per channel, last axis).

        Converting an integer to float64, multiplying by a positive
        scale and rounding the product are all monotone, so the extremes
        of the real values are exactly each channel's integer max/min
        times its scale: no float64 plane of the accumulators is needed.
        """
        channels = acc.reshape(-1, acc.shape[-1])
        real_max = float((channels.max(axis=0) * scales).max())
        real_min = float((channels.min(axis=0) * scales).min())
        return self._calibrate_output(real_min, real_max, relu)

    def _finish_op(self, opcode, op_name, inputs, out_tensor, params, sample):
        self._add_tensor(out_tensor, sample)
        self.operators.append(Operator(
            opcode=opcode, name=op_name, inputs=inputs,
            outputs=[out_tensor.name], params=params,
        ))
        self.tip = out_tensor.name
        return self

    def _tip_tensor(self):
        return self.tensors[self.tip]

    # --- layers --------------------------------------------------------------------
    def input(self, shape, scale=1.0 / 128, zero_point=0, name="input"):
        rng = self._rng()
        sample = rng.integers(-128, 128, size=shape, dtype=np.int64).astype(np.int8)
        tensor = Tensor(name=name, shape=shape, quant=QuantParams(scale, zero_point))
        self._add_tensor(tensor, sample)
        self.input_names.append(name)
        self.tip = name
        return self

    def conv2d(self, out_channels, kernel, stride=(1, 1), padding="same",
               relu=True, name=None):
        if isinstance(kernel, int):
            kernel = (kernel, kernel)
        if isinstance(stride, int):
            stride = (stride, stride)
        in_tensor = self._tip_tensor()
        in_ch = in_tensor.shape[-1]
        rng = self._rng()
        op_name = name or self._unique("conv2d")

        fan_in = kernel[0] * kernel[1] * in_ch
        filters = rng.integers(-127, 128,
                               size=(out_channels, *kernel, in_ch)).astype(np.int8)
        w_scale = 1.0 / (127.0 * np.sqrt(fan_in))
        channel_scales = np.full(out_channels, w_scale)
        weights_t = self._const(f"{op_name}_filters", filters, np.int8,
                                channel_scales=channel_scales)
        bias = rng.integers(-fan_in * 4, fan_in * 4, size=out_channels)
        bias = bias.astype(np.int64)
        bias_t = self._const(f"{op_name}_bias", bias, np.int32)

        sample_in = self.samples[self.tip]
        acc = conv_ops.conv2d_accumulate(
            sample_in, in_tensor.quant.zero_point, filters, stride, padding
        )
        acc += bias
        out_quant = self._calibrate_accumulators(
            acc, in_tensor.quant.scale * channel_scales, relu)
        mults, shifts = output_multipliers(
            in_tensor.quant.scale, channel_scales, out_quant.scale
        )
        act_min = out_quant.zero_point if relu else -128
        params = {
            "stride": stride, "padding": padding,
            "out_multipliers": mults, "out_shifts": shifts,
            "activation_min": act_min, "activation_max": 127,
            "macs": conv_ops.conv2d_macs(in_tensor.shape, filters.shape,
                                         stride, padding),
            "kernel": kernel,
        }
        sample_out = requantize(acc, mults, shifts, out_quant.zero_point,
                                act_min, 127)
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=out_quant)
        return self._finish_op(
            "CONV_2D", op_name,
            [self.tip, weights_t.name, bias_t.name],
            out_tensor, params, sample_out,
        )

    def depthwise_conv2d(self, kernel=(3, 3), stride=(1, 1), padding="same",
                         depth_multiplier=1, relu=True, name=None):
        if isinstance(kernel, int):
            kernel = (kernel, kernel)
        if isinstance(stride, int):
            stride = (stride, stride)
        in_tensor = self._tip_tensor()
        in_ch = in_tensor.shape[-1]
        out_ch = in_ch * depth_multiplier
        rng = self._rng()
        op_name = name or self._unique("dwconv")

        fan_in = kernel[0] * kernel[1]
        filters = rng.integers(-127, 128,
                               size=(1, *kernel, out_ch)).astype(np.int8)
        w_scale = 1.0 / (127.0 * np.sqrt(fan_in))
        channel_scales = np.full(out_ch, w_scale)
        weights_t = self._const(f"{op_name}_filters", filters, np.int8,
                                channel_scales=channel_scales)
        bias = rng.integers(-fan_in * 4, fan_in * 4, size=out_ch).astype(np.int64)
        bias_t = self._const(f"{op_name}_bias", bias, np.int32)

        sample_in = self.samples[self.tip]
        acc = dw_ops.depthwise_accumulate(
            sample_in, in_tensor.quant.zero_point, filters, stride, padding,
            depth_multiplier,
        )
        acc += bias
        out_quant = self._calibrate_accumulators(
            acc, in_tensor.quant.scale * channel_scales, relu)
        mults, shifts = output_multipliers(
            in_tensor.quant.scale, channel_scales, out_quant.scale
        )
        act_min = out_quant.zero_point if relu else -128
        params = {
            "stride": stride, "padding": padding,
            "depth_multiplier": depth_multiplier,
            "out_multipliers": mults, "out_shifts": shifts,
            "activation_min": act_min, "activation_max": 127,
            "macs": dw_ops.depthwise_macs(in_tensor.shape, filters.shape,
                                          stride, padding),
            "kernel": kernel,
        }
        sample_out = requantize(acc, mults, shifts, out_quant.zero_point,
                                act_min, 127)
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=out_quant)
        return self._finish_op(
            "DEPTHWISE_CONV_2D", op_name,
            [self.tip, weights_t.name, bias_t.name],
            out_tensor, params, sample_out,
        )

    def fully_connected(self, units, relu=False, name=None):
        in_tensor = self._tip_tensor()
        in_features = in_tensor.num_elements // in_tensor.shape[0]
        rng = self._rng()
        op_name = name or self._unique("fc")

        weights = rng.integers(-127, 128, size=(units, in_features)).astype(np.int8)
        w_scale = 1.0 / (127.0 * np.sqrt(in_features))
        weights_t = self._const(
            f"{op_name}_weights", weights, np.int8,
            quant=QuantParams(w_scale, 0),
        )
        bias = rng.integers(-in_features, in_features, size=units).astype(np.int64)
        bias_t = self._const(f"{op_name}_bias", bias, np.int32)

        sample_in = self.samples[self.tip]
        acc = dense_ops.fully_connected_accumulate(
            sample_in, in_tensor.quant.zero_point, weights
        )
        acc += bias
        out_quant = self._calibrate_accumulators(
            acc, in_tensor.quant.scale * w_scale, relu)
        mult, shift = quantize_multiplier(
            in_tensor.quant.scale * w_scale / out_quant.scale
        )
        act_min = out_quant.zero_point if relu else -128
        params = {
            "out_multiplier": mult, "out_shift": shift,
            "activation_min": act_min, "activation_max": 127,
            "macs": dense_ops.fully_connected_macs(
                (in_tensor.shape[0], in_features), weights.shape
            ),
        }
        sample_out = requantize(acc, mult, shift, out_quant.zero_point,
                                act_min, 127)
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=out_quant)
        return self._finish_op(
            "FULLY_CONNECTED", op_name,
            [self.tip, weights_t.name, bias_t.name],
            out_tensor, params, sample_out,
        )

    def average_pool(self, pool_size=None, stride=None, padding="valid",
                     name=None):
        in_tensor = self._tip_tensor()
        if pool_size is None:  # global average pool
            pool_size = (in_tensor.shape[1], in_tensor.shape[2])
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        stride = stride or pool_size
        if isinstance(stride, int):
            stride = (stride, stride)
        op_name = name or self._unique("avgpool")
        sample_out = pool_ops.average_pool_reference(
            self.samples[self.tip], pool_size, stride, padding
        )
        params = {"pool_size": pool_size, "stride": stride, "padding": padding,
                  "macs": 0}
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=in_tensor.quant)
        return self._finish_op("AVERAGE_POOL_2D", op_name, [self.tip],
                               out_tensor, params, sample_out)

    def max_pool(self, pool_size, stride=None, padding="valid", name=None):
        in_tensor = self._tip_tensor()
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        stride = stride or pool_size
        if isinstance(stride, int):
            stride = (stride, stride)
        op_name = name or self._unique("maxpool")
        sample_out = pool_ops.max_pool_reference(
            self.samples[self.tip], pool_size, stride, padding
        )
        params = {"pool_size": pool_size, "stride": stride, "padding": padding,
                  "macs": 0}
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=in_tensor.quant)
        return self._finish_op("MAX_POOL_2D", op_name, [self.tip],
                               out_tensor, params, sample_out)

    def add(self, other_name, relu=False, name=None):
        """Residual add of the current tip with an earlier tensor."""
        in1 = self._tip_tensor()
        in2 = self.tensors[other_name]
        if in1.shape != in2.shape:
            raise ValueError(f"ADD shape mismatch {in1.shape} vs {in2.shape}")
        op_name = name or self._unique("add")
        s1 = self.samples[self.tip]
        s2 = self.samples[other_name]
        real = in1.quant.dequantize(s1) + in2.quant.dequantize(s2)
        out_quant = self._calibrate_output(float(real.min()),
                                           float(real.max()), relu)
        params = ew_ops.add_parameters(
            in1.quant.scale, in1.quant.zero_point,
            in2.quant.scale, in2.quant.zero_point,
            out_quant.scale, out_quant.zero_point,
        )
        act_min = out_quant.zero_point if relu else -128
        params.update({"activation_min": act_min, "activation_max": 127,
                       "macs": 0})
        sample_out = ew_ops.add_reference(s1, s2, params, act_min, 127)
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=out_quant)
        return self._finish_op("ADD", op_name, [self.tip, other_name],
                               out_tensor, params, sample_out)

    def reshape(self, new_shape, name=None):
        in_tensor = self._tip_tensor()
        op_name = name or self._unique("reshape")
        sample_out = misc_ops.reshape_reference(self.samples[self.tip], new_shape)
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=in_tensor.quant)
        return self._finish_op("RESHAPE", op_name, [self.tip], out_tensor,
                               {"new_shape": tuple(new_shape), "macs": 0},
                               sample_out)

    def softmax(self, name=None):
        in_tensor = self._tip_tensor()
        op_name = name or self._unique("softmax")
        sample_out = misc_ops.softmax_reference(
            self.samples[self.tip], in_tensor.quant.scale
        )
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=QuantParams(1.0 / 256, -128))
        return self._finish_op("SOFTMAX", op_name, [self.tip], out_tensor,
                               {"input_scale": in_tensor.quant.scale, "macs": 0},
                               sample_out)

    def mean_hw(self, name=None):
        """Global spatial MEAN (keepdims), as MobileNetV2 uses pre-classifier."""
        in_tensor = self._tip_tensor()
        op_name = name or self._unique("mean")
        sample_out = misc_ops.mean_reference(self.samples[self.tip], (1, 2))
        out_tensor = Tensor(name=f"{op_name}_out", shape=sample_out.shape,
                            quant=in_tensor.quant)
        return self._finish_op("MEAN", op_name, [self.tip], out_tensor,
                               {"axes": (1, 2), "macs": 0}, sample_out)

    # --- finalization -----------------------------------------------------------------
    def build(self):
        return Model(
            name=self.name,
            tensors=self.tensors,
            operators=self.operators,
            input_names=self.input_names,
            output_names=[self.tip],
        )
