"""Two-pass quantized model builder.

Each layer method builds its part of the graph at once: tensor names,
shapes and dtypes, and the operator's structural options (stride,
padding, kernel, MACs ...), which is all a cost model reads.  It also
records the layer's numeric step.  The built model runs those steps
once, in layer order, the first time anything reads a number: a
tensor's ``quant``, ``data`` or ``channel_scales``, or an operator's
``params`` (see :class:`~repro.tflm.model.NumericPass`).  This mirrors
TFLM's split between the flatbuffer graph and Prepare.

The numeric pass calibrates itself.  A deterministic sample activation
is propagated through every layer; each layer's output quantization is
calibrated from the sample's accumulator range, exactly like
post-training quantization calibrates from representative data.
Requantizing those same accumulators gives the sample's output, so each
layer is accumulated once.  All requantization multipliers are frozen
into the operator parameters (the TFLM Prepare step), so interpretation
is integer-only.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .model import Model, NumericPass, Operator
from .ops import conv as conv_ops
from .ops import dense as dense_ops
from .ops import depthwise as dw_ops
from .ops import elementwise as ew_ops
from .quantize import (
    QuantParams,
    output_multipliers,
    quantize_multiplier,
    requantize,
)
from .tensor import Tensor


def _pair(value):
    return (value, value) if isinstance(value, int) else value


class ModelBuilder:
    """Incremental builder; ``tip`` tracks the most recent activation.

    ``samples`` maps tensor names to the calibration sample's int8
    values; the numeric pass fills it.
    """

    def __init__(self, name, seed=0):
        self.name = name
        self.seed = seed
        self.tensors = {}
        self.operators = []
        self.samples = {}       # tensor name -> int8 sample data
        self.tip = None         # name of the current activation tensor
        self.input_names = []
        self._counter = 0
        self._numbers = NumericPass()

    # --- graph ---------------------------------------------------------------------
    def _seed(self):
        """Seed of the next layer that draws random numbers (the input and
        each weighted layer), from its position among them."""
        self._counter += 1
        return self.seed * 7919 + self._counter

    def _unique(self, prefix):
        return f"{prefix}_{len(self.operators)}"

    def _add_tensor(self, name, shape, dtype=np.int8, is_constant=False):
        if name in self.tensors:
            raise ValueError(f"duplicate tensor {name}")
        tensor = Tensor(name, shape, dtype, is_constant=is_constant,
                        numbers=self._numbers)
        self.tensors[name] = tensor
        return tensor

    def _add_op(self, opcode, op_name, inputs, out_shape, options, step,
                *args):
        """Add the operator and its output tensor; the numeric pass runs
        ``step(op, *args)``."""
        out = self._add_tensor(f"{op_name}_out", out_shape)
        op = Operator(opcode, op_name, inputs, [out.name], options=options,
                      numbers=self._numbers)
        self.operators.append(op)
        self._numbers.record(partial(step, op, *args))
        self.tip = out.name
        return self

    def _add_weighted(self, opcode, op_name, weights_name, weights_shape,
                      out_shape, options, fan_in, bias_bound, relu):
        weights = self._add_tensor(f"{op_name}_{weights_name}", weights_shape,
                                   np.int8, is_constant=True)
        bias = self._add_tensor(f"{op_name}_bias", out_shape[-1:], np.int32,
                                is_constant=True)
        return self._add_op(opcode, op_name, [self.tip, weights.name, bias.name],
                            out_shape, options, self._weighted_numbers,
                            self._seed(), fan_in, bias_bound, relu)

    def _tip_tensor(self):
        return self.tensors[self.tip]

    # --- layers --------------------------------------------------------------------
    def input(self, shape, scale=1.0 / 128, zero_point=0, name="input"):
        tensor = self._add_tensor(name, shape)
        self._numbers.record(partial(self._input_numbers, tensor, self._seed(),
                                     QuantParams(scale, zero_point)))
        self.input_names.append(name)
        self.tip = name
        return self

    def conv2d(self, out_channels, kernel, stride=(1, 1), padding="same",
               relu=True, name=None):
        kernel, stride = _pair(kernel), _pair(stride)
        in_shape = self._tip_tensor().shape
        n, h, w, in_ch = in_shape
        filters_shape = (out_channels, *kernel, in_ch)
        options = {
            "stride": stride, "padding": padding, "kernel": kernel,
            "macs": conv_ops.conv2d_macs(in_shape, filters_shape, stride,
                                         padding),
        }
        fan_in = kernel[0] * kernel[1] * in_ch
        return self._add_weighted(
            "CONV_2D", name or self._unique("conv2d"), "filters",
            filters_shape,
            (n, *conv_ops.output_hw((h, w), kernel, stride, padding),
             out_channels),
            options, fan_in, fan_in * 4, relu)

    def depthwise_conv2d(self, kernel=(3, 3), stride=(1, 1), padding="same",
                         depth_multiplier=1, relu=True, name=None):
        kernel, stride = _pair(kernel), _pair(stride)
        in_shape = self._tip_tensor().shape
        n, h, w, in_ch = in_shape
        out_ch = in_ch * depth_multiplier
        filters_shape = (1, *kernel, out_ch)
        options = {
            "stride": stride, "padding": padding, "kernel": kernel,
            "depth_multiplier": depth_multiplier,
            "macs": dw_ops.depthwise_macs(in_shape, filters_shape, stride,
                                          padding),
        }
        fan_in = kernel[0] * kernel[1]
        return self._add_weighted(
            "DEPTHWISE_CONV_2D", name or self._unique("dwconv"), "filters",
            filters_shape,
            (n, *conv_ops.output_hw((h, w), kernel, stride, padding), out_ch),
            options, fan_in, fan_in * 4, relu)

    def fully_connected(self, units, relu=False, name=None):
        in_tensor = self._tip_tensor()
        batch = in_tensor.shape[0]
        in_features = in_tensor.num_elements // batch
        options = {"macs": dense_ops.fully_connected_macs(
            (batch, in_features), (units, in_features))}
        return self._add_weighted(
            "FULLY_CONNECTED", name or self._unique("fc"), "weights",
            (units, in_features), (batch, units), options, in_features,
            in_features, relu)

    def _pool(self, opcode, prefix, pool_size, stride, padding, name):
        n, h, w, c = self._tip_tensor().shape
        pool_size = _pair(pool_size)
        stride = _pair(stride or pool_size)
        options = {"pool_size": pool_size, "stride": stride,
                   "padding": padding, "macs": 0}
        out_shape = (n, *conv_ops.output_hw((h, w), pool_size, stride,
                                            padding), c)
        return self._add_op(opcode, name or self._unique(prefix), [self.tip],
                            out_shape, options, self._same_scale_numbers)

    def average_pool(self, pool_size=None, stride=None, padding="valid",
                     name=None):
        if pool_size is None:  # global average pool
            pool_size = self._tip_tensor().shape[1:3]
        return self._pool("AVERAGE_POOL_2D", "avgpool", pool_size, stride,
                          padding, name)

    def max_pool(self, pool_size, stride=None, padding="valid", name=None):
        return self._pool("MAX_POOL_2D", "maxpool", pool_size, stride,
                          padding, name)

    def add(self, other_name, relu=False, name=None):
        """Residual add of the current tip with an earlier tensor."""
        shape = self._tip_tensor().shape
        other_shape = self.tensors[other_name].shape
        if shape != other_shape:
            raise ValueError(f"ADD shape mismatch {shape} vs {other_shape}")
        return self._add_op("ADD", name or self._unique("add"),
                            [self.tip, other_name], shape, {"macs": 0},
                            self._add_numbers, relu)

    def reshape(self, new_shape, name=None):
        new_shape = tuple(new_shape)
        in_shape = self._tip_tensor().shape
        if math.prod(new_shape) != math.prod(in_shape):
            raise ValueError(f"cannot reshape {in_shape} to {new_shape}")
        return self._add_op("RESHAPE", name or self._unique("reshape"),
                            [self.tip], new_shape,
                            {"new_shape": new_shape, "macs": 0},
                            self._same_scale_numbers)

    def softmax(self, name=None):
        return self._add_op("SOFTMAX", name or self._unique("softmax"),
                            [self.tip], self._tip_tensor().shape, {"macs": 0},
                            self._softmax_numbers)

    def mean_hw(self, name=None):
        """Global spatial MEAN (keepdims), as MobileNetV2 uses pre-classifier."""
        n, _, _, c = self._tip_tensor().shape
        return self._add_op("MEAN", name or self._unique("mean"), [self.tip],
                            (n, 1, 1, c), {"axes": (1, 2), "macs": 0},
                            self._same_scale_numbers)

    # --- numeric pass ----------------------------------------------------------------
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

    def _input_numbers(self, tensor, seed, quant):
        rng = np.random.default_rng(seed)
        self.samples[tensor.name] = rng.integers(
            -128, 128, size=tensor.shape, dtype=np.int64).astype(np.int8)
        tensor.set_numbers(quant)

    def _weighted_numbers(self, op, seed, fan_in, bias_bound, relu):
        """Draw the layer's weights and bias, calibrate its output from one
        accumulate of the sample, and freeze its requantization."""
        in_tensor, weights_t, bias_t = (self.tensors[n] for n in op.inputs)
        out_tensor = self.tensors[op.outputs[0]]
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, size=weights_t.shape).astype(np.int8)
        w_scale = 1.0 / (127.0 * np.sqrt(fan_in))
        bias = rng.integers(-bias_bound, bias_bound,
                            size=bias_t.shape).astype(np.int64)
        bias_t.set_numbers(QuantParams(1.0, 0), data=bias)

        sample_in = self.samples[op.inputs[0]]
        in_quant, options = in_tensor.quant, op.options
        if op.opcode == "FULLY_CONNECTED":
            weights_t.set_numbers(QuantParams(w_scale, 0), data=weights)
            scales = w_scale
            acc = dense_ops.fully_connected_accumulate(
                sample_in, in_quant.zero_point, weights)
        else:
            scales = np.full(out_tensor.shape[-1], w_scale)
            weights_t.set_numbers(QuantParams(1.0, 0), scales, weights)
            if op.opcode == "CONV_2D":
                acc = conv_ops.conv2d_accumulate(
                    sample_in, in_quant.zero_point, weights,
                    options["stride"], options["padding"])
            else:
                acc = dw_ops.depthwise_accumulate(
                    sample_in, in_quant.zero_point, weights,
                    options["stride"], options["padding"],
                    options["depth_multiplier"])
        acc += bias
        out_quant = self._calibrate_accumulators(
            acc, in_quant.scale * scales, relu)
        if op.opcode == "FULLY_CONNECTED":
            mult, shift = quantize_multiplier(
                in_quant.scale * w_scale / out_quant.scale)
            prepared = {"out_multiplier": mult, "out_shift": shift}
        else:
            mult, shift = output_multipliers(in_quant.scale, scales,
                                             out_quant.scale)
            prepared = {"out_multipliers": mult, "out_shifts": shift}
        act_min = out_quant.zero_point if relu else -128
        op.params = {**options, **prepared, "activation_min": act_min,
                     "activation_max": 127}
        out_tensor.set_numbers(out_quant)
        self.samples[out_tensor.name] = requantize(
            acc, mult, shift, out_quant.zero_point, act_min, 127)

    def _run_reference(self, op, out_quant, prepared=None):
        """Freeze ``op``'s parameters and run its reference kernel on the
        sample (the kernels of the unweighted ops read only ``op``)."""
        # Imported here so that a process which never prepares a model
        # never loads the interpreter.
        from .interpreter import reference_registry

        op.params = {**op.options, **(prepared or {})}
        self.tensors[op.outputs[0]].set_numbers(out_quant)
        kernel = reference_registry().lookup(op.opcode)
        self.samples[op.outputs[0]] = kernel(
            op, [self.samples[name] for name in op.inputs], None)

    def _same_scale_numbers(self, op):
        """Pooling, RESHAPE and MEAN keep their input's quantization."""
        self._run_reference(op, self.tensors[op.inputs[0]].quant)

    def _add_numbers(self, op, relu):
        in1, in2 = (self.tensors[name].quant for name in op.inputs)
        s1, s2 = (self.samples[name] for name in op.inputs)
        real = in1.dequantize(s1) + in2.dequantize(s2)
        out_quant = self._calibrate_output(float(real.min()),
                                           float(real.max()), relu)
        prepared = ew_ops.add_parameters(
            in1.scale, in1.zero_point, in2.scale, in2.zero_point,
            out_quant.scale, out_quant.zero_point,
        )
        prepared.update(activation_min=out_quant.zero_point if relu else -128,
                        activation_max=127)
        self._run_reference(op, out_quant, prepared)

    def _softmax_numbers(self, op):
        in_scale = self.tensors[op.inputs[0]].quant.scale
        self._run_reference(op, QuantParams(1.0 / 256, -128),
                            {"input_scale": in_scale})

    # --- finalization -----------------------------------------------------------------
    def build(self):
        """The model over the graph built so far; its numbers come on
        first read."""
        return Model(
            name=self.name,
            tensors=self.tensors,
            operators=self.operators,
            input_names=self.input_names,
            output_names=[self.tip],
            numbers=self._numbers,
        )
