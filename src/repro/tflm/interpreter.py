"""The inference interpreter and kernel registry.

Mirrors TFLite Micro's structure: a registry maps opcodes to kernels;
the interpreter walks the operator list resolving tensors.  Replacing a
registry entry is exactly how CFU Playground users provide "an optimized
kernel that uses the new custom instructions" (Section II-D) — see
:mod:`repro.kernels` for the accelerated variants.
"""

from __future__ import annotations

import numpy as np

from .ops import conv as conv_ops
from .ops import dense as dense_ops
from .ops import depthwise as dw_ops
from .ops import elementwise as ew_ops
from .ops import misc as misc_ops
from .ops import pooling as pool_ops


class KernelRegistry:
    """Opcode -> kernel callable(op, input_arrays, model) -> output array."""

    def __init__(self, kernels=None):
        self._kernels = dict(kernels or {})

    def register(self, opcode, kernel):
        self._kernels[opcode] = kernel
        return kernel

    def lookup(self, opcode):
        try:
            return self._kernels[opcode]
        except KeyError:
            raise KeyError(f"no kernel registered for {opcode}") from None

    def copy(self):
        return KernelRegistry(self._kernels)

    def __contains__(self, opcode):
        return opcode in self._kernels


# --- reference kernels ---------------------------------------------------------------

def _conv2d_kernel(op, inputs, model):
    data, filters, bias = inputs
    in_tensor = model.tensor(op.inputs[0])
    out_tensor = model.tensor(op.outputs[0])
    p = op.params
    return conv_ops.conv2d_reference(
        data, in_tensor.quant.zero_point, filters, bias,
        p["stride"], p["padding"], p["out_multipliers"], p["out_shifts"],
        out_tensor.quant.zero_point, p["activation_min"], p["activation_max"],
    )


def _depthwise_kernel(op, inputs, model):
    data, filters, bias = inputs
    in_tensor = model.tensor(op.inputs[0])
    out_tensor = model.tensor(op.outputs[0])
    p = op.params
    return dw_ops.depthwise_reference(
        data, in_tensor.quant.zero_point, filters, bias,
        p["stride"], p["padding"], p["out_multipliers"], p["out_shifts"],
        out_tensor.quant.zero_point, p["depth_multiplier"],
        p["activation_min"], p["activation_max"],
    )


def _fully_connected_kernel(op, inputs, model):
    data, weights, bias = inputs
    in_tensor = model.tensor(op.inputs[0])
    out_tensor = model.tensor(op.outputs[0])
    p = op.params
    return dense_ops.fully_connected_reference(
        data, in_tensor.quant.zero_point, weights, bias,
        p["out_multiplier"], p["out_shift"], out_tensor.quant.zero_point,
        p["activation_min"], p["activation_max"],
    )


def _average_pool_kernel(op, inputs, model):
    p = op.params
    return pool_ops.average_pool_reference(
        inputs[0], p["pool_size"], p["stride"], p["padding"]
    )


def _max_pool_kernel(op, inputs, model):
    p = op.params
    return pool_ops.max_pool_reference(
        inputs[0], p["pool_size"], p["stride"], p["padding"]
    )


def _add_kernel(op, inputs, model):
    p = op.params
    return ew_ops.add_reference(
        inputs[0], inputs[1], p, p["activation_min"], p["activation_max"]
    )


def _reshape_kernel(op, inputs, model):
    return misc_ops.reshape_reference(inputs[0], op.params["new_shape"])


def _softmax_kernel(op, inputs, model):
    return misc_ops.softmax_reference(inputs[0], op.params["input_scale"])


def _mean_kernel(op, inputs, model):
    return misc_ops.mean_reference(inputs[0], op.params["axes"])


def _pad_kernel(op, inputs, model):
    in_tensor = model.tensor(op.inputs[0])
    return misc_ops.pad_reference(
        inputs[0], op.params["paddings"], in_tensor.quant.zero_point
    )


def reference_registry():
    """The stock kernel set — TFLM's reference kernels."""
    return KernelRegistry({
        "CONV_2D": _conv2d_kernel,
        "DEPTHWISE_CONV_2D": _depthwise_kernel,
        "FULLY_CONNECTED": _fully_connected_kernel,
        "AVERAGE_POOL_2D": _average_pool_kernel,
        "MAX_POOL_2D": _max_pool_kernel,
        "ADD": _add_kernel,
        "RESHAPE": _reshape_kernel,
        "SOFTMAX": _softmax_kernel,
        "MEAN": _mean_kernel,
        "PAD": _pad_kernel,
    })


def metrics_listener(telemetry, estimate=None, **labels):
    """Build an interpreter listener that feeds per-operator metrics.

    Counts invocations and output elements per operator into
    ``telemetry`` (a :class:`~repro.core.telemetry.Telemetry`).  With
    ``estimate`` (an :class:`~repro.perf.estimator.InferenceEstimate`)
    each invocation also charges the operator's estimated cycles, giving
    the same per-operator cycle view the paper's on-board profiler
    prints — but as labelled counter series.
    """
    cycles_by_op = {}
    if estimate is not None:
        for cost in estimate.op_costs:
            cycles_by_op[cost.op_name] = cost.cycles

    def listener(op, inputs, output):
        telemetry.counter("tflm_op_invocations", op=op.name,
                          opcode=op.opcode, **labels).inc()
        telemetry.counter("tflm_output_elements", op=op.name,
                          opcode=op.opcode, **labels).add(int(output.size))
        cycles = cycles_by_op.get(op.name)
        if cycles is not None:
            telemetry.counter("tflm_op_cycles", op=op.name,
                              opcode=op.opcode, **labels).add(int(cycles))

    return listener


class Interpreter:
    """Runs a model graph with a given kernel registry.

    ``listeners`` are called as ``listener(op, inputs, output)`` after
    every operator — the hook the profiler and the performance machine
    attach to.
    """

    def __init__(self, model, registry=None, listeners=()):
        self.model = model
        self.registry = registry or reference_registry()
        self.listeners = list(listeners)
        for op in model.operators:
            if op.opcode not in self.registry:
                raise KeyError(f"model needs kernel {op.opcode}")

    def invoke(self, input_array):
        """Run one inference; returns the output array."""
        model = self.model
        input_tensor = model.input
        input_array = np.asarray(input_array, dtype=input_tensor.dtype)
        if input_array.shape != input_tensor.shape:
            raise ValueError(
                f"input shape {input_array.shape} != {input_tensor.shape}"
            )
        activations = {model.input_names[0]: input_array}

        def resolve(name):
            tensor = model.tensor(name)
            if tensor.is_constant:
                return tensor.data
            return activations[name]

        for op in model.operators:
            inputs = [resolve(name) for name in op.inputs]
            kernel = self.registry.lookup(op.opcode)
            output = kernel(op, inputs, model)
            activations[op.outputs[0]] = output
            for listener in self.listeners:
                listener(op, inputs, output)
        return activations[model.output_names[0]]
