"""Tensors and their quantization metadata."""

from __future__ import annotations

import numpy as np

from .model import Deferred
from .quantize import QuantParams


class Tensor:
    """A typed, optionally-quantized tensor in a model graph.

    ``data`` is None for activation tensors until the interpreter
    allocates/produces them; constant tensors (weights, biases) carry
    their data up front.  Layout is NHWC throughout, matching TFLite.
    A tensor built with ``numbers`` (a
    :class:`~repro.tflm.model.NumericPass`) is unprepared: that pass
    sets ``quant``, ``channel_scales`` and ``data``, and reading any of
    them runs it.
    """

    quant = Deferred()
    channel_scales = Deferred()
    data = Deferred()

    def __init__(self, name, shape, dtype=np.int8, quant=None,
                 channel_scales=None, data=None, is_constant=False,
                 numbers=None):
        self.name = name
        self.shape = tuple(int(d) for d in shape)
        self.dtype = dtype
        self.is_constant = is_constant
        if numbers is None:
            self.set_numbers(quant or QuantParams(1.0, 0), channel_scales,
                             data)
        else:
            self._numbers = numbers

    def set_numbers(self, quant, channel_scales=None, data=None):
        """Quantization, per-channel weight scales (or None) and data (or
        None); ``data`` is cast to the tensor's dtype and shape."""
        self.quant = quant
        self.channel_scales = channel_scales
        if data is not None:
            data = np.asarray(data, dtype=self.dtype).reshape(self.shape)
        self.data = data

    @property
    def num_elements(self):
        result = 1
        for dim in self.shape:
            result *= dim
        return result

    @property
    def bytes(self):
        return self.num_elements * np.dtype(self.dtype).itemsize

    def dequantize(self):
        if self.data is None:
            raise ValueError(f"tensor {self.name} has no data")
        if self.channel_scales is not None:
            scales = self.channel_scales.reshape(
                (1,) * (len(self.shape) - 1) + (-1,)
            )
            return self.data.astype(np.float64) * scales
        return self.quant.dequantize(self.data)

    def __repr__(self):
        kind = "const" if self.is_constant else "act"
        return f"Tensor({self.name}, {self.shape}, {np.dtype(self.dtype).name}, {kind})"
