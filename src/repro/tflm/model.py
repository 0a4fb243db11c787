"""Model graph representation: operators over named tensors."""

from __future__ import annotations

import threading

OPCODES = (
    "CONV_2D",
    "DEPTHWISE_CONV_2D",
    "FULLY_CONNECTED",
    "AVERAGE_POOL_2D",
    "MAX_POOL_2D",
    "ADD",
    "PAD",
    "RESHAPE",
    "SOFTMAX",
    "MEAN",
)

#: The operator options a graph fixes before any number is known: all a
#: cost model or a kernel's applicability test needs.
GRAPH_OPTIONS = frozenset({
    "stride", "padding", "kernel", "depth_multiplier", "pool_size",
    "new_shape", "axes", "paddings", "macs",
})


class NumericPass:
    """The deferred numbers of a built model: its recorded steps, run
    once, in layer order, under a lock, on the first read of a number.

    A step may read only numbers that earlier steps set; the lock is
    reentrant so that a step breaking that rule recurses loudly instead
    of deadlocking.  Pickling keeps the steps and drops the lock.
    """

    def __init__(self):
        self._steps = []
        self._lock = threading.RLock()

    @property
    def done(self):
        return self._steps is None

    def record(self, step):
        """Append ``step``, a picklable callable, to the pass."""
        self._steps.append(step)

    def run(self):
        """Run the recorded steps, unless they have run."""
        with self._lock:
            if self._steps is not None:
                for step in self._steps:
                    step()
                self._steps = None

    def __getstate__(self):
        return {"steps": self._steps}

    def __setstate__(self, state):
        self._steps = state["steps"]
        self._lock = threading.RLock()


class Deferred:
    """An attribute of a graph element that its model's numeric pass sets.

    A non-data descriptor: the instance's own value hides it, so a read
    after the pass is a plain attribute lookup.  A read before it finds
    the descriptor, which runs the element's pass (``_numbers``) first.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        instance._numbers.run()
        return instance.__dict__[self.name]


class Operator:
    """One graph node: an opcode, tensor names, options and parameters.

    ``options`` is the structure (strides, padding, kernel, MACs ...).
    ``params`` adds what a kernel needs at Invoke time (precomputed
    requantization multipliers, activation clamps), mirroring TFLM's
    Prepare/Eval split: all floating-point work happens before Invoke,
    kernels run on integers only.  An operator built with ``params``
    takes its options from them; one built with ``numbers`` (a
    :class:`NumericPass`) gets ``params`` from that pass.
    """

    params = Deferred()

    def __init__(self, opcode, name, inputs, outputs, params=None,
                 options=None, numbers=None):
        if opcode not in OPCODES:
            raise ValueError(f"unknown opcode {opcode!r}")
        self.opcode = opcode
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        if numbers is None:
            self.params = {} if params is None else params
            options = {key: value for key, value in self.params.items()
                       if key in GRAPH_OPTIONS}
        else:
            self._numbers = numbers
        self.options = options
        self.macs = options.get("macs", 0)

    def __repr__(self):
        return f"Operator({self.name}: {self.opcode})"


class Model:
    """An ordered operator graph with a tensor table (TFLite flatbuffer
    stand-in).  ``numbers`` is the :class:`NumericPass` of a model whose
    numbers are deferred; :meth:`prepare` runs it."""

    def __init__(self, name, tensors, operators, input_names, output_names,
                 numbers=None):
        self.name = name
        self.tensors = dict(tensors)
        self.operators = list(operators)
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        self._numbers = numbers
        self._validate()

    def _validate(self):
        defined = set(self.tensors)
        for op in self.operators:
            for tensor_name in list(op.inputs) + list(op.outputs):
                if tensor_name not in defined:
                    raise ValueError(
                        f"operator {op.name} references unknown tensor {tensor_name}"
                    )
        for name in self.input_names + self.output_names:
            if name not in defined:
                raise ValueError(f"model I/O references unknown tensor {name}")

    @property
    def prepared(self):
        """Whether every number is in place: nothing is deferred, or the
        numeric pass has run."""
        return self._numbers is None or self._numbers.done

    def prepare(self):
        """Run the numeric pass now if it has not run (TFLM's Prepare)."""
        if self._numbers is not None:
            self._numbers.run()
        return self

    def tensor(self, name):
        return self.tensors[name]

    @property
    def input(self):
        return self.tensors[self.input_names[0]]

    @property
    def output(self):
        return self.tensors[self.output_names[0]]

    def total_macs(self):
        return sum(op.macs for op in self.operators)

    def weights_bytes(self):
        """Bytes of constant data (the .rodata the KWS study moves around)."""
        return sum(t.bytes for t in self.tensors.values() if t.is_constant)

    def summary(self):
        lines = [f"Model {self.name}: {len(self.operators)} ops, "
                 f"{self.total_macs():,} MACs, "
                 f"{self.weights_bytes():,} weight bytes"]
        for op in self.operators:
            out = self.tensors[op.outputs[0]]
            lines.append(
                f"  {op.name:28s} {op.opcode:20s} -> {out.shape}"
                f"  macs={op.macs:,}"
            )
        return "\n".join(lines)

    def __repr__(self):
        return f"Model({self.name}, {len(self.operators)} ops)"
