"""Kernel variants: the unit of optimization in the deploy-profile-optimize loop.

A :class:`KernelVariant` bundles, for one TFLite opcode:

- a numeric implementation (``compute``) — defaults to the reference
  kernel, since every optimized variant must be bit-exact with it;
- an analytic cycle model (``cycles``) describing the variant's loop
  nest against a :class:`~repro.perf.cost.SystemConfig`;
- optionally, the CFU it needs (``cfu_model`` — a
  :class:`~repro.cfu.interface.CfuModel` subclass), which
  :meth:`VariantSet.cfu_models` lists.  A variant charges no gateware
  itself: whoever attaches the CFU (a ladder rung or the DSE
  evaluator) sets its resource cost.

A :class:`VariantSet` is what the user swaps kernels into — the
equivalent of replacing a TFLM kernel with one that issues custom
instructions.
"""

from __future__ import annotations

from ..tflm.interpreter import reference_registry

_REFERENCE = reference_registry()


class KernelVariant:
    """Base class for one opcode's implementation + cost model."""

    opcode = None
    name = "unnamed"
    #: CfuModel subclass (or None) this variant issues instructions to.
    cfu_model = None

    def applies_to(self, op, model):
        """Whether this variant can run the given operator."""
        return op.opcode == self.opcode

    def compute(self, op, inputs, model):
        """Numeric result; defaults to the reference kernel (bit-exact)."""
        return _REFERENCE.lookup(op.opcode)(op, inputs, model)

    def cycles(self, op, model, system):
        """Estimated cycles for one invocation of this operator."""
        raise NotImplementedError

    # --- shape helpers shared by cost models ---------------------------------------
    @staticmethod
    def conv_geometry(op, model):
        """(pixels, in_ch, out_ch, kh, kw) of a conv-like operator."""
        out_shape = model.tensor(op.outputs[0]).shape
        in_shape = model.tensor(op.inputs[0]).shape
        kh, kw = op.options.get("kernel", (1, 1))
        pixels = out_shape[1] * out_shape[2] if len(out_shape) == 4 else 1
        return pixels, in_shape[-1], out_shape[-1], kh, kw

    def __repr__(self):
        return f"{type(self).__name__}({self.opcode}:{self.name})"


class VariantSet:
    """Ordered variant table: first applicable variant wins per operator."""

    def __init__(self, variants=()):
        self._variants = {}
        for variant in variants:
            self.add(variant)

    def add(self, variant):
        self._variants.setdefault(variant.opcode, []).insert(0, variant)
        return self

    def select(self, op, model):
        for variant in self._variants.get(op.opcode, ()):
            if variant.applies_to(op, model):
                return variant
        return None

    def cfu_models(self):
        """The distinct CFU classes required across all variants."""
        seen = []
        for variants in self._variants.values():
            for variant in variants:
                if variant.cfu_model is not None and variant.cfu_model not in seen:
                    seen.append(variant.cfu_model)
        return seen

    def extended(self, *variants):
        """A copy with additional (higher-priority) variants."""
        copy = VariantSet()
        copy._variants = {k: list(v) for k, v in self._variants.items()}
        for variant in variants:
            copy.add(variant)
        return copy

    def __iter__(self):
        for variants in self._variants.values():
            yield from variants
