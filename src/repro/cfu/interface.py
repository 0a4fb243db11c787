"""The Custom Function Unit interface.

A CFU receives two 32-bit operands from the CPU register file plus a
(funct3, funct7) opcode pair and returns one 32-bit result — the RISC-V
R-format on the custom-0 opcode (Section II-A/II-D of the paper).

Two in-framework realisations exist:

- :class:`CfuModel` — the *software emulation* the paper describes in
  Section II-E: a functionally-equivalent Python implementation that can
  be swapped in for the real CFU.  It also serves as the fast functional
  unit for whole-model performance runs.
- :class:`RtlCfu`/:class:`RtlCfuAdapter` (:mod:`repro.cfu.rtl`) — the
  gateware implementation in the RTL DSL, simulated cycle-accurately.

:func:`cfu_op` mirrors the C macro: it encodes/performs one custom
instruction against whatever CFU implementation is bound.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF


class CfuError(RuntimeError):
    pass


class CfuModel:
    """Base class for software CFU emulations.

    Subclasses override :meth:`op` (and usually keep state in instance
    attributes — CFUs may hold scratchpad buffers, accumulators, and
    configuration registers).  ``latency`` reports the cycle cost the
    hardware would take; for pipelined operations ``ii`` (initiation
    interval) reports the steady-state throughput cost.
    """

    #: human-readable name used in reports
    name = "cfu"

    def op(self, funct3, funct7, a, b):
        raise NotImplementedError

    def latency(self, funct3, funct7):
        """Cycles from issue to result for this operation."""
        return 1

    def ii(self, funct3, funct7):
        """Initiation interval: cycles between back-to-back issues."""
        return self.latency(funct3, funct7)

    def reset(self):
        """Return all architectural CFU state to power-on values."""

    # --- machine-facing protocol ---------------------------------------------------
    def execute(self, funct3, funct7, a, b):
        result = self.op(funct3 & 0x7, funct7 & 0x7F, a & _MASK32, b & _MASK32)
        return result & _MASK32, self.latency(funct3, funct7)

    def fast_call(self, funct3, funct7):
        """Optional single-latency fast path for translated blocks.

        Return a callable ``f(a, b) -> result`` equivalent to
        ``execute(funct3, funct7, a, b)`` for this fixed opcode pair —
        the result already masked to 32 bits, the latency exactly 1 —
        or ``None`` to keep the generic :meth:`execute` path.  Hot
        models override this for their inner-loop ops; wrappers that
        must observe every invocation (:class:`MeteredCfu`) simply
        don't provide one.
        """
        return None

    # --- warm-state protocol --------------------------------------------------------
    def snapshot_state(self):
        """An opaque copy of the CFU's architectural state, restorable
        with :meth:`restore_state`.  The default deep-copies the
        instance dict, which covers models keeping scratchpads,
        accumulators, and configuration registers in attributes;
        models with external state override both methods."""
        import copy

        return copy.deepcopy(self.__dict__)

    def restore_state(self, state):
        import copy

        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))

    def resources(self):
        """Resource estimate; overridden by designs with known gateware."""
        from ..rtl.synth import ResourceReport

        return ResourceReport()


class MeteredCfu:
    """Transparent CFU wrapper that meters the custom-instruction stream.

    Wraps any executable CFU (a :class:`CfuModel` or an RTL adapter) and
    counts per-(funct3, funct7) invocations plus the cycles the CFU kept
    the CPU waiting — the data behind the "is the accelerator actually
    busy?" question in the profile step.  Results and latencies pass
    through untouched, so a metered run is cycle-identical to a bare
    one.
    """

    def __init__(self, inner):
        self.inner = inner
        self.invocations = {}       # (funct3, funct7) -> count
        self.busy_cycles = 0

    @property
    def name(self):
        return f"{getattr(self.inner, 'name', 'cfu')} (metered)"

    def execute(self, funct3, funct7, a, b):
        result, latency = self.inner.execute(funct3, funct7, a, b)
        key = (funct3 & 0x7, funct7 & 0x7F)
        self.invocations[key] = self.invocations.get(key, 0) + 1
        self.busy_cycles += latency
        return result, latency

    def reset(self):
        """Reset the CFU's architectural state; counters are kept (use
        :meth:`clear` to zero them)."""
        self.inner.reset()

    def clear(self):
        self.invocations = {}
        self.busy_cycles = 0

    def snapshot_state(self):
        inner = (self.inner.snapshot_state()
                 if hasattr(self.inner, "snapshot_state") else None)
        return {"inner": inner, "invocations": dict(self.invocations),
                "busy_cycles": self.busy_cycles}

    def restore_state(self, state):
        if state["inner"] is not None:
            self.inner.restore_state(state["inner"])
        self.invocations = dict(state["invocations"])
        self.busy_cycles = state["busy_cycles"]

    def resources(self):
        return self.inner.resources()

    @property
    def total_invocations(self):
        return sum(self.invocations.values())

    def occupancy(self, total_cycles):
        """Fraction of a run the CFU spent executing."""
        return self.busy_cycles / total_cycles if total_cycles else 0.0

    def export_metrics(self, telemetry, **labels):
        """Feed invocation counts and busy cycles into a
        :class:`~repro.core.telemetry.Telemetry`."""
        for (funct3, funct7) in sorted(self.invocations):
            telemetry.counter("cfu_invocations", funct3=funct3, funct7=funct7,
                              **labels).add(self.invocations[(funct3, funct7)])
        telemetry.counter("cfu_busy_cycles", **labels).add(int(self.busy_cycles))
        return telemetry


class NullCfu(CfuModel):
    """A CFU that rejects every operation (no CFU attached)."""

    name = "none"

    def op(self, funct3, funct7, a, b):
        raise CfuError(f"no CFU operation ({funct3}, {funct7})")


def cfu_op(cfu, funct3, funct7, a, b):
    """The software-side equivalent of the ``cfu_op()`` C macro.

    ``funct3``/``funct7`` must be compile-time constants in C; here they
    are plain ints.  Returns the 32-bit result.
    """
    result, _ = cfu.execute(funct3, funct7, a, b)
    return result


def make_cfu_macro(cfu, funct3, funct7):
    """Bind an opcode pair, mirroring ``#define simd_add(a,b) cfu_op(...)``."""
    def macro(a, b):
        return cfu_op(cfu, funct3, funct7, a, b)

    macro.__name__ = f"cfu_{funct7}_{funct3}"
    return macro
