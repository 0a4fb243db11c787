"""Batch (vectorized) evaluation of the analytic cost model.

The scalar path — :func:`~repro.perf.estimator.estimate_inference`
driving a :class:`~repro.perf.cost.CostContext` per operator — is a
*pure function* of the CPU-config axes once the workload is fixed:
every kernel variant calls the context primitives with counts that
depend only on (operator, model), never on the system config.  That
means one canonical primitive-call trace per workload can be *replayed*
over N design points at once as NumPy arrays.

The replay is bit-exact by construction, not by re-derivation:

- The per-point unit costs are obtained by running the *real*
  ``CostContext`` primitives on small probe contexts, one per distinct
  combination of the axes that primitive actually reads (bypassing for
  ``alu``, the dcache axis for ``store``, ...).  A probe context's
  accumulators are instrumented floats that record every addition, so
  the exact IEEE-754 operands — and their order — are captured.
- Replay then performs the identical additions elementwise over the
  batch: per accumulator, per trace entry, the recorded operands are
  gathered with ``np.take`` and added in the recorded order.  Python
  ``float`` and NumPy ``float64`` arithmetic are the same IEEE-754
  doubles, so every per-point total is bit-identical to what the scalar
  path computes for that point.
- The one config-dependent trace divergence — ``mul`` on a CPU without
  a multiplier expands to its shift-add software emulation — is handled
  by the probes themselves: probing ``("mul", n)`` at a
  ``multiplier="none"`` combo runs the real expansion and records its
  (longer) addition sequence; shorter sequences are padded with exact
  ``+0.0`` adds, which never change a finite accumulator.

A probe is a pure function of its trace entry and code section (a
finish probe of the code section and the loop footprint), and traces
repeat entries: the three builds of one Fig. 7 sweep hold 2,494 entries
and 201 finishes, of which 896 and 25 are distinct within their build.
So a build probes each distinct key once and every repeat shares its
tables.

The scalar path stays untouched as the reference oracle;
``tests/test_perf_vectorized.py`` cross-validates the two bit-exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..cpu.vexriscv import VexRiscvConfig
from .cost import CaptureCosts, CostContext, SystemConfig
from .estimator import estimate_inference

#: The CPU-config axes that influence cycle costs.  ``hw_error_checking``
#: and ``icache_ways`` affect only resources and are deliberately absent.
COST_AXES = ("bypassing", "branch_prediction", "multiplier", "divider",
             "shifter", "icache_bytes", "dcache_bytes")

#: Which axes each CostContext primitive actually reads.  Probes enumerate
#: only these; the cross-validation tests catch any drift if a primitive
#: grows a new dependence.
_ENTRY_AXES = {
    "alu": ("bypassing",),
    "mul": ("multiplier", "bypassing", "branch_prediction"),
    "div": ("divider",),
    "shift": ("shifter", "bypassing"),
    "branch": ("branch_prediction",),
    "call": (),
    "load": ("bypassing", "dcache_bytes"),
    "store": ("dcache_bytes",),
    "cfu": (),
    "cfu_busy": (),
}

_FINISH_AXES = ("icache_bytes",)

#: Anchor values for axes a probe does not enumerate.  Any valid config
#: works — by construction the probe result cannot depend on them.  The
#: multiplier must be present so the canonical capture trace contains
#: ``("mul", n)`` entries rather than their software expansion.
_CANONICAL_CPU = dict(
    bypassing=True, branch_prediction="dynamic", multiplier="single_cycle",
    divider="iterative", shifter="barrel", hw_error_checking=False,
    icache_bytes=4096, icache_ways=1, dcache_bytes=4096,
)

_ACCUMULATORS = ("compute", "memory", "fetch", "cfu", "control",
                 "instructions")


class _TapedNumber(float):
    """A float accumulator that records every addition applied to it."""

    def __new__(cls, value, tape, label):
        self = super().__new__(cls, value)
        self.tape = tape
        self.label = label
        return self

    def __add__(self, other):
        self.tape.append((self.label, float(other)))
        return _TapedNumber(float(self) + other, self.tape, self.label)


def _probe_context(system, cpu, code_section):
    """A CostContext on ``cpu`` whose accumulators record their adds."""
    probe_system = SystemConfig(cpu=cpu, memory_map=system.memory_map,
                                placement=system.placement,
                                clock_hz=system.clock_hz,
                                line_bytes=system.line_bytes)
    ctx = CostContext(probe_system, code_section=code_section)
    tape = []
    for name in ("compute", "memory", "fetch", "cfu", "control"):
        setattr(ctx.breakdown, name, _TapedNumber(0.0, tape, name))
    ctx.instructions = _TapedNumber(0.0, tape, "instructions")
    return ctx, tape


def _call_primitive(ctx, entry):
    """Replay one captured trace entry onto a context."""
    kind = entry[0]
    if kind == "alu":
        ctx.alu(entry[1])
    elif kind == "mul":
        ctx.mul(entry[1])
    elif kind == "div":
        ctx.div(entry[1])
    elif kind == "shift":
        ctx.shift(entry[1], entry[2])
    elif kind == "branch":
        ctx.branch(entry[1], entry[2], entry[3])
    elif kind == "call":
        ctx.call(entry[1])
    elif kind == "load":
        ctx.load(entry[1], entry[2], entry[3], entry[4], entry[5])
    elif kind == "store":
        ctx.store(entry[1], entry[2], entry[3])
    elif kind == "cfu":
        ctx.cfu(entry[1], entry[2], entry[3])
    elif kind == "cfu_busy":
        ctx.cfu_busy(entry[1])
    else:
        raise ValueError(f"unknown trace entry kind {kind!r}")


def _sequence_by_label(tape):
    """tape -> {accumulator: [operand, ...]} preserving add order."""
    out = {}
    for label, amount in tape:
        out.setdefault(label, []).append(amount)
    return out


@dataclass
class _EntryProgram:
    """One trace entry compiled to per-combo addition tables.

    ``adds`` maps accumulator name -> float64 array of shape
    (n_combos, n_adds); column ``j`` holds the ``j``-th operand each
    combo adds to that accumulator (0.0-padded where a combo performs
    fewer adds).  A finish program holds one ``fetch`` column: the
    per-instruction stall that replay multiplies by the instruction
    count.
    """

    axis_names: tuple
    adds: dict
    is_finish: bool = False


class BatchCostModel:
    """Replays one workload's cost estimation over N design points.

    Parameters
    ----------
    model:
        The TFLite model to estimate.
    system:
        Any :class:`SystemConfig` for the target platform; its memory
        map, placement, clock and line size are reused, its CPU is
        replaced per design point.
    axis_values:
        ``{axis: tuple of candidate values}`` for every name in
        :data:`COST_AXES` — typically the corresponding
        ``ParameterSpace`` value tuples.
    variants / overhead:
        Forwarded to :func:`estimate_inference` for the canonical
        capture run.
    """

    def __init__(self, model, system, axis_values, variants=None,
                 overhead=None):
        missing = [axis for axis in COST_AXES if axis not in axis_values]
        if missing:
            raise KeyError(f"axis_values missing cost axes: {missing}")
        self.axis_values = {axis: tuple(axis_values[axis])
                            for axis in COST_AXES}
        self._system = system
        canonical = VexRiscvConfig(**_CANONICAL_CPU)
        capture_system = SystemConfig(cpu=canonical,
                                      memory_map=system.memory_map,
                                      placement=system.placement,
                                      clock_hz=system.clock_hz,
                                      line_bytes=system.line_bytes)
        estimate = estimate_inference(model, capture_system,
                                      variants=variants, overhead=overhead)
        units = [(cost.trace, cost.code_section, cost.loop_footprint_bytes)
                 for cost in estimate.op_costs]
        units.append((estimate.overhead_trace, estimate.overhead_code_section,
                      estimate.overhead_loop_footprint_bytes))
        self._programs = self._compile_units(units)
        self.op_names = [cost.op_name for cost in estimate.op_costs]
        self.canonical_estimate = estimate

    # --- compilation: probe the real primitives per axis combo -------------------
    def _cpu_for(self, overrides):
        return VexRiscvConfig(**{**_CANONICAL_CPU, **overrides})

    def _compile_units(self, units):
        """Each (trace, section, footprint) -> its _EntryPrograms + finish.

        Each distinct ``(entry, code_section)`` and finish
        ``(code_section, loop_footprint_bytes)`` is probed once; every
        repeat shares its program.  The memo lives only for this call.
        """
        entry_programs, finish_programs = {}, {}
        compiled = []
        with CaptureCosts():  # shield any ambient capture from probe finishes
            for trace, code_section, loop_footprint_bytes in units:
                programs = []
                for entry in trace:
                    key = (entry, code_section)
                    if key not in entry_programs:
                        entry_programs[key] = self._compile_entry(
                            entry, code_section)
                    programs.append(entry_programs[key])
                key = (code_section, loop_footprint_bytes)
                if key not in finish_programs:
                    finish_programs[key] = self._compile_finish(*key)
                programs.append(finish_programs[key])
                compiled.append(programs)
        return compiled

    def _compile_entry(self, entry, code_section):
        axes = _ENTRY_AXES[entry[0]]
        combos = list(itertools.product(*(self.axis_values[a] for a in axes)))
        sequences = []
        for combo in combos:
            cpu = self._cpu_for(dict(zip(axes, combo)))
            ctx, tape = _probe_context(self._system, cpu, code_section)
            _call_primitive(ctx, entry)
            sequences.append(_sequence_by_label(tape))
        return _EntryProgram(axis_names=axes,
                             adds=self._pad_sequences(sequences))

    def _compile_finish(self, code_section, loop_footprint_bytes):
        """The fetch charge: ``fetch += instructions * per_instr``.

        Probed with ``instructions = 1.0`` so the recorded operand *is*
        the per-instruction stall; replay multiplies by the batch's
        accumulated instruction counts (the same single IEEE multiply
        the scalar path performs).
        """
        combos = list(itertools.product(
            *(self.axis_values[a] for a in _FINISH_AXES)))
        sequences = []
        for combo in combos:
            cpu = self._cpu_for(dict(zip(_FINISH_AXES, combo)))
            ctx, tape = _probe_context(self._system, cpu, code_section)
            ctx.instructions = 1.0
            ctx.finish(loop_footprint_bytes=loop_footprint_bytes)
            # ``finish`` returns breakdown.total, whose computation taps
            # spurious adds onto other labels; only the fetch add is real.
            sequences.append({"fetch": [amt for label, amt in tape
                                        if label == "fetch"]})
        return _EntryProgram(axis_names=_FINISH_AXES,
                             adds=self._pad_sequences(sequences),
                             is_finish=True)

    @staticmethod
    def _pad_sequences(sequences):
        """Merge per-combo add sequences into rectangular tables."""
        labels = []
        for seq in sequences:
            for label in seq:
                if label not in labels:
                    labels.append(label)
        adds = {}
        for label in labels:
            width = max(len(seq.get(label, ())) for seq in sequences)
            table = np.zeros((len(sequences), width))
            for row, seq in enumerate(sequences):
                amounts = seq.get(label, ())
                table[row, :len(amounts)] = amounts
            adds[label] = table
        return adds

    # --- replay ------------------------------------------------------------------
    def _combo_indices(self, axis_names, axis_indices, n):
        if not axis_names:
            return np.zeros(n, dtype=np.intp)
        flat = np.zeros(n, dtype=np.intp)
        for axis in axis_names:
            flat = flat * len(self.axis_values[axis]) + axis_indices[axis]
        return flat

    def _unit_cycles(self, programs, axis_indices, n):
        acc = {name: np.zeros(n) for name in _ACCUMULATORS}
        for program in programs:
            combo = self._combo_indices(program.axis_names, axis_indices, n)
            if program.is_finish:
                per_instr = np.take(program.adds["fetch"][:, 0], combo)
                acc["fetch"] += acc["instructions"] * per_instr
                continue
            for label, table in program.adds.items():
                target = acc[label]
                for column in range(table.shape[1]):
                    target += np.take(table[:, column], combo)
        # CostBreakdown.total, in its exact association order.
        return (acc["compute"] + acc["memory"] + acc["fetch"]
                + acc["cfu"] + acc["control"])

    def cycles(self, axis_indices):
        """Total inference cycles for a batch of design points.

        ``axis_indices`` maps each :data:`COST_AXES` name to an integer
        array (all the same length N) indexing into the corresponding
        ``axis_values`` tuple.  Returns a float64 array of length N
        whose every element is bit-identical to
        ``estimate_inference(...).total_cycles`` at that point.
        """
        n = len(next(iter(axis_indices.values())))
        total = np.zeros(n)
        for programs in self._programs:
            total += self._unit_cycles(programs, axis_indices, n)
        return total

    def cycles_for_points(self, points):
        """Convenience scalar-shaped API: a list of parameter dicts."""
        axis_indices = {
            axis: np.array([self.axis_values[axis].index(point[axis])
                            for point in points], dtype=np.intp)
            for axis in COST_AXES
        }
        return self.cycles(axis_indices)
