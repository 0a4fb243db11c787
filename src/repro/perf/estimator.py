"""Whole-model cycle estimation and the per-op profiler.

Combines a model, a :class:`~repro.perf.cost.SystemConfig`, and a
:class:`~repro.kernels.api.VariantSet` into the per-operator cycle
profile the paper's deploy-profile-optimize loop is driven by (the
on-board profiler's role, Section III "Profile" steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CaptureCosts, CostContext


@dataclass
class OpCost:
    op_name: str
    opcode: str
    variant: str
    cycles: float
    macs: int
    breakdown: object = None      # CostBreakdown of the variant's context
    instructions: float = 0.0
    trace: tuple = ()             # CostContext primitive-call trace
    code_section: str = "kernel_text"
    loop_footprint_bytes: int = 256  # fetch-model footprint passed to finish()

    @property
    def cycles_per_mac(self):
        return self.cycles / self.macs if self.macs else float("nan")


@dataclass
class InferenceEstimate:
    """Per-op costs plus framework overhead for one inference."""

    model_name: str
    system: object
    op_costs: list = field(default_factory=list)
    overhead_cycles: float = 0.0
    overhead_trace: tuple = ()
    overhead_instructions: float = 0.0
    overhead_code_section: str = "text"
    overhead_loop_footprint_bytes: int = 48 * 1024

    @property
    def total_cycles(self):
        return sum(c.cycles for c in self.op_costs) + self.overhead_cycles

    @property
    def seconds(self):
        return self.total_cycles / self.system.clock_hz

    def by_opcode(self, split_conv_1x1=False):
        """Cycle totals per opcode (optionally splitting 1x1 CONV_2D out)."""
        totals = {}
        for cost in self.op_costs:
            key = cost.opcode
            if split_conv_1x1 and cost.opcode == "CONV_2D":
                key = "CONV_2D_1x1" if cost.op_name in self._names_1x1 else "CONV_2D_other"
            totals[key] = totals.get(key, 0.0) + cost.cycles
        if self.overhead_cycles:
            totals["(framework)"] = self.overhead_cycles
        return totals

    _names_1x1 = frozenset()

    def cycles_for(self, predicate):
        return sum(c.cycles for c in self.op_costs if predicate(c))

    def summary(self, split_conv_1x1=False):
        total = self.total_cycles
        lines = [
            f"{self.model_name}: {total:,.0f} cycles "
            f"({self.seconds * 1000:.1f} ms @ {self.system.clock_hz / 1e6:.0f} MHz)"
        ]
        for opcode, cycles in sorted(self.by_opcode(split_conv_1x1).items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"  {opcode:20s} {cycles:>14,.0f}  {100 * cycles / total:5.1f}%")
        return "\n".join(lines)

    def per_op_table(self):
        lines = [f"{'operator':30s} {'variant':18s} {'cycles':>14s} {'cyc/MAC':>8s}"]
        for cost in self.op_costs:
            per_mac = f"{cost.cycles_per_mac:.2f}" if cost.macs else "-"
            lines.append(
                f"{cost.op_name:30s} {cost.variant:18s} "
                f"{cost.cycles:>14,.0f} {per_mac:>8s}"
            )
        return "\n".join(lines)


class FrameworkOverhead:
    """TFLM runtime cost outside kernels: dispatch, setup, I/O staging.

    The runtime code lives in the ``text`` section, so on Fomu it
    executes from flash until the icache can hold it — part of why the
    memory-system optimizations in Section III-B pay off.
    """

    def __init__(self, per_op_instructions=900, per_invoke_instructions=30_000):
        self.per_op_instructions = per_op_instructions
        self.per_invoke_instructions = per_invoke_instructions

    def cycles(self, model, system):
        ctx = CostContext(system, code_section="text")
        total_instr = (self.per_invoke_instructions
                       + self.per_op_instructions * len(model.operators))
        ctx.alu(int(total_instr * 0.55))
        ctx.load(int(total_instr * 0.20), size=4, section="arena", pattern="rand",
                 footprint=8192)
        ctx.store(int(total_instr * 0.08), size=4, section="arena")
        ctx.branch(int(total_instr * 0.12), taken=0.5, predictable=False)
        ctx.call(int(total_instr * 0.05 / 2))
        # Framework code has a large footprint: it rarely fits small caches.
        return ctx.finish(loop_footprint_bytes=48 * 1024)


def estimate_inference(model, system, variants=None, overhead=None,
                       split_conv_1x1=True, telemetry=None):
    """Estimate one inference; returns an :class:`InferenceEstimate`.

    With ``telemetry`` (a :class:`~repro.core.telemetry.Telemetry`) the
    whole estimation is recorded as an ``estimate`` span carrying the
    model name and total cycles, and the ``perf_ops_estimated`` counter
    grows by the operator count.
    """
    from ..kernels.reference import reference_variants

    if telemetry is not None:
        with telemetry.span("estimate", model=model.name) as span:
            estimate = estimate_inference(model, system, variants=variants,
                                          overhead=overhead,
                                          split_conv_1x1=split_conv_1x1)
            telemetry.counter("perf_ops_estimated").add(
                len(estimate.op_costs))
            span.attrs["cycles"] = estimate.total_cycles
            return estimate

    variants = variants or reference_variants()
    overhead = overhead or FrameworkOverhead()
    estimate = InferenceEstimate(model_name=model.name, system=system)
    names_1x1 = set()
    for op in model.operators:
        variant = variants.select(op, model)
        if variant is None:
            raise KeyError(f"no variant for {op.opcode}")
        with CaptureCosts() as capture:
            cycles = variant.cycles(op, model, system)
        snap = capture.last
        estimate.op_costs.append(OpCost(
            op_name=op.name, opcode=op.opcode, variant=variant.name,
            cycles=cycles, macs=op.macs,
            breakdown=snap.breakdown if snap else None,
            instructions=snap.instructions if snap else 0.0,
            trace=snap.trace if snap else (),
            code_section=snap.code_section if snap else "kernel_text",
            loop_footprint_bytes=snap.loop_footprint_bytes if snap else 256,
        ))
        if op.opcode == "CONV_2D" and op.options.get("kernel") == (1, 1):
            names_1x1.add(op.name)
    with CaptureCosts() as capture:
        estimate.overhead_cycles = overhead.cycles(model, system)
    snap = capture.last
    estimate.overhead_trace = snap.trace if snap else ()
    estimate.overhead_instructions = snap.instructions if snap else 0.0
    estimate.overhead_code_section = snap.code_section if snap else "text"
    estimate.overhead_loop_footprint_bytes = (
        snap.loop_footprint_bytes if snap else 48 * 1024)
    estimate._names_1x1 = frozenset(names_1x1)
    return estimate
