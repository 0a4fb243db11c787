"""Simulation-backed profiling: cross-validate the analytic estimator.

Whole-model inference runs for 10^8-10^9 cycles, far beyond the Python
ISA simulator; the analytic :mod:`repro.perf.cost` model covers that
scale but is only as good as its unit costs.  This module closes the
loop between the two (the paper's Section II-E simulation story meets
its Section III profile tables):

1. Every kernel variant's :class:`~repro.perf.cost.CostContext` records
   a *primitive-call trace* (so many ALU ops, loads with a given
   locality, ...) alongside the cycle math.
2. For each dominant opcode class in an
   :class:`~repro.perf.estimator.InferenceEstimate`, the trace of the
   class's most expensive operator is scaled down to an instruction
   budget and synthesized into real RV32IM firmware — dependent ALU
   chains, cache-window load loops, loop-closing branches — which runs
   on the cycle-modelled :class:`~repro.emu.renode.Emulator` under the
   :class:`~repro.cpu.profiler.MachineProfiler`.
3. The *same* scaled counts replay through a fresh analytic context, so
   simulated and analytic cycles describe the identical instruction
   stream.  Their ratio is the class's **drift**; it rescales the
   full-size analytic estimate into the simulation-backed one, and
   :func:`simulate_profile` asserts it stays inside a calibrated band
   (:exc:`ProfileDriftError` otherwise — the estimator and the
   simulator disagree about the machine, which is a bug in one of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.assembler import assemble
from ..cpu.profiler import MachineProfiler
from ..perf.cost import CostContext

#: Simulated/analytic cycle ratio band (per opcode class).  Calibrated
#: against the Arty and Fomu reference CPUs; see
#: ``benchmarks/bench_profile_overhead.py`` for the measured values.
DEFAULT_DRIFT_BAND = (0.35, 2.5)

#: Budget (simulated instructions per opcode class) for the default run.
DEFAULT_BUDGET = 40_000

#: Classes below this share of the estimated cycles are not simulated;
#: they stay analytic in the simulation-backed total.
MIN_SHARE = 0.02

_UNROLL = 8
#: Odd stride (> a cache line) so "rand" walks defeat spatial locality
#: while still visiting a power-of-two window uniformly.
_RAND_STRIDE = 97


class ProfileDriftError(RuntimeError):
    """Simulated and analytic cycles disagree beyond the allowed band."""

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


def _pow2_floor(value):
    """Largest power of two <= value (value >= 1)."""
    return 1 << (int(value).bit_length() - 1)


class _DataAllocator:
    """Hands out non-overlapping data windows in the top half of each
    region (firmware code occupies the bottom)."""

    def __init__(self, memory_map):
        self._map = memory_map
        self._cursor = {}
        self._windows = {}

    def window(self, region_name, desired):
        region = self._map.get(region_name)
        start = self._cursor.get(region_name, region.base + region.size // 2)
        available = region.end - start
        size = _pow2_floor(max(256, min(desired, max(256, available))))
        key = (region_name, size)
        if key in self._windows:
            return self._windows[key]
        if start + size > region.end:
            # Out of fresh space: reuse the region's first window slot.
            start = region.base + region.size // 2
        base = (start + size - 1) & ~(size - 1)  # align to window size
        self._cursor[region_name] = base + size
        self._windows[key] = (base, size)
        return base, size


class _FirmwareBuilder:
    """Synthesizes a CostContext trace into profiled RV32IM assembly.

    Each primitive becomes one labelled segment, so the
    :class:`~repro.cpu.profiler.MachineProfiler` attributes cycles per
    primitive.  The builder tracks exactly what it emits: ``replay()``
    charges the identical dynamic instruction stream to an analytic
    context, which is what makes the drift ratio meaningful.
    """

    def __init__(self, system, allocator, region_of):
        self.system = system
        self.allocator = allocator
        self.region_of = region_of     # section name -> region name
        self.lines = []
        self.body_static = 0           # static instrs inside segments
        self.replay_ops = []           # (method, args, kwargs) for replay
        self._seg = 0

    # --- replay bookkeeping -----------------------------------------------------
    def _rep(self, method, *args, **kwargs):
        self.replay_ops.append((method, args, kwargs))

    def _label(self, kind):
        self._seg += 1
        name = f"seg{self._seg}_{kind}"
        self.lines.append(f"{name}:")
        return name

    def _loop_overhead(self, iters):
        """Replay charge for a loop's decrement + closing bnez."""
        if iters <= 0:
            return
        self._rep("alu", iters)
        taken = (iters - 1) / iters
        self._rep("branch", iters, taken=taken, predictable=True)

    # --- compute chains -----------------------------------------------------------
    def _chain(self, kind, count, body_instr, per_replay):
        """Emit a dependent chain of ``count`` ops, unrolled by 8 in a
        loop; ``per_replay`` charges one op to the analytic context."""
        name = self._label(kind)
        emit = self.lines.append
        iters, rem = divmod(count, _UNROLL)
        if iters > 1:
            emit(f"    li t0, {iters}")
            loop = f"{name}_loop"
            emit(f"{loop}:")
            for _ in range(_UNROLL):
                emit(f"    {body_instr}")
            emit("    addi t0, t0, -1")
            emit(f"    bnez t0, {loop}")
            self.body_static += _UNROLL + 2
            per_replay(_UNROLL * iters)
            self._loop_overhead(iters)
        else:
            rem = count
        for _ in range(rem):
            emit(f"    {body_instr}")
        self.body_static += rem
        if rem:
            per_replay(rem)

    def alu(self, n):
        self.lines.append("    li t1, 1")
        self.body_static += 1
        self._rep("alu", 1)
        self._chain("alu", n, "addi t1, t1, 1",
                    lambda c: self._rep("alu", c))

    def mul(self, n):
        self.lines.append("    li t1, 3")
        self.lines.append("    li t2, 5")
        self.body_static += 2
        self._rep("alu", 2)
        self._chain("mul", n, "mul t1, t1, t2",
                    lambda c: self._rep("mul", c))

    def div(self, n):
        self.lines.append("    li t1, 1000000")
        self.lines.append("    li t2, 3")
        self.body_static += 2
        self._rep("alu", 2)
        self._chain("div", n, "div t1, t1, t2",
                    lambda c: self._rep("div", c))

    def shift(self, n, amount):
        amount = min(31, max(1, int(amount)))
        self.lines.append("    li t1, -1")
        self.body_static += 1
        self._rep("alu", 1)
        self._chain("shift", n, f"srli t1, t1, {amount}",
                    lambda c: self._rep("shift", c, amount=amount))

    # --- control flow --------------------------------------------------------------
    def branch(self, n, taken, predictable):
        # Whatever the original branch's behaviour, the synthesized one
        # is a loop-closing bnez: the replay charges its *actual* taken
        # rate, so both sides describe the same stream.
        label = self._label("branch")
        emit = self.lines.append
        if n >= 2:
            emit(f"    li t0, {n}")
            loop = f"{label}_loop"
            emit(f"{loop}:")
            emit("    addi t0, t0, -1")
            emit(f"    bnez t0, {loop}")
            self.body_static += 2
            self._loop_overhead(n)
        else:
            emit("    li t0, 0")
            emit(f"    bnez t0, {label}")
            self.body_static += 2
            self._rep("alu", 1)
            self._rep("branch", 1, taken=0.0, predictable=True)

    def call(self, n):
        name = self._label("call")
        emit = self.lines.append
        emit(f"    li t0, {n}")
        loop = f"{name}_loop"
        fn = f"{name}_fn"
        end = f"{name}_end"
        emit(f"{loop}:")
        emit(f"    jal ra, {fn}")
        emit("    addi t0, t0, -1")
        emit(f"    bnez t0, {loop}")
        emit(f"    j {end}")
        emit(f"{fn}:")
        emit("    ret")
        emit(f"{end}:")
        self.body_static += 5
        self._rep("call", n)
        self._rep("alu", 1)  # the j over the helper, executed once
        self._loop_overhead(n)

    # --- memory --------------------------------------------------------------------
    _LOADS = {1: "lbu", 2: "lhu", 4: "lw"}
    _STORES = {1: "sb", 2: "sh", 4: "sw"}

    def load(self, n, size, section, pattern, footprint):
        size = size if size in self._LOADS else 4
        region = self.region_of(section)
        desired = footprint if footprint else 0x10000
        base, window = self.allocator.window(region, desired)
        name = self._label("load")
        emit = self.lines.append
        stride = size if pattern != "rand" else _RAND_STRIDE
        align = size > 1 and pattern == "rand"
        emit(f"    li t2, {base}")
        emit(f"    li t3, {window - 1}")
        emit("    li t1, 0")
        emit(f"    li t0, {n}")
        loop = f"{name}_loop"
        emit(f"{loop}:")
        emit("    and t4, t1, t3")
        body = 1
        if align:
            emit(f"    andi t4, t4, {-size}")
            body += 1
        emit("    add t4, t4, t2")
        emit(f"    {self._LOADS[size]} t5, 0(t4)")
        emit(f"    addi t1, t1, {stride}")
        emit("    addi t0, t0, -1")
        emit(f"    bnez t0, {loop}")
        self.body_static += body + 5
        self._rep("alu", n * (body + 2))   # index math + stride bump
        self._rep("load", n, size=size, section=section,
                  pattern=("hit" if pattern == "hit" else pattern),
                  footprint=window)
        self._loop_overhead(n)

    def store(self, n, size, section):
        size = size if size in self._STORES else 4
        region = self.region_of(section)
        base, window = self.allocator.window(region, 0x10000)
        name = self._label("store")
        emit = self.lines.append
        emit(f"    li t2, {base}")
        emit(f"    li t3, {window - 1}")
        emit("    li t1, 0")
        emit(f"    li t0, {n}")
        emit("    li t5, 42")
        loop = f"{name}_loop"
        emit(f"{loop}:")
        emit("    and t4, t1, t3")
        emit("    add t4, t4, t2")
        emit(f"    {self._STORES[size]} t5, 0(t4)")
        emit(f"    addi t1, t1, {size}")
        emit("    addi t0, t0, -1")
        emit(f"    bnez t0, {loop}")
        self.body_static += 6
        self._rep("alu", n * 3)
        self._rep("store", n, size=size, section=section)
        self._loop_overhead(n)

    # --- assembly + replay --------------------------------------------------------
    def source(self):
        return "\n".join(["start:"] + self.lines + ["    ebreak", ""])

    def replay(self, code_section, code_len, setup_instructions):
        """Charge the emitted stream to a fresh analytic context."""
        ctx = CostContext(self.system, code_section=code_section)
        if setup_instructions:
            ctx.alu(setup_instructions)
        for method, args, kwargs in self.replay_ops:
            getattr(ctx, method)(*args, **kwargs)
        cycles = ctx.finish(loop_footprint_bytes=code_len)
        return cycles, ctx.instructions


#: Trace-primitive tags the builder can synthesize; cfu/cfu_busy are
#: deliberately absent — custom instructions are measured by the real
#: co-simulation (:class:`~repro.emu.renode.Emulator` + MeteredCfu), not
#: reconstructed from synthetic firmware.
_SYNTH = {"alu", "mul", "div", "shift", "branch", "call", "load", "store"}


def _scale_counts(trace, scale):
    """Scale primitive counts, keeping every nonzero primitive alive."""
    scaled = []
    for entry in trace:
        kind = entry[0]
        if kind not in _SYNTH:
            continue
        n = entry[1]
        if n <= 0:
            continue
        count = max(1, int(round(n * scale)))
        scaled.append((kind, count) + tuple(entry[2:]))
    return scaled


@dataclass
class ClassSim:
    """One opcode class's synthesized run: estimate vs simulation."""

    name: str
    estimated_cycles: float      # full-size analytic estimate
    sim_cycles: int              # measured on the synthesized firmware
    analytic_cycles: float       # analytic replay of the same firmware
    instructions: int            # simulated instruction count
    scale: float                 # trace scale factor applied
    profile: object              # per-segment cpu Profile

    @property
    def drift(self):
        return (self.sim_cycles / self.analytic_cycles
                if self.analytic_cycles else 1.0)

    @property
    def simulated_cycles(self):
        """The analytic estimate rescaled by the measured drift."""
        return self.estimated_cycles * self.drift


@dataclass
class SimulatedProfile:
    """An :class:`InferenceEstimate` cross-checked by ISA simulation."""

    model_name: str
    estimate: object
    classes: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)  # class -> estimated cycles
    budget: int = DEFAULT_BUDGET

    @property
    def total_estimated(self):
        return (sum(c.estimated_cycles for c in self.classes)
                + sum(self.skipped.values()))

    @property
    def total_cycles(self):
        """Simulation-corrected total (skipped classes stay analytic)."""
        return (sum(c.simulated_cycles for c in self.classes)
                + sum(self.skipped.values()))

    @property
    def drift(self):
        """Overall simulated/estimated ratio across covered classes."""
        est = sum(c.estimated_cycles for c in self.classes)
        sim = sum(c.simulated_cycles for c in self.classes)
        return sim / est if est else 1.0

    def drift_offenders(self):
        lo, hi = DEFAULT_DRIFT_BAND
        return [c for c in self.classes if not lo <= c.drift <= hi]

    def check_drift(self):
        offenders = self.drift_offenders()
        if offenders:
            detail = ", ".join(f"{c.name}={c.drift:.2f}" for c in offenders)
            lo, hi = DEFAULT_DRIFT_BAND
            raise ProfileDriftError(
                f"estimator/simulator drift outside [{lo}, {hi}] at budget "
                f"{self.budget:,}: {detail}", offenders)
        return self

    def summary(self):
        lines = [
            f"simulated profile: {self.model_name} "
            f"(budget {self.budget:,} instr/class)",
            f"  {'class':20s} {'estimated':>14s} {'drift':>6s} "
            f"{'simulated':>14s}",
        ]
        for sim in sorted(self.classes, key=lambda c: -c.simulated_cycles):
            lines.append(
                f"  {sim.name:20s} {sim.estimated_cycles:>14,.0f} "
                f"{sim.drift:>6.2f} {sim.simulated_cycles:>14,.0f}")
        for name, cycles in sorted(self.skipped.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:20s} {cycles:>14,.0f}      - "
                         f"{cycles:>14,.0f}  (below min share)")
        lines.append(
            f"  total: {self.total_estimated:,.0f} estimated -> "
            f"{self.total_cycles:,.0f} simulated (drift {self.drift:.2f})")
        return "\n".join(lines)

    def folded(self):
        """Two-level flamegraph stacks: ``class;segment cycles``."""
        lines = []
        for sim in self.classes:
            lines.extend(sim.profile.folded(prefix=sim.name))
        return lines

    def export_folded(self, path):
        lines = self.folded()
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)

    def export_metrics(self, telemetry, **labels):
        for sim in self.classes:
            telemetry.counter("simprofile_estimated_cycles", cls=sim.name,
                              **labels).add(int(sim.estimated_cycles))
            telemetry.counter("simprofile_simulated_cycles", cls=sim.name,
                              **labels).add(int(sim.simulated_cycles))
            telemetry.counter("simprofile_instructions", cls=sim.name,
                              **labels).add(int(sim.instructions))
            telemetry.gauge("simprofile_drift", cls=sim.name,
                            **labels).set(round(sim.drift, 4))
        return telemetry


def _class_key(cost, names_1x1):
    if cost.opcode == "CONV_2D":
        return "CONV_2D_1x1" if cost.op_name in names_1x1 else "CONV_2D_other"
    return cost.opcode


def _simulate_class(name, trace, instructions, code_section, estimated,
                    playground, system, budget):
    """Synthesize + run + replay one opcode class; returns a ClassSim."""
    from ..emu import Emulator

    scale = min(1.0, budget / max(1.0, float(instructions)))
    counts = _scale_counts(trace, scale)
    if not counts:
        return None

    emulator = Emulator(playground.soc, cfu=None, with_timing=True)
    memory_map = emulator.soc.memory_map
    allocator = _DataAllocator(memory_map)
    placement = system.placement

    def writable_section(section):
        # Writes must land in RAM: redirect stores aimed at a ROM region
        # (e.g. model_weights on flash) to wherever the arena lives.
        # Emission and replay both use the redirected section, so the
        # two sides keep describing the same stream.
        if emulator.bus.backing(placement[section]).writable:
            return section
        return "arena"

    builder = _FirmwareBuilder(system, allocator,
                               lambda section: placement[section])
    for entry in counts:
        kind = entry[0]
        if kind == "alu":
            builder.alu(entry[1])
        elif kind == "mul":
            builder.mul(entry[1])
        elif kind == "div":
            builder.div(entry[1])
        elif kind == "shift":
            builder.shift(entry[1], entry[2])
        elif kind == "branch":
            builder.branch(entry[1], entry[2], entry[3])
        elif kind == "call":
            builder.call(entry[1])
        elif kind == "load":
            builder.load(entry[1], entry[2], entry[3], entry[4], entry[5])
        elif kind == "store":
            builder.store(entry[1], entry[2], writable_section(entry[3]))

    code_region = placement[code_section]
    code, symbols = assemble(builder.source(),
                             origin=memory_map.get(code_region).base)
    emulator.load_binary(code, region=code_region)

    analytic, replay_instructions = builder.replay(
        code_section, len(code),
        setup_instructions=len(code) // 4 - builder.body_static)

    profiler = MachineProfiler(emulator.machine, symbols)
    limit = int(replay_instructions * 2) + 10_000
    profile = profiler.run(max_instructions=limit)
    if profile.truncated:
        raise RuntimeError(
            f"synthesized firmware for {name} exceeded its instruction "
            f"budget ({limit}): builder/replay disagree")
    return ClassSim(
        name=name, estimated_cycles=estimated,
        sim_cycles=profile.total_cycles, analytic_cycles=analytic,
        instructions=emulator.machine.instret, scale=scale, profile=profile)


def simulate_profile(playground, budget=DEFAULT_BUDGET, estimate=None):
    """Cross-validate a playground's analytic profile against the ISA
    simulator; returns a :class:`SimulatedProfile`.

    Every opcode class holding at least :data:`MIN_SHARE` of the
    estimated cycles gets a synthesized firmware run of about ``budget``
    instructions.  Raises :exc:`ProfileDriftError` when any class's
    simulated/analytic ratio leaves :data:`DEFAULT_DRIFT_BAND`.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if estimate is None:
        estimate = playground.profile()
    system = playground.system()
    by_class = estimate.by_opcode(split_conv_1x1=True)
    total = sum(by_class.values()) or 1.0

    # Representative operator per class: the most expensive one.
    reps = {}
    for cost in estimate.op_costs:
        key = _class_key(cost, estimate._names_1x1)
        if key not in reps or cost.cycles > reps[key].cycles:
            reps[key] = cost

    result = SimulatedProfile(
        model_name=estimate.model_name, estimate=estimate, budget=budget)
    telemetry = getattr(playground, "telemetry", None)
    for name, estimated in by_class.items():
        if estimated / total < MIN_SHARE:
            result.skipped[name] = estimated
            continue
        if name == "(framework)":
            trace = estimate.overhead_trace
            instructions = estimate.overhead_instructions
            code_section = "text"
        else:
            rep = reps.get(name)
            if rep is None or not rep.trace:
                result.skipped[name] = estimated
                continue
            trace = rep.trace
            instructions = rep.instructions
            code_section = rep.code_section
        if telemetry is not None:
            with telemetry.span("simprofile_class", cls=name) as span:
                sim = _simulate_class(name, trace, instructions,
                                      code_section, estimated, playground,
                                      system, budget)
                if sim is not None:
                    span.attrs["drift"] = round(sim.drift, 4)
        else:
            sim = _simulate_class(name, trace, instructions, code_section,
                                  estimated, playground, system, budget)
        if sim is None:
            result.skipped[name] = estimated
        else:
            result.classes.append(sim)
    return result.check_drift()
