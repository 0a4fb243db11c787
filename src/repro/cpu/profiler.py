"""Instruction-level profiler for the ISA machine.

The on-board half of the paper's "Profile" step: attach to a
:class:`~repro.cpu.machine.Machine`, run a program, and get cycle
attribution per symbol (from the assembler's label table) or per address
range — the same view `perf`/gprof would give on the real board via the
mcycle counter.

Two collection paths produce bit-identical attributions:

- ``run()`` (``backend="auto"``) piggybacks on the translated-block fast
  path: :meth:`Machine._run_blocks` runs each block's
  attribution-instrumented variant, which charges every instruction's
  cycles into a per-pc bucket, and charges each instruction it runs on
  ``step()`` the same way; symbol resolution and the instruction-mix
  class happen once per *static* pc (bisect over the symbols, one decode
  from memory) when the profile is finalized.  Profiling cost is a
  small constant factor over the unprofiled fast path
  (``benchmarks/bench_profile_overhead.py`` holds it under 3x).
- ``run(backend="step")`` wraps the reference ``step()`` loop,
  attributing the machine's cycle delta around every single step — the
  original, slow, trivially-correct collector the fast path is verified
  against.  This and :meth:`Machine.run <repro.cpu.machine.Machine.run>`
  are the only places the oracle is chosen.

Exhausting the instruction budget no longer raises: the partial profile
is returned with :attr:`Profile.truncated` set, so a too-short budget
costs a flag check instead of the whole measurement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from . import isa
from .machine import _specialize, _unknown_backend, classify_kind


@dataclass
class ProfileEntry:
    name: str
    cycles: int = 0
    instructions: int = 0

    def cpi(self):
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class Profile:
    entries: dict = field(default_factory=dict)
    total_cycles: int = 0
    #: True when collection stopped on the instruction budget rather
    #: than a halt — the attribution is exact but covers a prefix.
    truncated: bool = False
    #: Executed-instruction counts by class (alu/load/branch/...).
    instruction_mix: dict = field(default_factory=dict)

    def top(self, count=10):
        # Name tie-break: equal-cycle symbols would otherwise rank in
        # dict-insertion (i.e. first-execution) order, making reports
        # and golden text outputs unstable across collection paths.
        ranked = sorted(self.entries.values(),
                        key=lambda e: (-e.cycles, e.name))
        return ranked[:count]

    def summary(self, count=10):
        lines = [f"{'symbol':24s} {'cycles':>12s} {'share':>7s} {'CPI':>6s}"]
        for entry in self.top(count):
            share = (100 * entry.cycles / self.total_cycles
                     if self.total_cycles else 0)
            lines.append(f"{entry.name:24s} {entry.cycles:>12,} "
                         f"{share:>6.1f}% {entry.cpi():>6.2f}")
        if self.truncated:
            lines.append("(truncated: instruction budget exhausted)")
        return "\n".join(lines)

    def folded(self, prefix=""):
        """Flamegraph-compatible folded-stack lines (``symbol cycles``).

        ``prefix`` prepends stack frames (semicolon-separated), letting
        callers nest profiles (e.g. ``"CONV_2D_1x1"`` per workload).
        """
        lines = []
        for entry in self.top(len(self.entries)):
            stack = f"{prefix};{entry.name}" if prefix else entry.name
            lines.append(f"{stack} {entry.cycles}")
        return lines

    def export_folded(self, path, prefix=""):
        """Write folded stacks for ``flamegraph.pl``; returns line count."""
        lines = self.folded(prefix=prefix)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)

    def export_metrics(self, telemetry, **labels):
        """Feed per-symbol cycles and the instruction mix into a
        :class:`~repro.core.telemetry.Telemetry`."""
        for entry in self.top(len(self.entries)):
            telemetry.counter("profile_cycles", symbol=entry.name,
                              **labels).add(int(entry.cycles))
            telemetry.counter("profile_instructions", symbol=entry.name,
                              **labels).add(int(entry.instructions))
        for kind_class, count in sorted(self.instruction_mix.items()):
            telemetry.counter("profile_mix", kind=kind_class,
                              **labels).add(int(count))
        return telemetry

    def __getitem__(self, name):
        return self.entries[name]

    def __contains__(self, name):
        return name in self.entries


class MachineProfiler:
    """Attributes a machine run's cycles to symbols.

    ``symbols`` maps names to start addresses (the assembler returns
    exactly this, in any order); each instruction is attributed to the
    nearest symbol at or below its pc.
    """

    def __init__(self, machine, symbols):
        self.machine = machine
        pairs = sorted((addr, name) for name, addr in symbols.items())
        self._addrs = [addr for addr, _ in pairs]
        self._names = [name for _, name in pairs]
        self.profile = Profile()
        #: pc -> [cycles, instructions]; filled by either collection path.
        self.pc_buckets = {}
        self._original_step = machine.step

    def _symbol_for(self, pc):
        index = bisect_right(self._addrs, pc) - 1
        return self._names[index] if index >= 0 else "<unknown>"

    def bucket_for_pc(self, pc):
        """Slow-path bucket creation: called once per static pc by the
        fast path (via a get-or-create pattern)."""
        bucket = [0, 0]
        self.pc_buckets[pc] = bucket
        return bucket

    def run(self, max_instructions=5_000_000, backend="auto"):
        """Run to halt (or budget) and return the :class:`Profile`.

        ``backend`` picks the execution path exactly as in
        :meth:`Machine.run <repro.cpu.machine.Machine.run>`.
        Attribution is identical across paths: translated blocks charge
        cycles to the same pc buckets the ``step()`` loop does.

        A budget exhaustion returns the partial profile with
        ``truncated=True`` instead of discarding it.
        """
        machine = self.machine
        if backend == "auto":
            machine._run_blocks(max_instructions, profile=self)
        elif backend == "step":
            remaining = max_instructions
            buckets = self.pc_buckets
            while not machine.halted and remaining > 0:
                pc = machine.pc
                before = machine.cycles
                self._original_step()
                bucket = buckets.get(pc)
                if bucket is None:
                    bucket = self.bucket_for_pc(pc)
                bucket[0] += machine.cycles - before
                bucket[1] += 1
                remaining -= 1
        else:
            raise ValueError(_unknown_backend(backend))
        return self._finalize()

    def _finalize(self):
        profile = self.profile
        entries = profile.entries
        mix = profile.instruction_mix
        total_cycles = 0
        memory = self.machine.memory
        for pc in sorted(self.pc_buckets):
            cycles, instructions = self.pc_buckets[pc]
            name = self._symbol_for(pc)
            entry = entries.get(name)
            if entry is None:
                entry = entries.setdefault(name, ProfileEntry(name))
            entry.cycles += cycles
            entry.instructions += instructions
            total_cycles += cycles
            kind_class = self._classify(pc, memory)
            mix[kind_class] = mix.get(kind_class, 0) + instructions
        profile.total_cycles += total_cycles
        profile.truncated = not self.machine.halted
        # Buckets are folded in exactly once; a second run() keeps
        # accumulating into fresh buckets.
        self.pc_buckets = {}
        return profile

    @staticmethod
    def _classify(pc, memory):
        # Decode from current memory; anything unreadable or
        # no-longer-an-instruction (self-modifying code) counts as
        # unknown.
        try:
            op = _specialize(pc, isa.decode(memory.read32(pc)))
        except Exception:
            return "unknown"
        return classify_kind(op[0])


def profile_assembly(source, timing=None, cfu=None, region_base=0,
                     max_instructions=5_000_000):
    """Assemble, run, and profile a program in one call."""
    from .machine import Machine

    machine = Machine(cfu=cfu, timing=timing)
    symbols = machine.load_assembly(source, addr=region_base)
    profile = MachineProfiler(machine, symbols).run(max_instructions)
    return profile, machine
