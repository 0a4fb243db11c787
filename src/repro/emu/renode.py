"""Renode-style whole-system emulation.

"Renode performs ISA simulation of the CPU, combined with cycle-accurate
Verilog simulation of the CFU.  It also simulates the RAM, ROM, and
UART" (Section II-E).  :class:`Emulator` assembles exactly that: the
RV32IM machine executing against a SoC bus (RAM regions + CSR-mapped
peripherals, UART included) with the CFU realized either as gateware in
the cycle-accurate RTL simulator or as the software emulation model —
the swap the paper uses for debugging.
"""

from __future__ import annotations

import copy
import time

from ..cfu.interface import CfuModel, MeteredCfu
from ..cfu.rtl import RtlCfu, RtlCfuAdapter
from ..cpu.assembler import assemble
from ..cpu.machine import Machine
from ..cpu.timing import VexTiming
from ..soc.soc import Soc


class Emulator:
    """A SoC + CPU + optional CFU, ready to run programs.

    A bare :class:`~repro.cfu.rtl.RtlCfu` is wrapped in an
    :class:`~repro.cfu.rtl.RtlCfuAdapter` on the default RTL backend;
    pass an adapter built with ``backend="interp"`` to run the gateware
    on the RTL oracle.  Programs run on the machine's fast path; the
    ISA oracle is ``emulator.machine.run(backend="step")``.

    ``compile_cache`` accepts a :class:`~repro.core.codecache.CodeCache`
    (or a directory path, or ``True`` for the process-wide default): the
    machine then binds translated blocks from cached generated
    source instead of re-running the code generator — across processes
    when the cache is directory-backed.
    """

    def __init__(self, soc, cfu=None, with_timing=True, telemetry=None,
                 compile_cache=None):
        if not isinstance(soc, Soc):
            raise TypeError("Emulator requires a Soc")
        self.soc = soc
        self.bus = soc.bus()
        if isinstance(cfu, RtlCfu):
            # cycle-accurate gateware simulation
            cfu = RtlCfuAdapter(cfu)
        if cfu is not None and not isinstance(
                cfu, (CfuModel, RtlCfuAdapter, MeteredCfu)):
            raise TypeError("cfu must be a CfuModel or RtlCfu(-Adapter)")
        self.cfu = cfu
        self.telemetry = telemetry
        timing = (VexTiming(soc.cpu_config, soc.memory_map)
                  if with_timing else None)
        self.machine = Machine(memory=self.bus, cfu=cfu, timing=timing)
        self.machine.compile_cache = _resolve_compile_cache(compile_cache)

    # --- program loading -------------------------------------------------------
    def _base(self, region, offset):
        """The load address ``offset`` bytes into ``region``; no region
        means where the SoC places code (``default_placement()["text"]``)."""
        if region is None:
            region = self.soc.default_placement()["text"]
        return self.soc.memory_map.get(region).base + offset

    def load_binary(self, blob, region=None, offset=0):
        base = self._base(region, offset)
        self.bus.load_bytes(base, blob)
        # Loading bypasses the store path, so drop stale blocks — but
        # only for the pages actually rewritten: blocks translated for
        # untouched pages survive a reload.
        self.machine.invalidate_pages(base, len(blob))
        self.machine.pc = base
        return base

    def load_assembly(self, source, region=None, offset=0):
        code, symbols = assemble(source, origin=self._base(region, offset))
        self.load_binary(code, region, offset)
        return symbols

    # --- warm state -------------------------------------------------------------
    def snapshot(self):
        """Snapshot the whole system: machine (COW memory, registers,
        timing caches, CFU) plus peripheral/CSR state and bus traffic
        counters.  O(pages later touched), not O(memory)."""
        return {
            "machine": self.machine.snapshot(),
            "csr": {register.name: register.value
                    for register in self.soc.csr_bank.registers},
            "peripherals": {
                peripheral.name: copy.deepcopy(peripheral.__dict__)
                for peripheral in [self.soc.spiflash] + self.soc.peripherals},
            "traffic": (None if self.bus._traffic is None
                        else {key: list(value)
                              for key, value in self.bus._traffic.items()}),
        }

    def restore(self, snap):
        """Restore a :meth:`snapshot`.  Returns the number of memory
        pages rewritten."""
        restored = self.machine.restore(snap["machine"])
        for register in self.soc.csr_bank.registers:
            if register.name in snap["csr"]:
                register.value = snap["csr"][register.name]
        saved_peripherals = snap["peripherals"]
        for peripheral in [self.soc.spiflash] + self.soc.peripherals:
            state = saved_peripherals.get(peripheral.name)
            if state is not None:
                peripheral.__dict__.update(copy.deepcopy(state))
        if snap["traffic"] is not None and self.bus._traffic is not None:
            self.bus._traffic.clear()
            self.bus._traffic.update(
                {key: list(value) for key, value in snap["traffic"].items()})
        return restored

    def discard_snapshot(self, snap):
        """Stop accumulating undo records for a snapshot."""
        self.machine.discard_snapshot(snap["machine"])

    # --- execution ---------------------------------------------------------------
    def run(self, max_instructions=5_000_000):
        """Run the loaded program.  With telemetry attached, records a
        ``sim_run`` span carrying this run's instructions and cycles."""
        machine = self.machine
        if self.telemetry is None:
            return machine.run(max_instructions)
        instret0 = machine.instret
        cycles0 = machine.cycles
        promotions0 = machine.block_promotions
        with self.telemetry.span("sim_run") as span:
            start = time.perf_counter()
            try:
                return machine.run(max_instructions)
            finally:
                elapsed = time.perf_counter() - start
                instructions = machine.instret - instret0
                span.attrs["instructions"] = instructions
                span.attrs["cycles"] = machine.cycles - cycles0
                span.attrs["instructions_per_second"] = (
                    round(instructions / elapsed) if elapsed > 0 else None)
                span.attrs["block_cache_entries"] = (
                    machine.block_cache_entries)
                span.attrs["block_promotions"] = (
                    machine.block_promotions - promotions0)

    def profile(self, symbols, max_instructions=5_000_000):
        """Run the loaded program under the cycle profiler.

        ``symbols`` is the name->address table :meth:`load_assembly`
        returned.  Returns the :class:`~repro.cpu.profiler.Profile`;
        records a ``sim_profile`` span when telemetry is attached.
        """
        from ..cpu.profiler import MachineProfiler

        profiler = MachineProfiler(self.machine, symbols)
        if self.telemetry is None:
            return profiler.run(max_instructions)
        with self.telemetry.span("sim_profile") as span:
            profile = profiler.run(max_instructions)
            span.attrs["cycles"] = profile.total_cycles
            span.attrs["symbols"] = len(profile.entries)
            span.attrs["truncated"] = profile.truncated
            return profile

    def export_metrics(self, telemetry, **labels):
        """Feed machine, bus, and CFU counters into a
        :class:`~repro.core.telemetry.Telemetry` in one call."""
        self.machine.export_metrics(telemetry, **labels)
        self.bus.export_metrics(telemetry, **labels)
        if isinstance(self.cfu, MeteredCfu):
            self.cfu.export_metrics(telemetry, **labels)
        return telemetry

    @property
    def cycles(self):
        return self.machine.cycles

    @property
    def uart_output(self):
        return self.soc.peripheral("uart").text()

    def swap_cfu(self, cfu):
        """Swap gateware for software emulation (or vice versa) in place —
        the Section II-E debugging technique."""
        if isinstance(cfu, RtlCfu):
            cfu = RtlCfuAdapter(cfu)
        self.cfu = cfu
        self.machine.cfu = cfu
        return self


def _resolve_compile_cache(compile_cache):
    """None | True | path | CodeCache -> CodeCache or None."""
    if compile_cache is None or hasattr(compile_cache, "get"):
        return compile_cache
    from ..core.codecache import CodeCache, default_cache

    if compile_cache is True:
        return default_cache()
    return CodeCache(str(compile_cache))


def uart_putc_assembly(csr_address):
    """Assembly snippet: write a0's low byte to the UART TX register."""
    return f"""
        li t5, {csr_address}
        sw a0, 0(t5)
    """
