"""Golden-test harness: RTL CFU vs software emulation.

Section II-E of the paper: "random or directed CFU-level unit tests ...
can feed the same sequence of inputs to both the real CFU and to the
software emulation, and expect to see the same sequence of outputs".
This module is that harness, running the gateware in the cycle-accurate
RTL simulator instead of on a board.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .interface import CfuModel
from .rtl import RtlCfu, RtlCfuAdapter


@dataclass
class GoldenMismatch:
    index: int
    funct3: int
    funct7: int
    a: int
    b: int
    rtl_result: int
    model_result: int

    def __str__(self):
        return (
            f"op#{self.index} cfu[{self.funct7},{self.funct3}]"
            f"(0x{self.a:08x}, 0x{self.b:08x}): "
            f"rtl=0x{self.rtl_result:08x} model=0x{self.model_result:08x}"
        )


@dataclass
class GoldenReport:
    total: int = 0
    mismatches: list = field(default_factory=list)
    rtl_cycles: int = 0
    model_cycles: int = 0

    @property
    def passed(self):
        return not self.mismatches


def run_sequence(rtl_cfu, model, sequence, backend="auto"):
    """Feed identical (funct3, funct7, a, b) ops to gateware and model.

    ``backend`` picks the RTL simulation backend when a bare
    :class:`RtlCfu` is passed (an already-built adapter keeps its own).
    """
    if isinstance(rtl_cfu, RtlCfu):
        rtl_cfu = RtlCfuAdapter(rtl_cfu, backend=backend)
    if not isinstance(model, CfuModel):
        raise TypeError("model must be a CfuModel")
    model.reset()
    report = GoldenReport()
    for index, (funct3, funct7, a, b) in enumerate(sequence):
        rtl_result, rtl_cycles = rtl_cfu.execute(funct3, funct7, a, b)
        model_result, model_cycles = model.execute(funct3, funct7, a, b)
        report.total += 1
        report.rtl_cycles += rtl_cycles
        report.model_cycles += model_cycles
        if rtl_result != model_result:
            report.mismatches.append(GoldenMismatch(
                index, funct3, funct7, a, b, rtl_result, model_result,
            ))
    return report


def random_sequence(opcodes, count=100, seed=0, operand_bits=32):
    """Generate a random op sequence over the given (funct3, funct7) pairs."""
    rng = random.Random(seed)
    mask = (1 << operand_bits) - 1
    return [
        (f3, f7, rng.getrandbits(32) & mask, rng.getrandbits(32) & mask)
        for f3, f7 in (rng.choice(list(opcodes)) for _ in range(count))
    ]


def assert_equivalent(rtl_cfu, model, opcodes, count=100, seed=0,
                      backend="auto"):
    """Raise AssertionError with a readable diff if RTL and model diverge."""
    report = run_sequence(rtl_cfu, model, random_sequence(opcodes, count, seed),
                          backend=backend)
    if not report.passed:
        shown = "\n".join(str(m) for m in report.mismatches[:10])
        raise AssertionError(
            f"{len(report.mismatches)}/{report.total} golden mismatches:\n{shown}"
        )
    return report


# --- firmware-level golden tests -------------------------------------------------


@dataclass
class FirmwareRun:
    """Architectural outcome of one firmware run: everything the golden
    comparison looks at."""

    exit_code: int
    instret: int
    cycles: int
    regs: tuple
    uart: str


def run_firmware(soc_factory, cfu, source, region="sram",
                 max_instructions=5_000_000, sim_backend="auto",
                 compile_cache=None):
    """Assemble and run ``source`` on a fresh SoC with ``cfu`` attached.

    ``soc_factory`` builds the SoC (a fresh one per run, so two runs
    never share peripheral or RAM state).  ``sim_backend`` picks the ISA
    execution tier (see :data:`repro.cpu.machine.SIM_BACKENDS`).
    ``compile_cache`` (a :class:`~repro.core.codecache.CodeCache`, a
    directory path, or ``True`` for the process default) lets repeated
    runs of the same firmware skip tier-2 code generation.
    """
    from ..emu import Emulator

    emulator = Emulator(soc_factory(), cfu=cfu, sim_backend=sim_backend,
                        compile_cache=compile_cache)
    emulator.load_assembly(source, region=region)
    exit_code = emulator.run(max_instructions)
    machine = emulator.machine
    try:
        uart = emulator.uart_output
    except KeyError:
        uart = ""
    return FirmwareRun(exit_code=exit_code, instret=machine.instret,
                       cycles=machine.cycles, regs=tuple(machine.regs),
                       uart=uart)


def assert_firmware_equivalent(soc_factory, rtl_cfu, model, source,
                               region="sram", max_instructions=5_000_000,
                               backend="auto", sim_backend="auto"):
    """Section II-E, one level up: the same *firmware* must behave
    identically with the real CFU and with its software emulation.

    Runs ``source`` twice — gateware CFU, then software model — on fresh
    SoCs and asserts identical exit code, retired-instruction count,
    register file, and UART output.  Cycle counts are reported on the
    returned pair but not asserted (model latencies may legitimately
    differ from gateware).  ``sim_backend`` applies to both runs, so the
    harness itself can be exercised on any execution tier.
    """
    if isinstance(rtl_cfu, RtlCfu):
        rtl_cfu = RtlCfuAdapter(rtl_cfu, backend=backend)
    rtl_run = run_firmware(soc_factory, rtl_cfu, source, region=region,
                           max_instructions=max_instructions,
                           sim_backend=sim_backend)
    model_run = run_firmware(soc_factory, model, source, region=region,
                             max_instructions=max_instructions,
                             sim_backend=sim_backend)
    for attr in ("exit_code", "instret", "regs", "uart"):
        rtl_value = getattr(rtl_run, attr)
        model_value = getattr(model_run, attr)
        if rtl_value != model_value:
            raise AssertionError(
                f"firmware golden mismatch on {attr}: "
                f"rtl={rtl_value!r} model={model_value!r}")
    return rtl_run, model_run
