"""Soft-CPU substrate: RV32IM ISA, assembler, machine, VexRiscv model.

- :mod:`repro.cpu.isa` — instruction encoding/decoding, CFU custom-0.
- :mod:`repro.cpu.assembler` — two-pass assembler (GCC stand-in).
- :mod:`repro.cpu.machine` — executable RV32IM machine.
- :mod:`repro.cpu.vexriscv` — configuration space + area model.
- :mod:`repro.cpu.timing` — cycle-cost model for a configuration.
"""

from .assembler import AssemblerError, assemble
from .disasm import disassemble
from .isa import Instruction, decode, encode_cfu, register_number
from .machine import SIM_BACKENDS, Machine, MemoryAccessError
from .timing import BranchPredictor, VexTiming
from .vexriscv import (
    ARTY_DEFAULT,
    BRANCH_PREDICTORS,
    DIVIDERS,
    FOMU_MINIMAL,
    MULTIPLIERS,
    SHIFTERS,
    VexRiscvConfig,
    cpu_resources,
)

__all__ = [
    "ARTY_DEFAULT",
    "AssemblerError",
    "BRANCH_PREDICTORS",
    "BranchPredictor",
    "DIVIDERS",
    "FOMU_MINIMAL",
    "Instruction",
    "MULTIPLIERS",
    "Machine",
    "MemoryAccessError",
    "SHIFTERS",
    "SIM_BACKENDS",
    "VexRiscvConfig",
    "VexTiming",
    "assemble",
    "cpu_resources",
    "decode",
    "disassemble",
    "encode_cfu",
    "register_number",
]
