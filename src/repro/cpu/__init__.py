"""Soft-CPU substrate: RV32IM ISA, assembler, machine, VexRiscv model.

- :mod:`repro.cpu.isa` — instruction encoding/decoding, CFU custom-0.
- :mod:`repro.cpu.assembler` — two-pass assembler (GCC stand-in).
- :mod:`repro.cpu.machine` — executable RV32IM machine.
- :mod:`repro.cpu.vexriscv` — configuration space + area model.
- :mod:`repro.cpu.timing` — cycle-cost model for a configuration.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "assembler": ["AssemblerError", "assemble"],
    "disasm": ["disassemble"],
    "isa": ["Instruction", "decode", "encode_cfu", "register_number"],
    "machine": ["Machine", "MemoryAccessError", "SIM_BACKENDS"],
    "timing": ["BranchPredictor", "VexTiming"],
    "vexriscv": ["ARTY_DEFAULT", "BRANCH_PREDICTORS", "DIVIDERS",
                 "FOMU_MINIMAL", "MULTIPLIERS", "SHIFTERS", "VexRiscvConfig",
                 "cpu_resources"],
})
