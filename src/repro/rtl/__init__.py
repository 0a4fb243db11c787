"""RTL design toolkit: an nMigen-flavoured Python HDL.

Public surface:

- :class:`Signal`, :class:`Const`, :class:`Cat`, :class:`Repl`,
  :class:`Mux`, :func:`signed` — expression building blocks.
- :class:`Module`, :class:`Memory` — structural containers with
  ``comb``/``sync`` domains and ``If``/``Elif``/``Else``/``Switch``.
- :class:`Simulator` — cycle-accurate simulation (interpreter reference
  backend plus the levelized compiled backend in
  :mod:`repro.rtl.compile`, selected with ``backend=``).
- :func:`estimate` / :class:`ResourceReport` — yosys-like resource
  estimation.
- :func:`emit_verilog` — Verilog-2001 emission.
"""

from .ast import Cat, Const, Mux, Repl, Signal, Value, make_signal, signed, to_signed, to_unsigned
from .equiv import EquivalenceReport, assert_modules_equivalent, check_equivalence
from .fsm import FsmHandle, install_fsm_support
from .lint import LintReport, LintWarning, find_comb_cycle, lint
from .dsl import Assign, Memory, Module
from .sim import CombLoopError, Simulator
from .compile import CompiledProgram, CompiledSimulator, CompileError, compile_module
from .synth import ResourceReport, estimate
from .verilog import emit as emit_verilog

__all__ = [
    "Assign",
    "CompileError",
    "CompiledProgram",
    "CompiledSimulator",
    "compile_module",
    "find_comb_cycle",
    "EquivalenceReport",
    "FsmHandle",
    "assert_modules_equivalent",
    "check_equivalence",
    "install_fsm_support",
    "LintReport",
    "LintWarning",
    "lint",
    "Cat",
    "CombLoopError",
    "Const",
    "Memory",
    "Module",
    "Mux",
    "Repl",
    "ResourceReport",
    "Signal",
    "Simulator",
    "Value",
    "emit_verilog",
    "estimate",
    "make_signal",
    "signed",
    "to_signed",
    "to_unsigned",
]
