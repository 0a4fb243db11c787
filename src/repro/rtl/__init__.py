"""RTL design toolkit: an nMigen-flavoured Python HDL.

Public surface:

- :class:`Signal`, :class:`Const`, :class:`Cat`, :class:`Repl`,
  :class:`Mux`, :func:`signed` — expression building blocks.
- :class:`Module`, :class:`Memory` — structural containers with
  ``comb``/``sync`` domains, ``If``/``Elif``/``Else``/``Switch`` and
  ``FSM``/``State``/``next``.
- :class:`Simulator` — cycle-accurate simulation (interpreter reference
  backend plus the levelized compiled backend in
  :mod:`repro.rtl.compile`, selected with ``backend=``).
- :func:`estimate` / :class:`ResourceReport` — yosys-like resource
  estimation.
- :func:`emit_verilog` — Verilog-2001 emission.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ast": ["Cat", "Const", "Mux", "Repl", "Signal", "Value", "make_signal",
            "signed", "to_signed", "to_unsigned"],
    "compile": ["CompileError", "CompiledProgram", "CompiledSimulator",
                "compile_module"],
    "dsl": ["Assign", "Memory", "Module"],
    "equiv": ["EquivalenceReport", "assert_modules_equivalent",
              "check_equivalence"],
    "fsm": ["FsmHandle"],
    "lint": ["LintReport", "LintWarning", "find_comb_cycle", "lint"],
    "sim": ["CombLoopError", "Simulator"],
    "synth": ["ResourceReport", "estimate"],
    "verilog": ["emit as emit_verilog"],
})

# Imported now, not on first use: the function shares its submodule's
# name, and importing the submodule binds that name to the module.
from .lint import lint
