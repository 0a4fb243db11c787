"""Cycle-accurate simulator for the RTL DSL.

The simulator evaluates a :class:`~repro.rtl.dsl.Module` hierarchy.
This file is the *reference interpreter*: combinational logic is settled
by fixpoint iteration (sufficient for the acyclic netlists the framework
produces); synchronous logic updates on :meth:`Simulator.tick`.
Semantics follow nMigen: within one domain, later assignments override
earlier ones whenever their guard holds, and a combinational signal with
no active assignment falls back to its reset value.

``Simulator(module)`` dispatches between two backends:

- ``backend="interp"`` — this interpreter, the semantic ground truth;
- ``backend="compiled"`` — the levelized, code-generated backend in
  :mod:`repro.rtl.compile` (bit-identical, much faster);
- ``backend="auto"`` (default) — compiled when the netlist can be
  scheduled, interpreter otherwise.
"""

from __future__ import annotations

from .ast import (
    Cat,
    Const,
    Mux,
    Operator,
    Reinterpret,
    Repl,
    Signal,
    Slice,
    to_signed,
    to_unsigned,
)
from .dsl import Module

_MAX_SETTLE_PASSES = 64

#: The ``backend=`` choices of :class:`Simulator`.
BACKENDS = ("auto", "compiled", "interp")


class CombLoopError(RuntimeError):
    """Raised when combinational logic fails to reach a fixpoint.

    Carries the diagnosis: ``module_name``, ``unstable`` (names of the
    signals still changing on the last settle pass), and ``cycle`` (the
    static loop path from :func:`repro.rtl.lint.find_comb_cycle`, when
    one exists).
    """

    def __init__(self, message, module_name=None, unstable=(), cycle=None):
        super().__init__(message)
        self.module_name = module_name
        self.unstable = list(unstable)
        self.cycle = list(cycle) if cycle else None


class Simulator:
    """Drives a module: ``poke`` inputs, ``settle`` or ``tick``, ``peek``."""

    def __new__(cls, module, backend="auto"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown simulator backend {backend!r}")
        if cls is Simulator and backend != "interp":
            if not isinstance(module, Module):
                raise TypeError("Simulator requires a Module")
            from .compile import CompiledSimulator, CompileError, \
                compile_module
            try:
                compile_module(module)
            except CompileError:
                if backend == "compiled":
                    raise
            else:
                # __init__ then runs on the compiled subclass, which
                # fetches the cached program.
                return super().__new__(CompiledSimulator)
        return super().__new__(cls)

    def __init__(self, module, backend="auto"):
        if not isinstance(module, Module):
            raise TypeError("Simulator requires a Module")
        self.module = module
        self.backend = "interp"
        self.env = {}
        self.time = 0
        self.mem_state = {
            mem: list(mem.init) + [0] * (mem.depth - len(mem.init))
            for mem in module.all_memories()
        }
        self._comb_stmts = []
        self._sync_stmts = []
        for domain_name, stmt in module.all_statements():
            if domain_name == "comb":
                self._comb_stmts.append(stmt)
            else:
                self._sync_stmts.append(stmt)
        self._comb_driven = module.driven_signals("comb")
        self._sync_driven = module.driven_signals("sync")
        for sig in self._comb_driven & self._sync_driven:
            raise ValueError(f"signal {sig.name} driven in both comb and sync domains")
        for sig in self._sync_driven:
            self.env[sig] = sig.reset
        self._tracers = []
        self.settle()

    # --- public API --------------------------------------------------------------
    def poke(self, signal, value):
        """Force an undriven (input) signal to a value."""
        if signal in self._comb_driven or signal in self._sync_driven:
            raise ValueError(f"cannot poke driven signal {signal.name}")
        self.env[signal] = to_unsigned(int(value), signal.width)

    def peek(self, signal):
        """Read a signal's current unsigned bit pattern."""
        return self.env.get(signal, signal.reset)

    def peek_signed(self, signal):
        return to_signed(self.peek(signal), signal.width)

    def memory(self, mem):
        """Direct access to a memory's backing list (test convenience)."""
        return self.mem_state[mem]

    def add_tracer(self, tracer):
        """Register a callable(time, simulator) invoked after every tick."""
        self._tracers.append(tracer)

    def settle(self):
        """Propagate combinational logic to a fixpoint."""
        for _ in range(_MAX_SETTLE_PASSES):
            new_vals = self._comb_pass()
            changed = any(self.env.get(sig) != val for sig, val in new_vals.items())
            self.env.update(new_vals)
            if not changed:
                return
        raise self._comb_loop_error()

    def _comb_loop_error(self):
        """Diagnose a failed settle: who is still oscillating, and why."""
        from .lint import find_comb_cycle

        new_vals = self._comb_pass()
        unstable = sorted(sig.name for sig, val in new_vals.items()
                          if self.env.get(sig) != val)
        cycle_path = find_comb_cycle(self.module)
        cycle = [sig.name for sig in cycle_path] if cycle_path else None
        detail = (f"unstable signals: {', '.join(unstable)}" if unstable
                  else "no unstable signals identified")
        if cycle:
            detail += "; static comb cycle: " + " -> ".join(cycle)
        return CombLoopError(
            f"comb logic did not settle in module {self.module.name} "
            f"after {_MAX_SETTLE_PASSES} passes ({detail})",
            module_name=self.module.name, unstable=unstable, cycle=cycle)

    def tick(self, cycles=1):
        """Advance one (or more) clock cycles."""
        for _ in range(cycles):
            self.settle()
            next_vals = self._sync_pass()
            self._memory_cycle(next_vals)
            self.env.update(next_vals)
            self.time += 1
            self.settle()
            for tracer in self._tracers:
                tracer(self.time, self)

    def run_until(self, signal, value=1, timeout=10_000):
        """Tick until ``signal == value``; returns elapsed cycles."""
        start = self.time
        while self.peek(signal) != value:
            if self.time - start >= timeout:
                raise TimeoutError(f"{signal.name} never reached {value}")
            self.tick()
        return self.time - start

    # --- internals -----------------------------------------------------------------
    def _comb_pass(self):
        new_vals = {sig: sig.reset for sig in self._comb_driven}
        for mem, state in self.mem_state.items():
            for rp in mem.read_ports:
                if rp.domain == "comb":
                    addr = self._eval(rp.addr) % mem.depth
                    new_vals[rp.data] = state[addr]
        for stmt in self._comb_stmts:
            if stmt.guard is None or self._eval(stmt.guard):
                self._apply(stmt, new_vals)
        return new_vals

    def _sync_pass(self):
        next_vals = {sig: self.env.get(sig, sig.reset) for sig in self._sync_driven}
        for stmt in self._sync_stmts:
            if stmt.guard is None or self._eval(stmt.guard):
                self._apply(stmt, next_vals)
        return next_vals

    def _memory_cycle(self, next_vals):
        for mem, state in self.mem_state.items():
            # Sync read ports observe pre-write contents (read-before-write).
            for rp in mem.read_ports:
                if rp.domain == "sync":
                    addr = self._eval(rp.addr) % mem.depth
                    next_vals[rp.data] = state[addr]
            for wp in mem.write_ports:
                if self._eval(wp.en):
                    addr = self._eval(wp.addr) % mem.depth
                    state[addr] = to_unsigned(self._eval(wp.data), mem.width)

    def _apply(self, stmt, vals):
        raw = self._eval(stmt.rhs)
        if stmt.rhs.signed:
            raw = to_signed(raw, stmt.rhs.width)
        rhs = to_unsigned(raw, stmt.lhs.width)
        if isinstance(stmt.lhs, Slice):
            target = stmt.lhs.value
            current = vals.get(target, self.env.get(target, target.reset))
            mask = ((1 << stmt.lhs.width) - 1) << stmt.lhs.start
            vals[target] = (current & ~mask) | ((rhs << stmt.lhs.start) & mask)
        else:
            vals[stmt.lhs] = rhs

    def _eval(self, value):
        ev = self._eval
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Signal):
            return self.env.get(value, value.reset)
        if isinstance(value, Slice):
            return (ev(value.value) >> value.start) & ((1 << value.width) - 1)
        if isinstance(value, Cat):
            result, shift = 0, 0
            for part in value.parts:
                result |= ev(part) << shift
                shift += part.width
            return result
        if isinstance(value, Repl):
            bits = ev(value.value)
            result = 0
            for i in range(value.count):
                result |= bits << (i * value.value.width)
            return result
        if isinstance(value, Mux):
            chosen = value.if_true if ev(value.sel) else value.if_false
            raw = ev(chosen)
            if chosen.signed:
                raw = to_signed(raw, chosen.width)
            return to_unsigned(raw, value.width)
        if isinstance(value, Reinterpret):
            return ev(value.value)
        if isinstance(value, Operator):
            return self._eval_operator(value)
        raise TypeError(f"cannot evaluate {value!r}")

    def _eval_operator(self, node):
        op, ops = node.op, node.ops

        def num(v):
            raw = self._eval(v)
            return to_signed(raw, v.width) if v.signed else raw

        if op == "+":
            return to_unsigned(num(ops[0]) + num(ops[1]), node.width)
        if op == "-":
            return to_unsigned(num(ops[0]) - num(ops[1]), node.width)
        if op == "*":
            return to_unsigned(num(ops[0]) * num(ops[1]), node.width)
        if op == "neg":
            return to_unsigned(-num(ops[0]), node.width)
        if op == "~":
            return to_unsigned(~self._eval(ops[0]), node.width)
        if op in ("&", "|", "^"):
            a = to_unsigned(num(ops[0]), node.width)
            b = to_unsigned(num(ops[1]), node.width)
            return {"&": a & b, "|": a | b, "^": a ^ b}[op]
        if op == "<<":
            return to_unsigned(num(ops[0]) << self._eval(ops[1]), node.width)
        if op == ">>":
            return to_unsigned(num(ops[0]) >> self._eval(ops[1]), node.width)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            a, b = num(ops[0]), num(ops[1])
            return int(
                {
                    "==": a == b,
                    "!=": a != b,
                    "<": a < b,
                    "<=": a <= b,
                    ">": a > b,
                    ">=": a >= b,
                }[op]
            )
        if op == "b":
            return int(self._eval(ops[0]) != 0)
        if op == "r&":
            return int(self._eval(ops[0]) == (1 << ops[0].width) - 1)
        if op == "r^":
            return bin(self._eval(ops[0])).count("1") & 1
        raise ValueError(f"unknown operator {op!r}")
