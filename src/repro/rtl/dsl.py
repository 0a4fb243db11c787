"""Module construction DSL: domains, guarded assignments, If/Elif/Else.

Usage mirrors nMigen::

    m = Module("adder")
    m.d.comb += result.eq(a + b)
    with m.If(start):
        m.d.sync += busy.eq(1)
    with m.Elif(done):
        m.d.sync += busy.eq(0)

Internally every assignment is stored flat with a *guard* expression
(the conjunction of the enclosing conditions), which keeps the simulator
and the resource estimator simple: later assignments to the same signal
win whenever their guard is true.
"""

from __future__ import annotations

from contextlib import contextmanager

from .ast import Operator, Signal, Slice, Value
from .fsm import fsm_context, set_next, state_context


class Assign:
    """A single ``lhs <= rhs`` assignment (guard attached by the module)."""

    def __init__(self, lhs, rhs):
        if not isinstance(lhs, (Signal, Slice)):
            raise TypeError("assignment target must be a Signal or a Slice of one")
        if isinstance(lhs, Slice) and not isinstance(lhs.value, Signal):
            raise TypeError("sliced assignment target must slice a Signal directly")
        self.lhs = lhs
        self.rhs = Value.wrap(rhs)
        self.guard = None  # filled in when added to a domain

    def target_signal(self):
        return self.lhs.value if isinstance(self.lhs, Slice) else self.lhs

    def __repr__(self):
        guard = f" if {self.guard!r}" if self.guard is not None else ""
        return f"(assign {self.lhs!r} := {self.rhs!r}{guard})"


class _Domain:
    """One clock domain's ordered list of guarded assignments."""

    def __init__(self, module, name):
        self._module = module
        self.name = name
        self.statements = []

    def __iadd__(self, stmts):
        if isinstance(stmts, Assign):
            stmts = [stmts]
        guard = self._module._current_guard()
        for stmt in stmts:
            if not isinstance(stmt, Assign):
                raise TypeError(f"domains accept Assign statements, got {stmt!r}")
            if stmt.guard is not None:
                raise ValueError("statement already added to a domain")
            stmt.guard = guard
            self.statements.append(stmt)
        return self


class _DomainSet:
    def __init__(self, module):
        self.comb = _Domain(module, "comb")
        self.sync = _Domain(module, "sync")

    def __iter__(self):
        yield self.comb
        yield self.sync


class Memory:
    """A synchronous-write, asynchronous-read memory block."""

    def __init__(self, width, depth, name=None, init=None):
        self.width = int(width)
        self.depth = int(depth)
        self.name = name or f"mem{id(self) & 0xFFFF:x}"
        self.init = list(init or [])
        if len(self.init) > self.depth:
            raise ValueError("memory init longer than depth")
        self.read_ports = []
        self.write_ports = []

    def read_port(self, domain="comb"):
        port = MemoryReadPort(self, domain, len(self.read_ports))
        self.read_ports.append(port)
        return port

    def write_port(self):
        port = MemoryWritePort(self, len(self.write_ports))
        self.write_ports.append(port)
        return port

    @property
    def bits(self):
        return self.width * self.depth


class MemoryReadPort:
    def __init__(self, memory, domain, index):
        if domain not in ("comb", "sync"):
            raise ValueError("read port domain must be 'comb' or 'sync'")
        self.memory = memory
        self.domain = domain
        addr_width = max(1, (memory.depth - 1).bit_length())
        self.addr = Signal(addr_width, name=f"{memory.name}_raddr{index}")
        self.data = Signal(memory.width, name=f"{memory.name}_rdata{index}")


class MemoryWritePort:
    def __init__(self, memory, index):
        self.memory = memory
        addr_width = max(1, (memory.depth - 1).bit_length())
        self.addr = Signal(addr_width, name=f"{memory.name}_waddr{index}")
        self.data = Signal(memory.width, name=f"{memory.name}_wdata{index}")
        self.en = Signal(1, name=f"{memory.name}_wen{index}")


class Module:
    """A hardware module: two domains, memories, and submodules."""

    def __init__(self, name="top"):
        self.name = name
        self.d = _DomainSet(self)
        self.memories = []
        self.submodules = []
        self._guard_stack = []          # active condition frames
        self._closed_conds = {}         # depth -> conditions of earlier If/Elif

    # --- control flow ----------------------------------------------------------
    def _current_guard(self):
        guard = None
        for cond in self._guard_stack:
            guard = cond if guard is None else Operator("&", [guard, cond])
        return guard

    @contextmanager
    def If(self, cond):
        cond = Value.wrap(cond).bool()
        depth = len(self._guard_stack)
        # A fresh If resets the Elif/Else chain at this depth.
        self._closed_conds[depth] = [cond]
        self._closed_conds = {d: c for d, c in self._closed_conds.items() if d <= depth}
        self._guard_stack.append(cond)
        try:
            yield
        finally:
            self._guard_stack.pop()

    @contextmanager
    def Elif(self, cond):
        cond = Value.wrap(cond).bool()
        depth = len(self._guard_stack)
        prior = self._closed_conds.get(depth)
        if not prior:
            raise SyntaxError("Elif without a preceding If at this nesting level")
        guard = self._none_of(prior)
        guard = Operator("&", [guard, cond])
        prior.append(cond)
        self._guard_stack.append(guard)
        try:
            yield
        finally:
            self._guard_stack.pop()

    @contextmanager
    def Else(self):
        depth = len(self._guard_stack)
        prior = self._closed_conds.get(depth)
        if not prior:
            raise SyntaxError("Else without a preceding If at this nesting level")
        guard = self._none_of(prior)
        self._closed_conds[depth] = None
        self._guard_stack.append(guard)
        try:
            yield
        finally:
            self._guard_stack.pop()

    @contextmanager
    def Switch(self, value):
        value = Value.wrap(value)
        self._switch_stack = getattr(self, "_switch_stack", [])
        self._switch_stack.append((value, []))  # (subject, prior case conds)
        try:
            yield
        finally:
            self._switch_stack.pop()

    @contextmanager
    def Case(self, *values):
        if not getattr(self, "_switch_stack", None):
            raise SyntaxError("Case outside of a Switch block")
        subject, prior = self._switch_stack[-1]
        if values:
            cond = None
            for v in values:
                term = Operator("==", [subject, Value.wrap(v)])
                cond = term if cond is None else Operator("|", [cond, term])
            prior.append(cond)
        else:  # default case: none of the earlier cases matched
            cond = self._none_of(prior) if prior else Value.wrap(1)
        self._guard_stack.append(cond)
        try:
            yield
        finally:
            self._guard_stack.pop()

    @staticmethod
    def _none_of(conds):
        any_prior = None
        for c in conds:
            any_prior = c if any_prior is None else Operator("|", [any_prior, c])
        return Operator("~", [any_prior])[0]

    # --- FSMs (repro.rtl.fsm) ----------------------------------------------------
    def FSM(self, name="fsm", state_bits=4):
        return fsm_context(self, name, state_bits)

    def State(self, state_name):
        return state_context(self, state_name)

    next = property(fget=lambda self: None, fset=set_next)

    # --- structure ---------------------------------------------------------------
    def add_memory(self, memory):
        self.memories.append(memory)
        return memory

    def add_submodule(self, module):
        self.submodules.append(module)
        return module

    def flatten(self):
        """Yield this module and all submodules, depth first."""
        yield self
        for sub in self.submodules:
            yield from sub.flatten()

    def all_statements(self):
        """(domain_name, Assign) pairs across the whole hierarchy."""
        for mod in self.flatten():
            for domain in mod.d:
                for stmt in domain.statements:
                    yield domain.name, stmt

    def all_memories(self):
        for mod in self.flatten():
            yield from mod.memories

    def driven_signals(self, domain_name):
        """Set of signals assigned in the given domain across the hierarchy."""
        driven = set()
        for name, stmt in self.all_statements():
            if name == domain_name:
                driven.add(stmt.target_signal())
        return driven
