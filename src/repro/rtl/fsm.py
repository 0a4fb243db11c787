"""Finite-state-machine syntax for the RTL DSL (nMigen's ``m.FSM()``).

Usage::

    with m.FSM(name="ctrl") as fsm:
        with m.State("IDLE"):
            with m.If(start):
                m.next = "RUN"
        with m.State("RUN"):
            m.d.sync += counter.eq(counter + 1)
            with m.If(counter == 7):
                m.next = "IDLE"

    m.d.comb += busy.eq(fsm.ongoing("RUN"))

States are one-hot-by-index encoded in a synchronous state register;
``m.next = ...`` schedules a transition under the current condition
guards.  The FSM integrates with the existing guarded-assignment model,
so the simulator, resource estimator, and Verilog emitter all handle it
with no special cases.
"""

from __future__ import annotations

from contextlib import contextmanager

from .ast import Operator, Signal


class FsmHandle:
    """Returned by ``m.FSM()``; resolves state names to encodings."""

    def __init__(self, module, name, signal):
        self._module = module
        self.name = name
        self.signal = signal
        self.encodings = {}
        self._next_code = 0

    def encode(self, state_name):
        if state_name not in self.encodings:
            self.encodings[state_name] = self._next_code
            self._next_code += 1
            if self._next_code > (1 << self.signal.width):
                raise ValueError(
                    f"FSM {self.name}: too many states for "
                    f"{self.signal.width}-bit register"
                )
        return self.encodings[state_name]

    def ongoing(self, state_name):
        """1-bit expression: is the FSM currently in ``state_name``?"""
        return Operator("==", [self.signal, self.encode(state_name)])


@contextmanager
def fsm_context(module, name="fsm", state_bits=4):
    signal = Signal(state_bits, name=f"{name}_state")
    handle = FsmHandle(module, name, signal)
    previous = getattr(module, "_fsm_stack", [])
    module._fsm_stack = previous + [handle]
    try:
        yield handle
    finally:
        module._fsm_stack = previous


@contextmanager
def state_context(module, state_name):
    stack = getattr(module, "_fsm_stack", [])
    if not stack:
        raise SyntaxError("State used outside of an FSM block")
    handle = stack[-1]
    condition = handle.ongoing(state_name)
    module._guard_stack.append(condition)
    try:
        yield
    finally:
        module._guard_stack.pop()


def set_next(module, state_name):
    """``m.next = state_name``: transition under the current guards."""
    stack = getattr(module, "_fsm_stack", [])
    if not stack:
        raise SyntaxError("m.next assigned outside of an FSM block")
    handle = stack[-1]
    module.d.sync += handle.signal.eq(handle.encode(state_name))
