"""Equivalence checking by co-simulation (a formal-lite verification aid).

Drives two module implementations with identical randomized stimulus and
compares their observable outputs cycle by cycle — the workhorse check
when refactoring a CFU (e.g. pipelining a datapath or moving an FSM) and
wanting confidence that behaviour is preserved.

Stimulus-order contract
-----------------------

The random stimulus of :func:`check_equivalence` is a pure function of
``(seed, inputs, input_bias, cycles)``.  Each cycle draws exactly one
value per input, **in list order**, from a single ``random.Random(seed)``
stream: for cycle ``c`` and the ``i``-th input, the value is the
``(c * len(inputs) + i)``-th draw, where a draw is one
``rng.getrandbits(width)`` call (or one ``input_bias[sig](rng)`` call
for biased inputs).  Nothing else consumes the stream, so a failing
seed replays bit for bit.  The contract is regression-tested
(``tests/test_rtl_equiv.py``); changing the draw order is a breaking
change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .sim import Simulator


@dataclass
class EquivalenceMismatch:
    cycle: int
    signal_name: str
    value_a: int
    value_b: int

    def __str__(self):
        return (f"cycle {self.cycle}: {self.signal_name}: "
                f"a=0x{self.value_a:x} b=0x{self.value_b:x}")


@dataclass
class EquivalenceReport:
    cycles: int = 0
    mismatches: list = field(default_factory=list)
    truncated: bool = False
    seed: int | None = None

    @property
    def equivalent(self):
        return not self.mismatches


def _pairs(items):
    return [item if isinstance(item, tuple) else (item, item)
            for item in items]


def check_equivalence(module_a, module_b, inputs, outputs, cycles=200,
                      seed=0, settle_only=False, input_bias=None,
                      backend="auto", max_mismatches=10):
    """Co-simulate two modules under identical random stimulus.

    ``inputs``/``outputs`` are lists whose items are either a signal
    shared by both modules, or an ``(a_signal, b_signal)`` pair when the
    two designs use distinct signal objects.  ``input_bias`` optionally
    maps a (first) input signal to a callable(rng) producing its value.
    ``backend`` selects the simulation backend for both sides
    (``"auto"``/``"compiled"``/``"interp"``).

    The check stops early once ``max_mismatches`` mismatches have been
    collected (checked at the end of each cycle); the returned report
    then has ``truncated=True`` — later cycles were *not* compared, so
    the mismatch list is a lower bound.  Pass ``max_mismatches=None``
    to always compare all ``cycles`` cycles.  See the module docstring
    for the stimulus-order contract.
    """
    input_pairs, output_pairs = _pairs(inputs), _pairs(outputs)
    input_bias = input_bias or {}
    sim_a = Simulator(module_a, backend=backend)
    sim_b = Simulator(module_b, backend=backend)
    rng = random.Random(seed)
    report = EquivalenceReport(seed=seed)
    for cycle in range(cycles):
        for sig_a, sig_b in input_pairs:
            generator = input_bias.get(sig_a)
            value = generator(rng) if generator else \
                rng.getrandbits(sig_a.width)
            sim_a.poke(sig_a, value)
            sim_b.poke(sig_b, value)
        sim_a.settle()
        sim_b.settle()
        for sig_a, sig_b in output_pairs:
            value_a = sim_a.peek(sig_a)
            value_b = sim_b.peek(sig_b)
            if value_a != value_b:
                report.mismatches.append(EquivalenceMismatch(
                    cycle, sig_a.name, value_a, value_b))
        if not settle_only:
            sim_a.tick()
            sim_b.tick()
        report.cycles += 1
        if (max_mismatches is not None
                and len(report.mismatches) >= max_mismatches):
            report.truncated = report.cycles < cycles
            break
    return report


def assert_modules_equivalent(module_a, module_b, inputs, outputs,
                              cycles=200, seed=0, **kwargs):
    """Raise AssertionError with mismatch details unless equivalent."""
    report = check_equivalence(module_a, module_b, inputs, outputs,
                               cycles=cycles, seed=seed, **kwargs)
    if not report.equivalent:
        shown = "\n".join(str(m) for m in report.mismatches[:5])
        count = (f">={len(report.mismatches)} mismatches, "
                 f"comparison truncated after cycle {report.cycles - 1}"
                 if report.truncated
                 else f"{len(report.mismatches)} mismatches")
        raise AssertionError(f"modules diverge ({count}):\n{shown}")
    return report
