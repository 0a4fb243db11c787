"""Equivalence-checker tests."""

import random

import pytest

from repro.rtl import (
    Module,
    Mux,
    Signal,
    assert_modules_equivalent,
    check_equivalence,
)


def make_abs_diff_mux():
    m = Module("mux-version")
    a, b = Signal(8, name="a"), Signal(8, name="b")
    out = Signal(8, name="out")
    m.d.comb += out.eq(Mux(a >= b, (a - b)[0:8], (b - a)[0:8]))
    return m, a, b, out


def make_abs_diff_if():
    m = Module("if-version")
    a, b = Signal(8, name="a"), Signal(8, name="b")
    out = Signal(8, name="out")
    with m.If(a >= b):
        m.d.comb += out.eq((a - b)[0:8])
    with m.Else():
        m.d.comb += out.eq((b - a)[0:8])
    return m, a, b, out


@pytest.mark.parametrize("backend", ["auto", "interp", "compiled"])
def test_equivalent_implementations_pass(backend):
    m1, a1, b1, o1 = make_abs_diff_mux()
    m2, a2, b2, o2 = make_abs_diff_if()
    report = assert_modules_equivalent(
        m1, m2, inputs=[(a1, a2), (b1, b2)], outputs=[(o1, o2)], cycles=100,
        backend=backend)
    assert report.equivalent and report.cycles == 100


def test_divergent_implementations_caught():
    m1, a1, b1, o1 = make_abs_diff_mux()
    m2 = Module("wrong")
    a2, b2 = Signal(8, name="a2"), Signal(8, name="b2")
    o2 = Signal(8, name="o2")
    m2.d.comb += o2.eq((a2 - b2)[0:8])  # not absolute
    report = check_equivalence(m1, m2, inputs=[(a1, a2), (b1, b2)],
                               outputs=[(o1, o2)], cycles=100)
    assert not report.equivalent
    with pytest.raises(AssertionError):
        assert_modules_equivalent(m1, m2, inputs=[(a1, a2), (b1, b2)],
                                  outputs=[(o1, o2)], cycles=100)


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_sequential_equivalence(backend):
    def counter(step):
        m = Module()
        en = Signal(1, name="en")
        value = Signal(8, name="value")
        with m.If(en):
            m.d.sync += value.eq(value + step)
        return m, en, value

    m1, en1, v1 = counter(1)
    m2, en2, v2 = counter(1)
    report = check_equivalence(m1, m2, inputs=[(en1, en2)],
                               outputs=[(v1, v2)], cycles=50, seed=3,
                               backend=backend)
    assert report.equivalent

    m3, en3, v3 = counter(2)
    report = check_equivalence(m1, m3, inputs=[(en1, en3)],
                               outputs=[(v1, v3)], cycles=50, seed=3,
                               backend=backend)
    assert not report.equivalent


def test_input_bias():
    m1, a1, b1, o1 = make_abs_diff_mux()
    m2, a2, b2, o2 = make_abs_diff_if()
    report = check_equivalence(
        m1, m2, inputs=[(a1, a2), (b1, b2)], outputs=[(o1, o2)],
        cycles=20, input_bias={a1: lambda rng: 0},
    )
    assert report.equivalent


def make_constant_pair():
    m1 = Module("zero")
    x1 = Signal(8, name="x1")
    y1 = Signal(8, name="y1")
    m1.d.comb += y1.eq(0)
    m2 = Module("one")
    x2 = Signal(8, name="x2")
    y2 = Signal(8, name="y2")
    m2.d.comb += y2.eq(1)
    return m1, x1, y1, m2, x2, y2


def test_mismatch_reporting_caps_at_ten():
    m1, x1, y1, m2, x2, y2 = make_constant_pair()
    report = check_equivalence(m1, m2, inputs=[(x1, x2)],
                               outputs=[(y1, y2)], cycles=100)
    assert len(report.mismatches) == 10  # early exit


def test_max_mismatches_truncates_early():
    m1, x1, y1, m2, x2, y2 = make_constant_pair()
    report = check_equivalence(m1, m2, inputs=[(x1, x2)],
                               outputs=[(y1, y2)], cycles=100,
                               max_mismatches=3)
    assert len(report.mismatches) == 3
    assert report.cycles == 3
    assert report.truncated  # later cycles were not compared
    # None disables the cap: every cycle is compared and reported.
    full = check_equivalence(m1, m2, inputs=[(x1, x2)],
                             outputs=[(y1, y2)], cycles=100,
                             max_mismatches=None)
    assert len(full.mismatches) == 100
    assert full.cycles == 100 and not full.truncated


def test_truncated_report_message_says_lower_bound():
    m1, x1, y1, m2, x2, y2 = make_constant_pair()
    with pytest.raises(AssertionError, match="truncated"):
        assert_modules_equivalent(m1, m2, inputs=[(x1, x2)],
                                  outputs=[(y1, y2)], cycles=100)


def test_stimulus_order_contract():
    """Regression for the documented draw order: cycle-major, then input
    list order, one ``getrandbits(width)`` (or bias call) per input from
    a single ``random.Random(seed)`` stream."""
    m1, a1, b1, o1 = make_abs_diff_mux()
    m2, a2, b2, o2 = make_abs_diff_if()
    seed, cycles = 77, 15
    observed = []
    report = check_equivalence(
        m1, m2, inputs=[(a1, a2), (b1, b2)], outputs=[(o1, o2)],
        cycles=cycles, seed=seed,
        input_bias={a1: lambda rng: observed.append(rng.getrandbits(8))
                    or observed[-1]})
    assert report.equivalent
    # Replay the contract: for cycle c, draw a (8 bits) then b (8 bits)
    # from one stream; the bias hook saw exactly the a-draws.
    rng = random.Random(seed)
    expected = []
    for _ in range(cycles):
        expected.append(rng.getrandbits(8))   # input 0 (a, biased hook)
        rng.getrandbits(8)                    # input 1 (b)
    assert observed == expected
