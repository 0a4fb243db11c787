"""Property-based tests: the RTL simulator vs a Python semantic oracle.

Hypothesis builds random expression trees over a fixed set of input
signals; each tree is evaluated (a) by the cycle-accurate simulator on
both backends — the interpreter and the compiled, range-aware code
generator — and (b) by a direct Python interpretation of the same
operator semantics.  Any divergence is a simulator bug — this is the
deepest safety net under every CFU in the repository.

The inputs and operators reach the corners where an interval decides
whether the compiled code must mask or sign-convert: 32-, 33- and
64-bit operands at their extreme values, ``neg``, reinterpreted sums,
mixed-sign ``+``/``-`` that overflow the AST's ``max(w) + 1`` bits,
shift amounts from a 7-bit operand (past the 64-bit ``<<`` cap) and
mixed-sign ``Mux`` arms.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl import Cat, Const, Module, Mux, Repl, Signal, Simulator
from repro.rtl.ast import to_signed, to_unsigned

INPUTS = [
    Signal(1, name="bit"),
    Signal(7, name="u7"),
    Signal(8, name="u8"),
    Signal(8, name="s8", signed=True),
    Signal(16, name="u16"),
    Signal(16, name="s16", signed=True),
    Signal(32, name="u32"),
    Signal(32, name="s32", signed=True),
    Signal(33, name="u33"),
    Signal(33, name="s33", signed=True),
    Signal(64, name="u64"),
    Signal(64, name="s64", signed=True),
]
SHIFT = INPUTS[1]  # 7 bits: shift amounts up to 127


def input_values(signal):
    """Bit patterns of ``signal``, biased to its extremes: zero, one,
    all ones and both sides of the sign bit."""
    mask = (1 << signal.width) - 1
    edges = sorted({0, 1, mask, mask >> 1, (mask >> 1) + 1})
    return st.one_of(st.sampled_from(edges), st.integers(0, mask))


def oracle(value, env):
    """Reference evaluation of the expression AST in plain Python."""
    from repro.rtl.ast import Operator, Reinterpret, Slice

    def num(v):
        raw = oracle(v, env)
        return to_signed(raw, v.width) if v.signed else raw

    if isinstance(value, Const):
        return value.value
    if isinstance(value, Signal):
        return env[value]
    if isinstance(value, Slice):
        return (oracle(value.value, env) >> value.start) & (
            (1 << value.width) - 1)
    if isinstance(value, Cat):
        out, shift = 0, 0
        for part in value.parts:
            out |= oracle(part, env) << shift
            shift += part.width
        return out
    if isinstance(value, Repl):
        bits = oracle(value.value, env)
        out = 0
        for i in range(value.count):
            out |= bits << (i * value.value.width)
        return out
    if isinstance(value, Mux):
        chosen = value.if_true if oracle(value.sel, env) else value.if_false
        raw = oracle(chosen, env)
        if chosen.signed:
            raw = to_signed(raw, chosen.width)
        return to_unsigned(raw, value.width)
    if isinstance(value, Reinterpret):
        return oracle(value.value, env)
    if isinstance(value, Operator):
        op, ops = value.op, value.ops
        table = {
            "+": lambda: num(ops[0]) + num(ops[1]),
            "-": lambda: num(ops[0]) - num(ops[1]),
            "*": lambda: num(ops[0]) * num(ops[1]),
            "&": lambda: (to_unsigned(num(ops[0]), value.width)
                          & to_unsigned(num(ops[1]), value.width)),
            "|": lambda: (to_unsigned(num(ops[0]), value.width)
                          | to_unsigned(num(ops[1]), value.width)),
            "^": lambda: (to_unsigned(num(ops[0]), value.width)
                          ^ to_unsigned(num(ops[1]), value.width)),
            "~": lambda: ~oracle(ops[0], env),
            "neg": lambda: -num(ops[0]),
            "<<": lambda: num(ops[0]) << oracle(ops[1], env),
            ">>": lambda: num(ops[0]) >> oracle(ops[1], env),
            "==": lambda: int(num(ops[0]) == num(ops[1])),
            "!=": lambda: int(num(ops[0]) != num(ops[1])),
            "<": lambda: int(num(ops[0]) < num(ops[1])),
            "<=": lambda: int(num(ops[0]) <= num(ops[1])),
            ">": lambda: int(num(ops[0]) > num(ops[1])),
            ">=": lambda: int(num(ops[0]) >= num(ops[1])),
            "b": lambda: int(oracle(ops[0], env) != 0),
            "r&": lambda: int(oracle(ops[0], env)
                              == (1 << ops[0].width) - 1),
            "r^": lambda: bin(oracle(ops[0], env)).count("1") & 1,
        }
        return to_unsigned(table[op](), value.width)
    raise TypeError(value)


@st.composite
def leaves(draw):
    """An input signal, or a constant: unsigned, or signed and negative."""
    choice = draw(st.integers(0, len(INPUTS) + 1))
    if choice < len(INPUTS):
        return INPUTS[choice]
    if choice == len(INPUTS):
        return draw(st.integers(0, 255))
    return Const(draw(st.integers(-(1 << 40), -1)))


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(leaves())
    kind = draw(st.sampled_from(
        ["add", "sub", "mul", "and", "or", "xor", "not", "neg", "shift_l",
         "shift_l7", "shift_r", "cmp", "mux", "mux_mixed", "cat", "slice",
         "reduce", "as_signed", "as_unsigned"]))
    from repro.rtl.ast import Value

    a = Value.wrap(draw(expressions(depth=depth + 1)))
    if kind == "not":
        return ~a
    if kind == "neg":
        return -a
    if kind == "slice":
        hi = draw(st.integers(1, a.width))
        lo = draw(st.integers(0, hi - 1))
        return a[lo:hi]
    if kind == "reduce":
        return draw(st.sampled_from([a.bool(), a.all(), a.xor()]))
    b = Value.wrap(draw(expressions(depth=depth + 1)))
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "xor":
        return a ^ b
    if kind == "shift_l":
        return a << (b[0:3])
    if kind == "shift_l7":  # amounts past the 64 extra bits << allows
        return a << draw(st.sampled_from([SHIFT, b[0:7]]))
    if kind == "shift_r":
        return a >> (b[0:3])
    if kind == "cmp":
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        return {"==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    if kind == "mux":
        sel = Value.wrap(draw(expressions(depth=depth + 1)))
        return Mux(sel.bool(), a, b)
    if kind == "mux_mixed":
        sel = Value.wrap(draw(expressions(depth=depth + 1)))
        return Mux(sel.bool(), a.as_signed(), b.as_unsigned())
    if kind == "as_signed":
        return (a + b).as_signed()
    if kind == "as_unsigned":
        return (a - b).as_unsigned()
    if kind == "cat":
        return Cat(a, b)
    raise AssertionError(kind)


def observed(expr):
    """The nodes a test reads back: every distinct inner node of the
    tree, so a wrong interval shows where it is made, not only where it
    reaches the root (a leaf root is its own only node)."""
    seen, nodes, stack = set(), [], [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, (Signal, Const)):
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.operands())
    return nodes or [expr]


def expected_bits(node, env, width):
    """The bits a ``width``-bit signal assigned ``node`` holds."""
    raw = oracle(node, env)
    if node.signed:
        raw = to_signed(to_unsigned(raw, node.width), node.width)
    return to_unsigned(raw, width)


@settings(max_examples=300, deadline=None)
@given(expr=expressions(),
       values=st.tuples(*[input_values(s) for s in INPUTS]))
def test_simulator_matches_python_oracle(expr, values):
    from repro.rtl.ast import Value

    nodes = observed(Value.wrap(expr))
    outs = [Signal(min(64, node.width), name=f"out{index}",
                   signed=node.signed) for index, node in enumerate(nodes)]
    m = Module()
    m.d.comb += [out.eq(node) for out, node in zip(outs, nodes)]
    env = dict(zip(INPUTS, values))
    expected = [expected_bits(node, env, out.width)
                for out, node in zip(outs, nodes)]
    for backend in ("interp", "compiled"):
        sim = Simulator(m, backend=backend)
        assert sim.backend == backend
        for signal, value in env.items():
            sim.poke(signal, value)
        sim.settle()
        assert [sim.peek(out) for out in outs] == expected, backend
