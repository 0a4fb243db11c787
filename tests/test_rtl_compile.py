"""Differential proof of the compiled RTL backend.

Every behaviour the interpreter exhibits — poke/settle/tick semantics,
later-assignment-wins, comb fallback to reset, sign/width rules, memory
read-before-write, tracer timing — must be reproduced bit for bit by
``backend="compiled"``.  This suite checks that on (a) every shipped
gateware CFU, call by call through :class:`RtlCfuAdapter` (whose
compiled path runs each call as one transaction, while the interpreter
keeps the poke-level handshake), and (b) a corpus of randomized
generated netlists, plus the error-path contracts (comb loops,
driven-signal pokes, handshake timeouts, backend selection) and the
per-module program cache that makes ``RtlCfuAdapter.reset()`` cheap.
"""

import itertools
import random
import re

import pytest

from tests.test_accel_winograd import _directed_sequence, small_cfu

from repro.accel import Cfu1Rtl, KwsCfu2Rtl, Mac4Rtl, PostprocRtl, WinogradRtl
from repro.accel.kws import model as km
from repro.accel.library import LIBRARY
from repro.accel.mnv2 import model as cm
from repro.cfu import CfuError, RtlCfuAdapter
from repro.cfu.rtl import CombinationalCfu, RtlCfu
from repro.core import codecache
from repro.rtl import (
    Cat,
    CombLoopError,
    CompiledSimulator,
    CompileError,
    Const,
    Memory,
    Module,
    Mux,
    Repl,
    Signal,
    Simulator,
    compile_module,
)
from repro.rtl import compile as rtl_compile


# --- helpers -----------------------------------------------------------------

def _module_signals(module):
    """Every signal the module's statements and memory ports touch."""
    from repro.rtl.lint import collect_signals

    seen, out = set(), []

    def add_all(sigs):
        for sig in sigs:
            if id(sig) not in seen:
                seen.add(id(sig))
                out.append(sig)

    for _, stmt in module.all_statements():
        add_all([stmt.target_signal()])
        add_all(collect_signals(stmt.rhs))
        if stmt.guard is not None:
            add_all(collect_signals(stmt.guard))
    for mem in module.all_memories():
        for rp in mem.read_ports:
            add_all([rp.data])
            add_all(collect_signals(rp.addr))
        for wp in mem.write_ports:
            add_all(collect_signals(wp.en))
            add_all(collect_signals(wp.addr))
            add_all(collect_signals(wp.data))
    return out


def _assert_state_parity(sim_i, sim_c, module, context=""):
    for sig in _module_signals(module):
        assert sim_i.peek(sig) == sim_c.peek(sig), (context, sig.name)
        assert sim_i.peek_signed(sig) == sim_c.peek_signed(sig), \
            (context, sig.name)
    for mem in module.all_memories():
        assert sim_i.memory(mem) == sim_c.memory(mem), (context, mem.name)
    assert sim_i.time == sim_c.time, context
    # Slot invariant: every compiled slot holds an in-range bit pattern.
    for sig, value in zip(sim_c.program.signals, sim_c._vals):
        assert 0 <= value < (1 << sig.width), (context, sig.name)


# --- shipped gateware CFUs ---------------------------------------------------

class _DoublerRtl(CombinationalCfu):
    name = "doubler"

    def datapath(self, m, ports):
        return ports.cmd_in0 + ports.cmd_in0


def _mnv2_param_seq(rng, channels):
    seq = []
    for _ in range(channels):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    return seq


def _doubler_seq(rng):
    return [(0, 0, rng.getrandbits(32), rng.getrandbits(32))
            for _ in range(40)]


def _postproc_seq(rng):
    seq = _mnv2_param_seq(rng, 8)
    seq += [(cm.F3_POSTPROC, 0, rng.randrange(-2**24, 2**24) & 0xFFFFFFFF, 0)
            for _ in range(40)]
    return seq


def _mac4_seq(rng):
    return [(cm.F3_MAC4, rng.choice([0, 1]), rng.getrandbits(32),
             rng.getrandbits(32)) for _ in range(60)]


def _cfu1_seq(rng):
    depth, channels = 4, 8
    seq = [(cm.F3_CONFIG, cm.CFG_DEPTH, depth, 0)]
    seq += _mnv2_param_seq(rng, channels)
    for _ in range(channels * depth):
        seq.append((cm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((cm.F3_WRITE_INPUT, 1, rng.getrandbits(32), 0))
    for _ in range(depth - 1):
        seq.append((cm.F3_WRITE_INPUT, 0, rng.getrandbits(32), 0))
    for mode in (cm.RUN_RAW, cm.RUN_POSTPROC, cm.RUN_PACK4):
        seq += [(cm.F3_RUN1, mode, 0, 0)] * 2
    return seq


def _kws_seq(rng):
    seq = [
        (km.F3_CONFIG, km.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0),
        (km.F3_CONFIG, km.CFG_SHIFT, -7 & 0xFFFFFFFF, 0),
        (km.F3_CONFIG, km.CFG_OUTPUT, (-10) & 0xFFFFFFFF, 0x80 | (0x7F << 8)),
    ]
    for _ in range(80):
        f3 = rng.choice([km.F3_MAC4, km.F3_MAC1, km.F3_POSTPROC,
                         km.F3_READ_ACC])
        f7 = 1 if f3 in (km.F3_MAC4, km.F3_MAC1) and rng.random() < 0.3 else 0
        seq.append((f3, f7, rng.getrandbits(32), rng.getrandbits(32)))
    return seq


GATEWARE = [
    ("doubler", _DoublerRtl, _doubler_seq),
    ("mnv2-postproc", lambda: PostprocRtl(channels=8), _postproc_seq),
    ("mnv2-mac4", Mac4Rtl, _mac4_seq),
    ("mnv2-cfu1",
     lambda: Cfu1Rtl(channels=8, filter_words=64, input_words=16), _cfu1_seq),
    ("kws-cfu2", KwsCfu2Rtl, _kws_seq),
]


@pytest.mark.parametrize("name,factory,make_seq",
                         GATEWARE, ids=[g[0] for g in GATEWARE])
def test_gateware_cfu_differential(name, factory, make_seq):
    """Interp and compiled adapters agree on every op, cycle count, and
    on the full post-run signal/memory state."""
    cfu = factory()
    adapter_i = RtlCfuAdapter(cfu, backend="interp")
    adapter_c = RtlCfuAdapter(cfu, backend="compiled")
    assert adapter_i.sim.backend == "interp"
    assert adapter_c.sim.backend == "compiled"
    for index, op in enumerate(make_seq(random.Random(7))):
        result_i = adapter_i.execute(*op)
        result_c = adapter_c.execute(*op)
        assert result_i == result_c, (name, index, op)
    _assert_state_parity(adapter_i.sim, adapter_c.sim, cfu.module, name)


def _library_seq(opcodes):
    def make(rng):
        return [(f3, f7, rng.getrandbits(32), rng.getrandbits(32))
                for f3, f7 in (rng.choice(opcodes) for _ in range(40))]
    return make


#: Every shipped gateware CFU: the paper's workload units, the Winograd
#: CFU and the generic library.  simd-add, popcount and byte-reverse
#: never read some handshake ports, so the compiled simulator keeps
#: those pokes outside its slot list.
SHIPPED = [g for g in GATEWARE if g[0] != "doubler"] + [
    ("winograd", lambda: WinogradRtl(**small_cfu()),
     lambda rng: _directed_sequence(rng.randrange(1 << 16), rounds=1)),
] + [(name, rtl_cls, _library_seq(list(opcodes)))
     for name, (_model, rtl_cls, opcodes) in LIBRARY.items()]


def _assert_adapter_parity(adapter_i, adapter_c, context):
    """Both adapters hold the same state: every handshake port (read by
    the netlist or not), every netlist signal, memory, and the clock."""
    for sig in adapter_c.ports.all():
        assert adapter_i.sim.peek(sig) == adapter_c.sim.peek(sig), \
            (context, sig.name)
    _assert_state_parity(adapter_i.sim, adapter_c.sim,
                         adapter_c.rtl.module, context)


def _with_gate(cases, ids):
    """Each case at the default specialisation gate (under its own id)
    and with every funct3 specialised on first use (``-gate1``)."""
    return ([pytest.param(*case, None, id=case_id)
             for case, case_id in zip(cases, ids)]
            + [pytest.param(*case, 1, id=f"{case_id}-gate1")
               for case, case_id in zip(cases, ids)])


def _assert_gate_held(program):
    """Exactly the funct3 values called SPECIALIZE_AFTER times have a
    generated transaction."""
    for funct3, (transact, calls) in enumerate(
            zip(program.transactions, program.calls)):
        assert (transact is not None) == \
            (calls >= rtl_compile.SPECIALIZE_AFTER), funct3


def _lockstep(cfu, seq, context):
    """Run ``seq`` on interp and compiled adapters in lockstep: both
    agree after every call, and again after both restore a snapshot
    taken mid-sequence and replay it.  Returns the compiled adapter."""
    adapter_i = RtlCfuAdapter(cfu, backend="interp")
    adapter_c = RtlCfuAdapter(cfu, backend="compiled")
    adapters = (adapter_i, adapter_c)
    assert adapter_c.sim.backend == "compiled"
    half = len(seq) // 2

    def run(ops, start):
        results = []
        for index, op in enumerate(ops, start):
            got = adapter_i.execute(*op)
            assert adapter_c.execute(*op) == got, (context, index, op)
            _assert_adapter_parity(adapter_i, adapter_c, (context, index))
            results.append(got)
        return results

    run(seq[:half], 0)
    assert adapter_c._slots is not None  # ran as one transaction
    # Snapshot straight after a call, before anything settles its state.
    got = adapter_i.execute(*seq[half])
    assert adapter_c.execute(*seq[half]) == got, (context, half)
    saved = [each.snapshot_state() for each in adapters]
    tail = run(seq[half + 1:], half + 1)
    for each, state in zip(adapters, saved):
        each.restore_state(state)
    _assert_adapter_parity(adapter_i, adapter_c, (context, "restored"))
    assert run(seq[half + 1:], half + 1) == tail
    # Writes through memory() land on the state the last call left.
    adapter_i.execute(*seq[-1])
    adapter_c.execute(*seq[-1])
    for each in adapters:
        for mem in cfu.module.all_memories():
            each.sim.memory(mem)[0] ^= 1
    _assert_adapter_parity(adapter_i, adapter_c, (context, "memory"))
    return adapter_c


@pytest.mark.parametrize("name,factory,make_seq,gate",
                         _with_gate(SHIPPED, [g[0] for g in SHIPPED]))
def test_adapter_lockstep_every_call(name, factory, make_seq, gate,
                                     monkeypatch):
    """Interp and compiled adapters agree after every call, and again
    after both restore a snapshot taken mid-sequence and replay it."""
    if gate is not None:
        monkeypatch.setattr(rtl_compile, "SPECIALIZE_AFTER", gate)
    seq = make_seq(random.Random(11))
    program = _lockstep(factory(), seq, name).sim.program
    _assert_gate_held(program)
    assert any(program.transactions) or gate is None


class _NeverReadyRtl(RtlCfu):
    """Never raises ``cmd_ready``."""

    name = "never-ready"

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(0)
        m.d.comb += ports.rsp_valid.eq(ports.cmd_valid)
        m.d.comb += ports.rsp_out.eq(ports.cmd_in0)


class _SilentRtl(RtlCfu):
    """Accepts every command and never answers."""

    name = "silent"

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(1)
        m.d.comb += ports.rsp_valid.eq(0)
        m.d.comb += ports.rsp_out.eq(ports.cmd_in0)


_TIMEOUTS = [(_NeverReadyRtl, "command never accepted"),
             (_SilentRtl, "no response after 6 cycles")]


@pytest.mark.parametrize("factory,message,gate", _with_gate(
    _TIMEOUTS, [f"{f.__name__}-{message}" for f, message in _TIMEOUTS]))
def test_handshake_timeouts_match(factory, message, gate, monkeypatch):
    """Both timeouts raise after the same number of clocks (timeout + 1)
    on both backends, leaving the same port state behind; a generated
    transaction that cannot answer in one cycle falls back to the same
    wait loops."""
    if gate is not None:
        monkeypatch.setattr(rtl_compile, "SPECIALIZE_AFTER", gate)
    adapters = [RtlCfuAdapter(factory(), timeout=5, backend=backend)
                for backend in ("interp", "compiled")]
    for adapter in adapters:
        for call in range(2):
            with pytest.raises(CfuError, match=message):
                adapter.execute(3, 9, 0x12345678, 0x9ABCDEF0)
            assert adapter.sim.time == 6 * (call + 1), adapter.backend
    interp, compiled = adapters
    assert compiled._slots is not None  # ran as one transaction
    _assert_gate_held(compiled.sim.program)
    for sig_i, sig_c in zip(interp.ports.all(), compiled.ports.all()):
        assert interp.sim.peek(sig_i) == compiled.sim.peek(sig_c), sig_i.name


# --- generated per-funct3 transactions ---------------------------------------

class _FuzzCfu(RtlCfu):
    """A seeded random CFU whose ``cmd_funct3``/``cmd_funct7`` feed every
    construct the transaction generator folds: If/Elif/Else and
    Switch/Case guards, Mux selects, slices, Cat/Repl, signed compares,
    shifts, ``r&``/``r^``, memory write enables and comb/sync read
    ports.  An FSM answers one funct3 after several cycles and, in some
    netlists, refuses commands for a cycle after answering."""

    name = "fuzz"

    def __init__(self, seed):
        self.seed = seed
        super().__init__()

    def elaborate(self, m, ports):
        rng = random.Random(self.seed)
        f3, f7 = ports.cmd_funct3, ports.cmd_funct7
        regs = [Signal(rng.choice([3, 8, 16, 32]), name=f"fz_r{i}",
                       signed=rng.random() < 0.4, reset=rng.getrandbits(8))
                for i in range(3)]
        mem = m.add_memory(Memory(width=rng.choice([8, 16]), depth=8,
                                  name="fz_mem",
                                  init=[rng.getrandbits(8) for _ in range(5)]))
        comb_rp, sync_rp = mem.read_port("comb"), mem.read_port("sync")
        write = mem.write_port()
        pool = [f3, f7, ports.cmd_in0, ports.cmd_in1, sync_rp.data] + regs

        def expr(depth=0):
            if depth >= 2 or rng.random() < 0.25:
                if rng.random() < 0.15:
                    return Const(rng.getrandbits(6), 6)
                return rng.choice(pool)
            a, b = expr(depth + 1), expr(depth + 1)
            kind = rng.randrange(12)
            if kind == 0:
                return a + b if rng.random() < 0.5 else a - b
            if kind == 1:
                return a * b[0:min(8, b.width)]
            if kind == 2:
                return rng.choice([a & b, a | b, a ^ ~b])
            if kind == 3:
                return Mux(f3 == rng.randrange(8), a, b)
            if kind == 4:
                return Mux(f7[rng.randrange(7)], a.as_signed(), b)
            if kind == 5:
                return Cat(a[0:min(5, a.width)], f3, Repl(f7[0:2], 3))
            if kind == 6:
                return Cat(a.as_signed() < b.as_signed(), a.all(), b.xor(),
                           a >= f7, f7 != rng.randrange(128))
            if kind == 7:
                return a << f3
            if kind == 8:
                return a.as_signed() >> f7[0:2]
            if kind == 9:
                start = rng.randrange(a.width)
                return a[start:rng.randrange(start + 1, a.width + 1)]
            if kind == 10:
                return Mux(f3[rng.randrange(3)] & b.any(), b, a)
            return (f3 == rng.randrange(8)) | (f7 == rng.randrange(4))

        # The comb port's address must not read its own data.
        m.d.comb += comb_rp.addr.eq(expr())
        pool.append(comb_rp.data)

        for i in range(rng.randrange(3, 6)):
            width = rng.choice([4, 8, 16, 32])
            sig = Signal(width, name=f"fz_c{i}", signed=rng.random() < 0.3,
                         reset=rng.getrandbits(4))
            style = rng.randrange(3)
            if style == 0:
                m.d.comb += sig.eq(expr())
            elif style == 1:
                with m.Switch(f3):
                    for value in rng.sample(range(8), 3):
                        with m.Case(value):
                            m.d.comb += sig.eq(expr())
                    if rng.random() < 0.5:
                        with m.Case():
                            m.d.comb += sig.eq(expr())
            else:
                m.d.comb += sig[0:width // 2].eq(expr())
                with m.If((f7 == rng.randrange(4)) | f3[0]):
                    m.d.comb += sig[width // 2:width].eq(expr())
            pool.append(sig)

        # FSM: the slow funct3 answers 2-5 cycles after it is latched.
        state = Signal(2, name="fz_state")  # idle, busy, done, cooling
        count = Signal(2, name="fz_count")
        out = Signal(32, name="fz_out")
        idle = state == 0
        refuses = rng.random() < 0.7  # cmd_ready is idle, not 1
        m.d.comb += ports.cmd_ready.eq(idle if refuses else 1)
        accepted = ports.cmd_valid & ports.cmd_ready & ports.rsp_ready
        slow = rng.randrange(8)
        with m.If(accepted & idle & (f3 == slow)):
            m.d.sync += [state.eq(1), count.eq(f7[0:2]), out.eq(expr())]
        with m.Elif(state == 1):
            with m.If(count == 0):
                m.d.sync += state.eq(2)
            with m.Else():
                m.d.sync += count.eq(count - 1)
        with m.Elif((state == 2) & ports.rsp_ready):
            m.d.sync += state.eq(3 if refuses and rng.random() < 0.5 else 0)
        with m.Elif(state == 3):
            m.d.sync += state.eq(0)

        for reg in regs:
            with m.If(accepted & (f3 == rng.randrange(8))):
                m.d.sync += reg.eq(expr())
            with m.Elif(accepted & f7[rng.randrange(7)]):
                m.d.sync += reg[0:min(4, reg.width)].eq(expr())
            if rng.random() < 0.5:
                with m.Else():
                    m.d.sync += reg.eq(reg + 1)
        # A pipeline stage copies a register updated in the same edge.
        pipe = Signal(regs[0].width, name="fz_pipe")
        m.d.sync += pipe.eq(regs[0])
        pool.append(pipe)

        m.d.comb += sync_rp.addr.eq(expr())
        m.d.comb += write.addr.eq(expr())
        m.d.comb += write.data.eq(expr())
        m.d.comb += write.en.eq(accepted & (f3 == rng.randrange(8))
                                & f7[rng.randrange(7)])

        result = Signal(32, name="fz_result")
        with m.Switch(f3):
            for value in range(8):
                with m.Case(value):
                    m.d.comb += result.eq(expr())
        m.d.comb += ports.rsp_valid.eq(
            (ports.cmd_valid & idle & (f3 != slow)) | (state == 2))
        m.d.comb += ports.rsp_out.eq(Mux(state == 2, out, result))


@pytest.mark.parametrize("seed", range(12))
def test_transaction_fuzz_lockstep(seed, monkeypatch):
    """Random CFUs with every funct3 specialised on first use: results,
    cycles, every port, signal and memory and the clock match the
    interpreter after every call, across a snapshot and restore."""
    monkeypatch.setattr(rtl_compile, "SPECIALIZE_AFTER", 1)
    rng = random.Random(seed + 500)
    funct3s = list(range(8)) * 12
    rng.shuffle(funct3s)
    seq = [(f3, rng.getrandbits(7), rng.getrandbits(32), rng.getrandbits(32))
           for f3 in funct3s]
    adapter = _lockstep(_FuzzCfu(seed), seq, f"fuzz{seed}")
    assert all(adapter.sim.program.transactions)


def test_specialisation_gate_and_reuse():
    """A funct3 is specialised on its SPECIALIZE_AFTER-th call, never
    before; ``reset()`` and a second adapter on the same module reuse
    the program's transaction without generating or binding again."""
    gate = rtl_compile.SPECIALIZE_AFTER
    cfu = KwsCfu2Rtl()
    adapter = RtlCfuAdapter(cfu, backend="compiled")
    program = adapter.sim.program
    mac4 = (km.F3_MAC4, 0, 0x01020304, 0x01010101)
    for _ in range(gate - 1):
        adapter.execute(*mac4)
    assert not any(program.transactions)
    assert program.calls[km.F3_MAC4] == gate - 1

    def activity():  # code-cache lookups: one per generated or bound program
        stats = codecache.default_cache().stats
        return stats.hits + stats.misses

    before = activity()
    assert adapter.execute(*mac4) == (10 * gate & 0xFFFFFFFF, 1)
    assert program.transactions[km.F3_MAC4] is not None
    assert sum(map(bool, program.transactions)) == 1
    assert activity() == before + 1

    adapter.reset()
    second = RtlCfuAdapter(cfu, backend="compiled")
    for used in (adapter, second):
        assert used.sim.program is program
        assert used.execute(*mac4) == (10, 1)
        assert used.execute(*mac4) == (20, 1)
    assert activity() == before + 1


# --- randomized generated netlists -------------------------------------------

def _random_netlist(seed):
    """Build a random acyclic module exercising the whole construct set.

    Comb targets only ever read signals generated before them, so the
    netlist is levelizable by construction; sync registers and memory
    read ports may feed back freely.
    """
    rng = random.Random(seed)
    m = Module(f"rand{seed}")
    inputs = [Signal(rng.choice([1, 3, 8, 16, 32]), name=f"in{i}",
                     signed=rng.random() < 0.3)
              for i in range(4)]
    pool = list(inputs)
    memories = []

    def operand():
        return rng.choice(pool)

    def expr(depth=0):
        if depth >= 2 or rng.random() < 0.3:
            if rng.random() < 0.15:
                return Const(rng.getrandbits(8), 8)
            return operand()
        a, b = expr(depth + 1), expr(depth + 1)
        kind = rng.randrange(13)
        if kind == 0:
            return a + b
        if kind == 1:
            return a - b
        if kind == 2:
            return a * b
        if kind == 3:
            return a & b
        if kind == 4:
            return a | b
        if kind == 5:
            return a ^ b
        if kind == 6:
            return ~a
        if kind == 7:
            return a << Const(rng.randrange(0, 4), 2)
        if kind == 8:
            return a >> Const(rng.randrange(0, 4), 2)
        if kind == 9:
            return Mux(a.any(), a, b)
        if kind == 10:
            return Cat(a[0:min(8, a.width)], b[0:min(8, b.width)])
        if kind == 11:
            return rng.choice([a == b, a != b, a < b, a >= b])
        return rng.choice([a.any(), a.all(), a.xor(),
                           a.as_signed(), a.as_unsigned()])

    def condition():
        return rng.choice([operand().any(), expr(depth=1).any(),
                           operand()[0], operand() == operand()])

    # Combinational chain: plain, guarded, and slice-assigned targets.
    for i in range(rng.randrange(6, 12)):
        width = rng.choice([1, 4, 8, 16, 24])
        sig = Signal(width, name=f"c{i}", signed=rng.random() < 0.25,
                     reset=rng.getrandbits(min(width, 12)) & ((1 << width) - 1))
        style = rng.random()
        if style < 0.4 or width < 4:
            m.d.comb += sig.eq(expr())
        elif style < 0.75:  # priority mux; later assignment wins on overlap
            with m.If(condition()):
                m.d.comb += sig.eq(expr())
            with m.Elif(condition()):
                m.d.comb += sig.eq(expr())
            with m.Else():
                m.d.comb += sig.eq(expr())
            if rng.random() < 0.3:
                with m.If(condition()):
                    m.d.comb += sig.eq(expr())
        else:  # partial (slice) assignment, lower half always, upper guarded
            half = width // 2
            m.d.comb += sig[0:half].eq(expr())
            with m.If(condition()):
                m.d.comb += sig[half:width].eq(expr())
        pool.append(sig)

    # Synchronous registers (may read themselves and anything else).
    for i in range(rng.randrange(2, 5)):
        width = rng.choice([4, 8, 16])
        reg = Signal(width, name=f"r{i}", reset=rng.getrandbits(width))
        pool.append(reg)
        if rng.random() < 0.5:
            m.d.sync += reg.eq(expr())
        else:
            with m.If(condition()):
                m.d.sync += reg.eq(expr())
            with m.Else():
                m.d.sync += reg.eq(reg + 1)

    # A memory with comb + sync read ports and a write port.
    if rng.random() < 0.8:
        mem = Memory(width=rng.choice([8, 12]), depth=rng.choice([4, 8]),
                     name="m0",
                     init=[rng.getrandbits(8) for _ in range(3)])
        m.add_memory(mem)
        memories.append(mem)
        crp = mem.read_port("comb")
        srp = mem.read_port("sync")
        wp = mem.write_port()
        for port_sig in (crp.addr, srp.addr, wp.addr, wp.data):
            m.d.comb += port_sig.eq(expr())
        m.d.comb += wp.en.eq(condition())
        pool.append(crp.data)
        pool.append(srp.data)

    # A little more comb logic on top of the memory outputs.
    for i in range(2):
        sig = Signal(8, name=f"post{i}")
        m.d.comb += sig.eq(expr())
        pool.append(sig)

    return m, inputs, memories


@pytest.mark.parametrize("seed", range(25))
def test_random_netlist_differential(seed):
    """Lockstep poke/settle/tick on interp vs compiled, full-state checks."""
    module, inputs, memories = _random_netlist(seed)
    sim_i = Simulator(module, backend="interp")
    sim_c = Simulator(module, backend="compiled")
    assert isinstance(sim_c, CompiledSimulator)
    rng = random.Random(seed + 1000)
    _assert_state_parity(sim_i, sim_c, module, "initial")
    for step in range(30):
        for sig in inputs:
            value = rng.getrandbits(sig.width)
            sim_i.poke(sig, value)
            sim_c.poke(sig, value)
        action = rng.random()
        if action < 0.4:
            sim_i.settle()
            sim_c.settle()
        elif action < 0.5:
            pass  # peek stale, un-settled state on both sides
        else:
            cycles = rng.randrange(1, 4)
            sim_i.tick(cycles)
            sim_c.tick(cycles)
        _assert_state_parity(sim_i, sim_c, module, f"step {step}")


def test_random_netlist_tracer_parity():
    """RTL tracers fire at the same times and observe the same values."""
    module, inputs, _ = _random_netlist(3)
    sim_i = Simulator(module, backend="interp")
    sim_c = Simulator(module, backend="compiled")
    watch = _module_signals(module)
    streams = {"i": [], "c": []}

    def tracer(key):
        return lambda time, sim: streams[key].append(
            (time, tuple(sim.peek(sig) for sig in watch)))

    sim_i.add_tracer(tracer("i"))
    sim_c.add_tracer(tracer("c"))
    rng = random.Random(99)
    for _ in range(20):
        for sig in inputs:
            value = rng.getrandbits(sig.width)
            sim_i.poke(sig, value)
            sim_c.poke(sig, value)
        sim_i.tick()
        sim_c.tick()
    assert streams["i"] == streams["c"]


# --- signedness / reinterpret corners ---------------------------------------

def test_signed_reinterpret_differential():
    raw = Signal(8, name="raw")
    out = Signal(16, name="out", signed=True)
    shifted = Signal(16, name="shifted", signed=True)
    m = Module("reint")
    m.d.comb += out.eq(raw.as_signed())
    m.d.comb += shifted.eq(raw.as_signed() >> 2)
    sim_i = Simulator(m, backend="interp")
    sim_c = Simulator(m, backend="compiled")
    for value in (0, 1, 0x7F, 0x80, 0xFF):
        sim_i.poke(raw, value)
        sim_c.poke(raw, value)
        sim_i.settle()
        sim_c.settle()
        for sig in (out, shifted):
            assert sim_i.peek(sig) == sim_c.peek(sig), value
            assert sim_i.peek_signed(sig) == sim_c.peek_signed(sig), value


# --- range-aware lowering ----------------------------------------------------

def _edges(signal):
    """Zero, one, all ones and both sides of the sign bit."""
    mask = (1 << signal.width) - 1
    return sorted({0, 1, mask, mask >> 1, (mask >> 1) + 1})


def _range_corners():
    """Expressions whose intervals leave their width (mixed-sign sums
    that overflow ``max(w) + 1`` bits, ``neg`` of the minimum, ``~``,
    shifts past the 64-bit ``<<`` cap, mixed-sign ``Mux`` arms,
    reinterpreted sums) or only just fit it."""
    u7 = Signal(7, name="u7")
    u8, s8 = Signal(8, name="u8"), Signal(8, name="s8", signed=True)
    u32, s32 = Signal(32, name="u32"), Signal(32, name="s32", signed=True)
    u33, s33 = Signal(33, name="u33"), Signal(33, name="s33", signed=True)
    u64, s64 = Signal(64, name="u64"), Signal(64, name="s64", signed=True)
    return [
        u8 + s8, s8 - u8, u32 - s32, u33 + s33, s33 - u33, s32 * s32,
        -s32, -u8, -(u64 - s8), ~(s8 + s8), ~u8, ~(u8 - u8),
        (u8 + u8).as_signed() >> 1, (u8 - s8).as_unsigned() >> 1,
        s64 << u7, (u64 << u7) >> 60, (s8 << u7) + 1,
        Mux(u7[0], s8, u32) + 1, Mux(u7[1], u8 + s8, s32 - u8) * 3,
        Mux(u7[2], u8 - u8, s8) >> 1, Mux(u7[3], s8, -u8).any(),
        (s8 + s8) & s32, (u8 - u32) | s8, (s64 * s64) ^ u64,
        (u8 + s8) < 0, (u8 - u32)[4:40], Cat(s8 + s8, u8 - u8),
        (u33 - s8).all(), (s33 + s8).xor(),
    ]


def test_range_corners_match_interpreter():
    """Every node of each corner expression, read back through a signal
    of its own, agrees with the interpreter at every combination of
    extreme inputs."""
    from tests.test_rtl_properties import observed

    for expr in _range_corners():
        nodes = observed(expr)
        outs = [Signal(min(64, node.width), signed=node.signed)
                for node in nodes]
        m = Module()
        m.d.comb += [out.eq(node) for out, node in zip(outs, nodes)]
        inputs = rtl_compile._reads(expr)
        sims = [Simulator(m, backend=backend)
                for backend in ("interp", "compiled")]
        for values in itertools.product(*map(_edges, inputs)):
            for sim in sims:
                for signal, value in zip(inputs, values):
                    sim.poke(signal, value)
                sim.settle()
            assert ([sims[0].peek(out) for out in outs]
                    == [sims[1].peek(out) for out in outs]), (expr, values)


def test_mac4_transaction_masks_only_the_accumulator_write():
    """kws-cfu2's MAC4 transaction: the lane products and their running
    sum are plain arithmetic, every interval fitting its width; the
    only masks are the byte-lane slices and the 32-bit accumulator
    write, the only sign conversions the lanes' and the accumulator's."""
    adapter = RtlCfuAdapter(KwsCfu2Rtl(), backend="compiled")
    source = rtl_compile._codegen_transaction(
        adapter.sim.program, km.F3_MAC4, adapter.ports)
    masks = re.findall(r"& (\d+)", source)
    assert set(masks) == {"255", "4294967295"}
    assert masks.count("4294967295") == 1
    assert set(re.findall(r"\^ (\d+)", source)) == {"128", "2147483648"}
    # One expression computes the accumulator's sum of four lane
    # products and masks it once, for the register write and response.
    name, expr = re.search(r"    (_t\d+) = (.*) & 4294967295\n",
                           source).groups()
    assert expr.count(" * ") == source.count(" * ") == 4
    assert source.endswith(f"] = {name}\n    return {name}\n")


@pytest.mark.parametrize("a_signed,masked", [(False, True), (True, False)],
                         ids=["u8+s8", "s8+s8"])
def test_sum_masks_only_when_it_can_overflow(a_signed, masked):
    """``u8 + s8`` spans [-128, 382], past its 9-bit signed range, so
    its numeric value is recovered through the 9-bit mask; ``s8 + s8``
    fits and is used as it is."""
    a = Signal(8, name="a", signed=a_signed)
    b = Signal(8, name="b", signed=True)
    out = Signal(16, name="out", signed=True)
    m = Module()
    m.d.comb += out.eq((a + b) >> 1)
    assert ("& 511" in compile_module(m).source) == masked
    sims = [Simulator(m, backend=backend)
            for backend in ("interp", "compiled")]
    for sim in sims:
        sim.poke(a, 0xFF)
        sim.poke(b, 0x7F)
        sim.settle()
    expected = (-130 if a_signed is False else 126) >> 1
    assert [sim.peek_signed(out) for sim in sims] == [expected] * 2


# --- backend selection & error paths -----------------------------------------

def test_backend_selection():
    a, out = Signal(8, name="a"), Signal(8, name="out")
    m = Module()
    m.d.comb += out.eq(a + 1)
    assert Simulator(m).backend == "compiled"  # auto picks compiled
    assert Simulator(m, backend="compiled").backend == "compiled"
    assert Simulator(m, backend="interp").backend == "interp"
    with pytest.raises(ValueError):
        Simulator(m, backend="verilator")


def _loop_module():
    a, b = Signal(8, name="a"), Signal(8, name="b")
    m = Module("loop")
    m.d.comb += a.eq(b + 1)
    m.d.comb += b.eq(a + 1)
    return m, a, b


def test_comb_loop_compiled_raises_compile_error():
    m, _, _ = _loop_module()
    with pytest.raises(CompileError) as excinfo:
        Simulator(m, backend="compiled")
    message = str(excinfo.value)
    assert "a" in message and "b" in message and "cycle" in message


def test_comb_loop_auto_falls_back_and_reports_path():
    m, a, b = _loop_module()
    with pytest.raises(CombLoopError) as excinfo:
        Simulator(m)  # auto -> interp, which raises from the initial settle
    err = excinfo.value
    assert sorted(err.unstable) == ["a", "b"]
    assert err.cycle and err.cycle[0] == err.cycle[-1]
    assert "a" in str(err) and "b" in str(err)


def test_guarded_pseudo_latch_falls_back_to_interp():
    """A structural loop whose guard is never true: unschedulable by the
    compiler, but the interpreter settles it — auto must pick interp."""
    en = Signal(1, name="en")
    a, b = Signal(8, name="a", reset=5), Signal(8, name="b")
    m = Module("latchish")
    with m.If(en):
        m.d.comb += a.eq(b)
        m.d.comb += b.eq(a)
    sim = Simulator(m)
    assert sim.backend == "interp"
    sim.settle()
    assert sim.peek(a) == 5


def test_poke_driven_signal_rejected_both_backends():
    a, out = Signal(8, name="a"), Signal(8, name="out")
    reg = Signal(8, name="reg")
    m = Module()
    m.d.comb += out.eq(a + 1)
    m.d.sync += reg.eq(a)
    for backend in ("interp", "compiled"):
        sim = Simulator(m, backend=backend)
        sim.poke(a, 3)  # inputs are fine
        for driven in (out, reg):
            with pytest.raises(ValueError):
                sim.poke(driven, 1)


def test_comb_sync_conflict_rejected_both_backends():
    sig = Signal(8, name="sig")
    m = Module()
    m.d.comb += sig.eq(1)
    m.d.sync += sig.eq(2)
    for backend in ("interp", "compiled"):
        with pytest.raises(ValueError):
            Simulator(m, backend=backend)


def test_peek_and_poke_untouched_signal():
    """Signals the program never saw still peek/poke sensibly (the ISA
    adapter pokes rsp_ready even when a CFU ignores it)."""
    a, out = Signal(8, name="a"), Signal(8, name="out")
    stranger = Signal(4, name="stranger", reset=9)
    m = Module()
    m.d.comb += out.eq(a)
    sim = Simulator(m, backend="compiled")
    assert sim.peek(stranger) == 9
    sim.poke(stranger, 0x13)  # masked to width
    assert sim.peek(stranger) == 3


# --- program cache & adapter reset -------------------------------------------

def test_program_cache_is_per_module():
    cfu = Mac4Rtl()
    program = compile_module(cfu.module)
    assert compile_module(cfu.module) is program
    assert compile_module(Mac4Rtl().module) is not program
    assert "def comb" in program.source and "def tick" in program.source
    assert program.levels >= 1


def test_adapter_reset_reuses_compiled_program():
    cfu = KwsCfu2Rtl()
    adapter = RtlCfuAdapter(cfu, backend="compiled")
    program = adapter.sim.program
    adapter.execute(km.F3_MAC4, 1, 0x01020304, 0x01010101)
    adapter.reset()
    assert adapter.sim.program is program
    assert adapter.sim.backend == "compiled"


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_adapter_reset_matches_fresh_adapter(backend):
    """Post-reset behaviour is indistinguishable from a new adapter."""
    seq = _kws_seq(random.Random(17))
    used = RtlCfuAdapter(KwsCfu2Rtl(), backend=backend)
    for op in seq[:30]:
        used.execute(*op)
    used.reset()
    fresh = RtlCfuAdapter(KwsCfu2Rtl(), backend=backend)
    for index, op in enumerate(seq):
        assert used.execute(*op) == fresh.execute(*op), (index, op)
