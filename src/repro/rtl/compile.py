"""Compiled simulation backend: schedule once, codegen the netlist.

The reference :class:`~repro.rtl.sim.Simulator` interprets the module's
guarded-assignment lists and settles combinational logic by fixpoint
iteration — robust, but every ``settle()`` re-walks every expression
tree once per logic level until nothing changes.  This module lowers a
:class:`~repro.rtl.dsl.Module` hierarchy *once* into two specialized
Python functions:

- ``comb(V, M)`` — a single scheduled pass over the combinational
  netlist.  The signal dependency graph is topologically levelized
  (reusing the static comb-cycle detector in :mod:`repro.rtl.lint`), so
  each comb signal is computed exactly once, after everything it reads.
- ``tick(V, M)`` — the synchronous update: next register values and
  memory ports evaluated against the settled state, then committed,
  preserving read-before-write sync-port semantics.

``V`` is a flat slot list (one slot per signal), ``M`` the list of
memory backing stores.  Widths, masks, shift amounts, sign-extension
constants, and memory depths are baked into the generated source as
integer literals; guards become plain ``if`` statements; shared
subexpressions become shared temporaries; any subexpression over
literals only is evaluated at codegen time.  The lowering
(:mod:`repro.rtl.lower`) tracks the exact integer interval of every
value, so arithmetic runs on plain Python ints and a mask or sign
conversion appears only where a value can leave its width or a
consumer needs its bit pattern.  nMigen semantics — later assignment
wins, comb falls back to reset, sign/width rules — are preserved bit
for bit (:mod:`tests.test_rtl_compile` is the differential proof).

The generated program is compiled once per source text per process
(:func:`repro.core.codecache.compile_entry`), exec'd once and cached
per module, so rebuilding a simulator (e.g.
:meth:`RtlCfuAdapter.reset`) costs a slot-list copy instead of a
re-elaboration and re-settle from scratch.

A CFU funct3 called :data:`SPECIALIZE_AFTER` times on a program also
gets its own ``transact(V, M)``: one accepted, single-cycle call with
the handshake's constant ports folded in (see
:meth:`CompiledProgram.transaction`).

Netlists with combinational cycles cannot be levelized:
``backend="auto"`` falls back to the interpreter (which can still
settle a guard-false pseudo-latch), while ``backend="compiled"`` raises
:class:`CompileError` naming the loop path.
"""

from __future__ import annotations

import weakref
from collections import deque

from .ast import Const, Operator, Repl, Signal, Slice, to_unsigned
from .dsl import Module
from .lint import find_comb_cycle
from .lower import CompileError, Codegen, TransactionCodegen, emit_sync
from .sim import Simulator


#: Calls of one funct3 on a program before it gets a generated
#: transaction.  A transaction costs its codegen once and then saves
#: time on every call, so it pays off after codegen ms ÷ µs saved per
#: call.  Measured on a 2-vCPU Xeon VM over the 20 single-cycle opcodes
#: of the shipped CFUs (generating and compiling the source, best of
#: nine; generic and specialised calls, best of seven 2,000-call runs;
#: two rounds), that breakeven runs from ~47 calls (kws-cfu2 READ_ACC:
#: 0.23 ms ÷ 4.7 µs) to ~1,700 (winograd: 9–14 ms ÷ 5.7–8.0 µs),
#: median ~530–590; kws-cfu2's MAC4 breaks even at 0.6–1.1 ms ÷
#: 2.9–3.9 µs ≈ 160–370.  Range-aware lowering cut the generic call as
#: well as the transaction, so the saving per call, and with it the
#: median breakeven, moved from ~490 (same method, before).  1,024
#: clears 14–15 of the 20, keeps the 400-op RTL throughput benchmark
#: from paying codegen it cannot earn back, and is crossed by both of
#: session-rtl's hot opcodes (18,000 MAC4 and 2,000 READ_ACC calls per
#: run) in the first run of a process: sessions share one gateware
#: instance per CFU, so later sessions start specialised.
SPECIALIZE_AFTER = 1024


def _expr_token(node, slot_of):
    """Deterministic structural serialization of one expression tree,
    with signals named by slot index — two modules with the same tokens
    code-generate byte-identical source."""
    if isinstance(node, Signal):
        return f"s{slot_of[id(node)]}"
    if isinstance(node, Const):
        return f"C{node.value}w{node.width}g{int(node.signed)}"
    kind = type(node).__name__
    if isinstance(node, Slice):
        extra = f"{node.start}.{node.stop}"
    elif isinstance(node, Operator):
        extra = node.op
    elif isinstance(node, Repl):
        extra = str(node.count)
    else:
        extra = ""
    inner = ",".join(_expr_token(operand, slot_of)
                     for operand in node.operands())
    signed = int(getattr(node, "signed", False))
    return f"{kind}({extra};w{node.width}g{signed};{inner})"


def _module_key(signals, slot_of, memories, comb_stmts, sync_stmts):
    """Content-address a module's netlist structure (everything the
    code generator reads) and the generator's own source, or None when
    the netlist can't be serialized."""
    from ..core.codecache import code_key, generator_digest

    try:
        payload = {
            "generator": [generator_digest(name)
                          for name in (__name__, Codegen.__module__)],
            "slots": [(sig.width, int(sig.signed), sig.reset)
                      for sig in signals],
            "comb": [(_expr_token(stmt.lhs, slot_of),
                      _expr_token(stmt.rhs, slot_of),
                      None if stmt.guard is None
                      else _expr_token(stmt.guard, slot_of))
                     for stmt in comb_stmts],
            "sync": [(_expr_token(stmt.lhs, slot_of),
                      _expr_token(stmt.rhs, slot_of),
                      None if stmt.guard is None
                      else _expr_token(stmt.guard, slot_of))
                     for stmt in sync_stmts],
            "memories": [
                (mem.width, mem.depth, list(mem.init),
                 [(rp.domain, slot_of[id(rp.data)],
                   _expr_token(rp.addr, slot_of)) for rp in mem.read_ports],
                 [(_expr_token(wp.en, slot_of),
                   _expr_token(wp.addr, slot_of),
                   _expr_token(wp.data, slot_of)) for wp in mem.write_ports])
                for mem in memories],
        }
    except (KeyError, AttributeError, TypeError):
        return None
    return code_key("rtl-module", payload)


def _reads(value):
    """Signals read inside ``value``, deduplicated, in deterministic order."""
    out, seen, stack = [], set(), [value]
    while stack:
        node = stack.pop()
        if isinstance(node, Signal):
            if id(node) not in seen:
                seen.add(id(node))
                out.append(node)
        else:
            stack.extend(reversed(node.operands()))
    return out


class CompiledProgram:
    """The exec'd per-module schedule: slots, memories, comb/tick fns,
    and the generated per-funct3 transactions with their call counts
    (shared by every simulator and adapter on the module)."""

    def __init__(self, module, signals, slot_of, memories, driven_ids,
                 comb_fn, tick_fn, source, levels, key, comb_stmts,
                 sync_stmts):
        self.module = module
        self.signals = signals
        self.slot_of = slot_of
        self.resets = [sig.reset for sig in signals]
        self.memories = memories
        self.driven_ids = driven_ids
        self.comb_fn = comb_fn
        self.tick_fn = tick_fn
        self.source = source
        self.levels = levels  # comb logic depth after levelization
        self.key = key        # code-cache key, None if unserializable
        self.comb_stmts = comb_stmts
        self.sync_stmts = sync_stmts
        self.transactions = [None] * 8  # per funct3, once generated
        self.calls = [0] * 8            # per funct3, until then
        self._groups = None

    def groups(self):
        """``(comb_of, sync_targets, sync_stmts_of)``: statements per
        target, grouped once per program."""
        if self._groups is None:
            comb_of = _comb_groups(self.memories, self.comb_stmts)
            self._groups = (comb_of,) + _sync_groups(self.sync_stmts)
        return self._groups

    def transaction(self, funct3, ports):
        """Count one call of ``funct3``; from its
        :data:`SPECIALIZE_AFTER`-th call on, return its transaction.

        ``transact(V, M)`` runs one call whose command ports (``ports``,
        a :class:`~repro.cfu.rtl.CfuPorts`) already hold their values:
        ``cmd_valid``, ``rsp_ready`` and ``cmd_funct3`` are literals in
        it, while ``funct7`` and the operands stay slot reads.  When the
        command is accepted and answered in its first cycle it commits
        the clock edge and returns the response; otherwise it returns
        None having changed nothing, and the caller runs the generic
        handshake.  It computes the comb cone in locals and never
        writes a comb slot, so after it the caller marks them stale.
        """
        calls = self.calls
        calls[funct3] += 1
        if calls[funct3] < SPECIALIZE_AFTER:
            return None
        transact = self.transactions[funct3] = _bind_transaction(
            self, funct3, ports)
        return transact


def _schedule(comb_targets, deps_of):
    """Kahn levelization; returns (ordered targets, level count)."""
    indegree = {id(t): len(deps_of[id(t)]) for t in comb_targets}
    dependents = {id(t): [] for t in comb_targets}
    for target in comb_targets:
        for dep in deps_of[id(target)]:
            dependents[id(dep)].append(target)
    level_of = {}
    ready = deque(t for t in comb_targets if indegree[id(t)] == 0)
    for target in ready:
        level_of[id(target)] = 0
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for dependent in dependents[id(node)]:
            indegree[id(dependent)] -= 1
            level_of[id(dependent)] = max(
                level_of.get(id(dependent), 0), level_of[id(node)] + 1)
            if indegree[id(dependent)] == 0:
                ready.append(dependent)
    levels = max(level_of.values(), default=-1) + 1
    return order, levels


def _elaborate(module):
    """Split statements by domain and build the slot table: everything
    the code generator reads."""
    if not isinstance(module, Module):
        raise TypeError("compile_module requires a Module")
    comb_stmts, sync_stmts = [], []
    for domain_name, stmt in module.all_statements():
        (comb_stmts if domain_name == "comb" else sync_stmts).append(stmt)
    comb_driven = module.driven_signals("comb")
    sync_driven = module.driven_signals("sync")
    for sig in comb_driven & sync_driven:
        raise ValueError(
            f"signal {sig.name} driven in both comb and sync domains")
    memories = list(module.all_memories())

    # --- slot table: every signal the program touches -----------------------
    signals, slot_of = [], {}

    def slot(sig):
        if id(sig) not in slot_of:
            slot_of[id(sig)] = len(signals)
            signals.append(sig)

    def slot_reads(value):
        for sig in _reads(value):
            slot(sig)

    for stmt in comb_stmts + sync_stmts:
        slot(stmt.target_signal())
        slot_reads(stmt.rhs)
        if stmt.guard is not None:
            slot_reads(stmt.guard)
    for mem in memories:
        for rp in mem.read_ports:
            slot(rp.data)
            slot_reads(rp.addr)
        for wp in mem.write_ports:
            for value in (wp.en, wp.addr, wp.data):
                slot_reads(value)
    driven_ids = {id(sig) for sig in comb_driven | sync_driven}
    return signals, slot_of, memories, comb_stmts, sync_stmts, driven_ids


def _compile(module):
    from ..core.codecache import compile_entry, default_cache

    (signals, slot_of, memories, comb_stmts, sync_stmts,
     driven_ids) = _elaborate(module)
    key = _module_key(signals, slot_of, memories, comb_stmts, sync_stmts)

    def generate():
        source, levels = _codegen_module(module, slot_of, memories,
                                         comb_stmts, sync_stmts)
        return {"source": source, "levels": levels, "slots": len(signals)}

    # Generated source is a pure function of what its key addresses, so
    # another process (or an earlier module with identical structure)
    # may already have generated it; a foreign or torn entry is
    # regenerated.
    entry, code, _hit = compile_entry(
        default_cache(), key, generate,
        lambda cached: (cached.get("slots") == len(signals)
                        and type(cached.get("levels")) is int))
    namespace = {}
    exec(code, namespace)
    return CompiledProgram(module, signals, slot_of, memories, driven_ids,
                           namespace["comb"], namespace["tick"],
                           entry["source"], entry["levels"], key, comb_stmts,
                           sync_stmts)


def _comb_groups(memories, comb_stmts):
    """Comb targets by id, in first-seen order: each maps to
    ``(target, statement work list, [(memory index, comb read port)])``."""
    comb_of = {}

    def group(target):
        return comb_of.setdefault(id(target), (target, [], []))

    for stmt in comb_stmts:
        group(stmt.target_signal())[1].append(stmt)
    for index, mem in enumerate(memories):
        for rp in mem.read_ports:
            if rp.domain == "comb":
                group(rp.data)[2].append((index, rp))
    return comb_of


def _comb_schedule(module, memories, comb_stmts):
    """Levelize the comb netlist.

    Returns ``(order, comb_of, levels)`` where ``order`` is the
    scheduled target list and ``comb_of`` is :func:`_comb_groups`.
    Raises :class:`CompileError` naming the loop when the netlist has a
    combinational cycle.
    """
    comb_of = _comb_groups(memories, comb_stmts)
    deps_of = {}
    for key, (_, stmts, ports) in comb_of.items():
        dep_list, seen = [], set()

        def note(value):
            for sig in _reads(value):
                if id(sig) in comb_of and id(sig) not in seen:
                    seen.add(id(sig))
                    dep_list.append(sig)

        for _, rp in ports:
            note(rp.addr)
        for stmt in stmts:
            note(stmt.rhs)
            if stmt.guard is not None:
                note(stmt.guard)
        deps_of[key] = dep_list

    comb_targets = [target for target, _, _ in comb_of.values()]
    order, levels = _schedule(comb_targets, deps_of)
    if len(order) != len(comb_targets):
        cycle = find_comb_cycle(module)
        path = (" -> ".join(sig.name for sig in cycle)
                if cycle else "self-referential comb logic")
        raise CompileError(
            f"module {module.name}: cannot levelize the comb netlist "
            f"(combinational cycle: {path})")
    return order, comb_of, levels


def _sync_groups(sync_stmts):
    """Group sync statements by target, preserving statement order."""
    sync_targets, sync_ids, sync_stmts_of = [], set(), {}
    for stmt in sync_stmts:
        target = stmt.target_signal()
        if id(target) not in sync_ids:
            sync_ids.add(id(target))
            sync_targets.append(target)
        sync_stmts_of.setdefault(id(target), []).append(stmt)
    return sync_targets, sync_stmts_of


def _codegen_module(module, slot_of, memories, comb_stmts, sync_stmts):
    """Lower one module's netlist to ``comb``/``tick`` source; returns
    ``(source, levels)``.  Deterministic given the slot table."""
    order, comb_of, levels = _comb_schedule(module, memories, comb_stmts)

    # --- comb(V, M): one scheduled pass --------------------------------------
    gen = Codegen(slot_of)
    for target in order:
        gen.emit_comb(*comb_of[id(target)])

    # --- tick(V, M): sync update + memory cycle, then commit ----------------
    gen2 = Codegen(slot_of)
    emit_sync(gen2, memories, *_sync_groups(sync_stmts))
    return gen.function("comb") + "\n" + gen2.function("tick"), levels


def _codegen_transaction(program, funct3, ports):
    """Source of one funct3's ``transact(V, M)`` (see
    :meth:`CompiledProgram.transaction`)."""
    comb_of, sync_targets, sync_stmts_of = program.groups()
    consts = {id(ports.cmd_valid): 1, id(ports.rsp_ready): 1,
              id(ports.cmd_funct3): funct3}
    gen = TransactionCodegen(program.slot_of, consts, comb_of)
    for flag in (ports.cmd_ready, ports.rsp_valid):
        atom = gen.truth(flag)
        if atom == 0:  # never accepted and answered in one cycle
            gen.emit("return None")
            return gen.function("transact")
        if not isinstance(atom, int):
            gen.emit(f"if not {atom}:")
            gen.emit("    return None")
    result = gen.bits(ports.rsp_out)[0]
    if isinstance(result, str) and result.startswith("V["):
        result = gen.temp(result)  # the response predates the edge
    emit_sync(gen, program.memories, sync_targets, sync_stmts_of)
    gen.emit(f"return {result}")
    return gen.function("transact")


def _transaction_key(program, funct3, ports):
    """Code-cache key of one funct3's transaction source: the module's
    key (which carries the generator digest), the funct3 and the port
    slots; None when the module has no key."""
    from ..core.codecache import code_key

    if program.key is None:
        return None
    return code_key("rtl-transaction", {
        "module": program.key, "funct3": funct3,
        "ports": [program.slot_of.get(id(sig)) for sig in ports.all()]})


def _bind_transaction(program, funct3, ports):
    """Generate (or bind from the code cache) one funct3's transaction."""
    from ..core.codecache import compile_entry, default_cache

    _entry, code, _hit = compile_entry(
        default_cache(), _transaction_key(program, funct3, ports),
        lambda: {"source": _codegen_transaction(program, funct3, ports)},
        lambda cached: True)
    namespace = {}
    exec(code, namespace)
    return namespace["transact"]


_PROGRAM_CACHE = weakref.WeakKeyDictionary()


def compile_module(module):
    """Compile (or fetch the cached program for) a module."""
    try:
        return _PROGRAM_CACHE[module]
    except KeyError:
        pass
    program = _compile(module)
    _PROGRAM_CACHE[module] = program
    return program


class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` executing the compiled program.

    Public API (poke/peek/settle/tick/memory/tracers/run_until) matches
    the interpreter bit for bit; state lives in a flat slot list instead
    of a signal-keyed dict.

    A CFU transaction ends on a comb pass nobody may look at before the
    next call poked new inputs and settled again, so it leaves the comb
    slots *stale* instead of running it.  Everything that observes
    state — ``peek``, ``memory``, ``poke``, ``tick``, the tracers and
    :meth:`RtlCfuAdapter.snapshot_state` — settles stale slots first.
    """

    def __init__(self, module, backend="auto"):
        if not isinstance(module, Module):
            raise TypeError("Simulator requires a Module")
        program = compile_module(module)
        self.module = module
        self.backend = "compiled"
        self.program = program
        self.time = 0
        self._tracers = []
        self._vals = list(program.resets)
        self._slot_of = program.slot_of
        self._extra = {}  # pokes of signals the program never touches
        self.mem_state = {}
        self._mems = []
        for mem in program.memories:
            state = list(mem.init) + [0] * (mem.depth - len(mem.init))
            self.mem_state[mem] = state
            self._mems.append(state)
        self._comb = program.comb_fn
        self._tick = program.tick_fn
        self._stale = False
        self._comb(self._vals, self._mems)

    # --- public API ------------------------------------------------------------
    def poke(self, signal, value):
        if id(signal) in self.program.driven_ids:
            raise ValueError(f"cannot poke driven signal {signal.name}")
        if self._stale:  # settle with the inputs the call left behind
            self.settle()
        index = self._slot_of.get(id(signal))
        if index is None:
            self._extra[id(signal)] = to_unsigned(int(value), signal.width)
        else:
            self._vals[index] = to_unsigned(int(value), signal.width)

    def peek(self, signal):
        if self._stale:
            self.settle()
        index = self._slot_of.get(id(signal))
        if index is not None:
            return self._vals[index]
        return self._extra.get(id(signal), signal.reset)

    def memory(self, mem):
        if self._stale:  # a caller may write it before peeking
            self.settle()
        return self.mem_state[mem]

    def settle(self):
        self._stale = False
        self._comb(self._vals, self._mems)

    def tick(self, cycles=1):
        for _ in range(cycles):
            self.settle()
            self._edge()

    def _edge(self, settle=True):
        """One clock edge on already-settled state: ``tick()`` without
        its leading comb pass, which would recompute the settled values
        (``RtlCfuAdapter.execute`` settles before every edge).  With
        ``settle`` false the trailing comb pass is deferred."""
        self._tick(self._vals, self._mems)
        self._clocked(settle)

    def _clocked(self, settle=False):
        """Finish a clock edge whose sync update is committed: advance
        time, then settle now or defer it (tracers always see settled
        state)."""
        self.time += 1
        if settle or self._tracers:
            self.settle()
            for tracer in self._tracers:
                tracer(self.time, self)
        else:
            self._stale = True
