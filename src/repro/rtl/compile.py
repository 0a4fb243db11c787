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
subexpressions become shared temporaries.  nMigen semantics — later
assignment wins, comb falls back to reset, sign/width rules — are
preserved bit for bit (:mod:`tests.test_rtl_compile` is the
differential proof).

The generated program is exec'd once and cached per module, so
rebuilding a simulator (e.g. :meth:`RtlCfuAdapter.reset`) costs a
slot-list copy instead of a re-elaboration and re-settle from scratch.

Netlists with combinational cycles cannot be levelized:
``backend="auto"`` falls back to the interpreter (which can still
settle a guard-false pseudo-latch), while ``backend="compiled"`` raises
:class:`CompileError` naming the loop path.
"""

from __future__ import annotations

import weakref
from collections import deque

from .ast import (
    Cat,
    Const,
    Mux,
    Operator,
    Reinterpret,
    Signal,
    Slice,
    Repl,
    to_unsigned,
)
from .dsl import Module
from .lint import find_comb_cycle
from .sim import Simulator


class CompileError(RuntimeError):
    """The module uses a construct the compiled backend cannot schedule."""


#: Process-wide generator activity: modules actually code-generated vs
#: bound from cached source (benchmarks read these to prove "compile
#: once per firmware, ever").
codegen_count = 0
cache_bind_count = 0


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
            "generator": generator_digest(__name__),
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


class _Codegen:
    """Lowers expression trees to straight-line three-address statements.

    Every lowered node yields an *atom* — a temp name, a ``V[i]`` slot
    read, or an integer literal — holding the node's unsigned bit
    pattern (exactly what the interpreter's ``_eval`` returns).  Atoms
    are memoized by node identity, so expression objects shared between
    statements (guard conjunctions, the ``accepted`` strobe, a reused
    datapath) are computed once per generated function.  All temps are
    emitted at function top level, never under a guard, so memoized
    atoms are always in scope for later statements.
    """

    def __init__(self, slot_of):
        self.slot_of = slot_of  # id(signal) -> V index
        self.lines = []
        self._memo = {}
        self._counter = 0

    def emit(self, line):
        self.lines.append("    " + line)

    def temp(self, expr):
        name = f"_t{self._counter}"
        self._counter += 1
        self.emit(f"{name} = {expr}")
        return name

    def read(self, signal):
        return f"V[{self.slot_of[id(signal)]}]"

    # --- expression lowering ---------------------------------------------------
    def u(self, node):
        """Atom holding the node's unsigned bit pattern."""
        key = id(node)
        atom = self._memo.get(key)
        if atom is None:
            atom = self._memo[key] = self._lower(node)
        return atom

    def num(self, node):
        """Expression for the node's numeric value (sign-interpreted)."""
        raw = self.u(node)
        if not node.signed:
            return raw
        sign_bit = 1 << (node.width - 1)
        modulus = 1 << node.width
        return f"({raw} - {modulus} if {raw} & {sign_bit} else {raw})"

    def _unsigned_at(self, operand, width):
        """to_unsigned(num(operand), width) — sign-extend or pass through."""
        if not operand.signed and operand.width <= width:
            return self.u(operand)
        return f"({self.num(operand)}) & {(1 << width) - 1}"

    def _lower(self, node):
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Signal):
            return self.read(node)
        if isinstance(node, Reinterpret):
            return self.u(node.value)
        if isinstance(node, Slice):
            inner = self.u(node.value)
            if node.start == 0 and node.stop == node.value.width:
                return inner  # full-width slice is the identity
            mask = (1 << node.width) - 1
            if node.start:
                return self.temp(f"({inner} >> {node.start}) & {mask}")
            return self.temp(f"{inner} & {mask}")
        if isinstance(node, Cat):
            shift, parts = 0, []
            for part in node.parts:
                atom = self.u(part)
                parts.append(atom if shift == 0 else f"({atom} << {shift})")
                shift += part.width
            return self.temp(" | ".join(parts)) if parts else "0"
        if isinstance(node, Repl):
            atom = self.u(node.value)
            parts = [atom if i == 0 else f"({atom} << {i * node.value.width})"
                     for i in range(node.count)]
            return self.temp(" | ".join(parts)) if parts else "0"
        if isinstance(node, Mux):
            sel = self.u(node.sel)
            arms = []
            for arm in (node.if_true, node.if_false):
                if arm.signed:
                    arms.append(f"({self.num(arm)}) & "
                                f"{(1 << node.width) - 1}")
                else:  # node.width >= arm.width, pattern already in range
                    arms.append(self.u(arm))
            return self.temp(f"({arms[0]}) if {sel} else ({arms[1]})")
        if isinstance(node, Operator):
            return self._lower_operator(node)
        raise CompileError(f"cannot compile expression node {node!r}")

    def _lower_operator(self, node):
        op, ops = node.op, node.ops
        mask = (1 << node.width) - 1
        if op in ("+", "-", "*"):
            return self.temp(f"(({self.num(ops[0])}) {op} "
                             f"({self.num(ops[1])})) & {mask}")
        if op == "neg":
            return self.temp(f"(-({self.num(ops[0])})) & {mask}")
        if op == "~":
            return self.temp(f"(~{self.u(ops[0])}) & {mask}")
        if op in ("&", "|", "^"):
            a = self._unsigned_at(ops[0], node.width)
            b = self._unsigned_at(ops[1], node.width)
            return self.temp(f"({a}) {op} ({b})")
        if op == "<<":
            return self.temp(f"(({self.num(ops[0])}) << "
                             f"{self.u(ops[1])}) & {mask}")
        if op == ">>":
            return self.temp(f"(({self.num(ops[0])}) >> "
                             f"{self.u(ops[1])}) & {mask}")
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self.temp(f"1 if ({self.num(ops[0])}) {op} "
                             f"({self.num(ops[1])}) else 0")
        if op == "b":
            return self.temp(f"1 if {self.u(ops[0])} else 0")
        if op == "r&":
            return self.temp(f"1 if {self.u(ops[0])} == "
                             f"{(1 << ops[0].width) - 1} else 0")
        if op == "r^":
            return self.temp(f'bin({self.u(ops[0])}).count("1") & 1')
        raise CompileError(f"cannot compile operator {op!r}")

    # --- statement lowering ----------------------------------------------------
    def value_of(self, stmt):
        """The value an assignment writes, masked to the lhs width."""
        rhs = stmt.rhs
        lhs_mask = (1 << stmt.lhs.width) - 1
        if rhs.signed:
            return f"({self.num(rhs)}) & {lhs_mask}"
        if rhs.width > stmt.lhs.width:
            return f"{self.u(rhs)} & {lhs_mask}"
        return self.u(rhs)

    def apply(self, stmt, acc):
        """Emit one guarded assignment into the accumulator variable.

        The guard atom and the value temps are materialized at top level
        first (harmless when the guard is false: expressions are pure),
        so only the accumulator update sits under the ``if``.
        """
        value = self.value_of(stmt)
        if isinstance(stmt.lhs, Slice):
            mask = ((1 << stmt.lhs.width) - 1) << stmt.lhs.start
            shifted = value if stmt.lhs.start == 0 else \
                f"(({value}) << {stmt.lhs.start})"
            update = f"{acc} = ({acc} & {~mask}) | {shifted}"
        else:
            update = f"{acc} = {value}"
        if stmt.guard is None:
            self.emit(update)
        else:
            guard = self.u(stmt.guard)
            self.emit(f"if {guard}:")
            self.emit("    " + update)


class CompiledProgram:
    """The exec'd per-module schedule: slots, memories, comb/tick fns."""

    def __init__(self, module, signals, slot_of, memories, driven_ids,
                 comb_fn, tick_fn, source, levels):
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
    return (signals, slot_of, memories, comb_stmts, sync_stmts, comb_driven,
            sync_driven)


def _compile(module):
    (signals, slot_of, memories, comb_stmts, sync_stmts, comb_driven,
     sync_driven) = _elaborate(module)

    # --- persistent source cache -------------------------------------------
    # The generated comb/tick source is a pure function of the netlist
    # structure: content-address it and skip the lowering passes when
    # another process (or an earlier module with identical structure)
    # already generated it.  Re-``exec`` always happens here — only
    # source text is shared, never code objects.
    from ..core.codecache import MISS, default_cache

    global codegen_count, cache_bind_count
    key = _module_key(signals, slot_of, memories, comb_stmts, sync_stmts)
    cached = MISS
    if key is not None:
        cached = default_cache().get(key)
        if cached is not MISS and cached.get("slots") != len(signals):
            cached = MISS  # foreign/torn entry: regenerate
    if cached is not MISS:
        source, levels = cached["source"], cached["levels"]
        cache_bind_count += 1
    else:
        source, levels = _codegen_module(module, slot_of, memories,
                                         comb_stmts, sync_stmts, comb_driven)
        codegen_count += 1
        if key is not None:
            default_cache().put(key, {"source": source, "levels": levels,
                                      "slots": len(signals)})
    namespace = {}
    exec(compile(source, f"<rtl-compiled:{module.name}>", "exec"), namespace)
    driven_ids = {id(sig) for sig in comb_driven | sync_driven}
    return CompiledProgram(module, signals, slot_of, memories, driven_ids,
                           namespace["comb"], namespace["tick"], source,
                           levels)


def _comb_schedule(module, memories, comb_stmts):
    """Levelize the comb netlist.

    Returns ``(order, stmts_of, comb_ports, levels)`` where ``order``
    is the scheduled target list, ``stmts_of`` maps ``id(target)`` to
    its statement work list, and ``comb_ports`` maps ``id(data)`` to
    ``[(memory index, read port)]``.  Raises :class:`CompileError`
    naming the loop when the netlist has a combinational cycle.
    """
    comb_ports = {}  # id(data signal) -> [(memory index, read port)]
    for index, mem in enumerate(memories):
        for rp in mem.read_ports:
            if rp.domain == "comb":
                comb_ports.setdefault(id(rp.data), []).append((index, rp))

    comb_targets, target_ids = [], set()
    stmts_of = {}

    def add_target(sig):
        if id(sig) not in target_ids:
            target_ids.add(id(sig))
            comb_targets.append(sig)

    for stmt in comb_stmts:
        target = stmt.target_signal()
        add_target(target)
        stmts_of.setdefault(id(target), []).append(stmt)
    for index, mem in enumerate(memories):
        for rp in mem.read_ports:
            if rp.domain == "comb":
                add_target(rp.data)

    deps_of = {}
    for target in comb_targets:
        dep_list, seen = [], set()

        def note(value):
            for sig in _reads(value):
                if id(sig) in target_ids and id(sig) not in seen:
                    seen.add(id(sig))
                    dep_list.append(sig)

        for _, rp in comb_ports.get(id(target), ()):
            note(rp.addr)
        for stmt in stmts_of.get(id(target), ()):
            note(stmt.rhs)
            if stmt.guard is not None:
                note(stmt.guard)
        deps_of[id(target)] = dep_list

    order, levels = _schedule(comb_targets, deps_of)
    if len(order) != len(comb_targets):
        cycle = find_comb_cycle(module)
        path = (" -> ".join(sig.name for sig in cycle)
                if cycle else "self-referential comb logic")
        raise CompileError(
            f"module {module.name}: cannot levelize the comb netlist "
            f"(combinational cycle: {path})")
    return order, stmts_of, comb_ports, levels


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


def _codegen_module(module, slot_of, memories, comb_stmts, sync_stmts,
                    comb_driven):
    """Lower one module's netlist to ``comb``/``tick`` source; returns
    ``(source, levels)``.  Deterministic given the slot table."""
    order, stmts_of, comb_ports, levels = _comb_schedule(
        module, memories, comb_stmts)

    # --- emit comb(V, M): one scheduled pass --------------------------------
    comb_driven_ids = {id(sig) for sig in comb_driven}
    gen = _Codegen(slot_of)
    gen.lines.append("def comb(V, M):")
    for index in range(len(memories)):
        gen.emit(f"_m{index} = M[{index}]")
    for target in order:
        ports = comb_ports.get(id(target), ())
        stmts = stmts_of.get(id(target), ())
        target_slot = slot_of[id(target)]
        if len(stmts) == 1 and not ports and stmts[0].guard is None \
                and not isinstance(stmts[0].lhs, Slice):
            gen.emit(f"V[{target_slot}] = {gen.value_of(stmts[0])}")
            continue
        acc = f"_v{target_slot}"
        initialized = False
        if id(target) in comb_driven_ids:  # comb falls back to reset
            gen.emit(f"{acc} = {target.reset}")
            initialized = True
        for mem_index, rp in ports:
            addr = gen.u(rp.addr)
            gen.emit(f"{acc} = _m{mem_index}[{addr} % {rp.memory.depth}]")
            initialized = True
        if not initialized:
            gen.emit(f"{acc} = {target.reset}")
        for stmt in stmts:
            gen.apply(stmt, acc)
        gen.emit(f"V[{target_slot}] = {acc}")
    if len(gen.lines) == 1:
        gen.emit("pass")

    # --- emit tick(V, M): sync update + memory cycle, then commit -----------
    gen2 = _Codegen(slot_of)
    gen2.lines.append("def tick(V, M):")
    for index in range(len(memories)):
        gen2.emit(f"_m{index} = M[{index}]")
    sync_targets, sync_stmts_of = _sync_groups(sync_stmts)
    for target in sync_targets:
        acc = f"_n{slot_of[id(target)]}"
        gen2.emit(f"{acc} = V[{slot_of[id(target)]}]")
        for stmt in sync_stmts_of[id(target)]:
            gen2.apply(stmt, acc)
    sync_reads = []  # (read temp, data signal)
    for mem_index, mem in enumerate(memories):
        # Sync read ports observe pre-write contents (read-before-write).
        for rp in mem.read_ports:
            if rp.domain != "sync":
                continue
            addr = gen2.u(rp.addr)
            name = gen2.temp(f"_m{mem_index}[{addr} % {mem.depth}]")
            sync_reads.append((name, rp.data))
        for wp in mem.write_ports:
            enable = gen2.u(wp.en)
            addr = gen2.u(wp.addr)
            data = gen2.u(wp.data)
            gen2.emit(f"if {enable}:")
            gen2.emit(f"    _m{mem_index}[{addr} % {mem.depth}] = "
                      f"{data} & {(1 << mem.width) - 1}")
    for target in sync_targets:
        gen2.emit(f"V[{slot_of[id(target)]}] = _n{slot_of[id(target)]}")
    for name, data in sync_reads:  # after registers: port data wins
        gen2.emit(f"V[{slot_of[id(data)]}] = {name}")
    if len(gen2.lines) == 1:
        gen2.emit("pass")

    source = "\n".join(gen.lines + [""] + gen2.lines + [""])
    return source, levels


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
        self._comb(self._vals, self._mems)

    # --- public API ------------------------------------------------------------
    def poke(self, signal, value):
        if id(signal) in self.program.driven_ids:
            raise ValueError(f"cannot poke driven signal {signal.name}")
        index = self._slot_of.get(id(signal))
        if index is None:
            self._extra[id(signal)] = to_unsigned(int(value), signal.width)
        else:
            self._vals[index] = to_unsigned(int(value), signal.width)

    def peek(self, signal):
        index = self._slot_of.get(id(signal))
        if index is not None:
            return self._vals[index]
        return self._extra.get(id(signal), signal.reset)

    def settle(self):
        self._comb(self._vals, self._mems)

    def tick(self, cycles=1):
        for _ in range(cycles):
            self._comb(self._vals, self._mems)
            self._edge()

    def _edge(self):
        """One clock edge on already-settled state: ``tick()`` without
        its leading comb pass, which would recompute the settled values
        (``RtlCfuAdapter.execute`` settles before every edge)."""
        vals, mems = self._vals, self._mems
        self._tick(vals, mems)
        self.time += 1
        self._comb(vals, mems)
        for tracer in self._tracers:
            tracer(self.time, self)
