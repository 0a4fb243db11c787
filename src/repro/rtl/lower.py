"""Range-aware lowering of RTL expression trees to straight-line Python.

The code generator behind :mod:`repro.rtl.compile`: :class:`Codegen`
lowers a netlist's expressions and guarded assignments into
three-address statements over the slot list ``V`` and memories ``M``,
:class:`TransactionCodegen` specialises that for one CFU funct3, and
:func:`emit_sync` emits one clock edge.  Every lowered value carries
the exact integer interval it can hold at run time, so a mask or a sign
conversion is emitted only where a value can leave its width or a
consumer needs its bit pattern — the idea of Verilator's clean-bits
pass.  The interval decides, never the operator: this AST gives a
mixed-sign ``+``/``-`` only ``max(w) + 1`` bits, caps ``<<`` at 64
extra bits, and lets ``neg`` of an unsigned value go negative.  A last
pass folds each single-use temp into the one temp that reads it.
"""

from __future__ import annotations

import re

from .ast import Cat, Const, Mux, Operator, Reinterpret, Repl, Signal, Slice, \
    to_signed


class CompileError(RuntimeError):
    """The module uses a construct the compiled backend cannot schedule."""


#: Generated runtime names: slot reads ``V[i]`` and locals, which all
#: start with an underscore (``_t``, ``_v``, ``_m``).  An expression
#: without either is literals only and folds at codegen time.
_RUNTIME = re.compile(r"V\[|_")
_ATOM = re.compile(r"(?:V\[\d+\]|_\w+)\Z")
_TEMP = re.compile(r"\b_t\d+\b")
_TEMP_DEF = re.compile(r"    (_t\d+) = (.*)\Z")

#: Deepest bracket nesting a line may reach by taking in a temp's
#: expression, far below the parser's limit of 200.
_MAX_NESTING = 32

#: Largest shift-amount bound a ``<<`` interval is computed for; a wider
#: amount masks the product where it is made.
_SHIFT_BOUND = 256


def _shape_range(width, signed):
    """The numbers a ``(width, signed)`` shape can represent: ``(lo, hi)``."""
    if signed:
        half = 1 << (width - 1)
        return -half, half - 1
    return 0, (1 << width) - 1


def _corners(fn, a_lo, a_hi, b_lo, b_hi):
    """Bounds of ``fn(a, b)`` over two intervals, for an ``fn`` that is
    monotonic in each argument while the other is held."""
    values = [fn(a, b) for a in (a_lo, a_hi) for b in (b_lo, b_hi)]
    return min(values), max(values)


def _bitwise_range(op, a_lo, a_hi, b_lo, b_hi):
    """Bounds of ``a op b`` for ``op`` in ``&``, ``|``, ``^``."""
    if op == "&" and (a_lo >= 0 or b_lo >= 0):
        return 0, min(hi for lo, hi in ((a_lo, a_hi), (b_lo, b_hi))
                      if lo >= 0)
    bits = max(e.bit_length() if e >= 0 else (~e).bit_length()
               for e in (a_lo, a_hi, b_lo, b_hi))
    return (0 if a_lo >= 0 and b_lo >= 0 else -(1 << bits)), (1 << bits) - 1


def _nesting(text):
    """Deepest bracket nesting in ``text``."""
    depth = deepest = 0
    for char in text:
        if char in "([":
            depth += 1
            deepest = max(deepest, depth)
        elif char in ")]":
            depth -= 1
    return deepest


def _inline_single_use(lines):
    """Fold each temp that exactly one later top-level temp definition
    reads into that definition.  Both are top-level assignments of pure
    expressions, and nothing between them writes what the folded
    expression reads (temps and comb slots are written once, before any
    read; accumulators are complete before anything reads them; register
    and memory writes follow every temp), so only where it is evaluated
    moves.  A temp whose fold would nest its reader deeper than
    :data:`_MAX_NESTING` is defined just before the reader instead."""
    uses = {}
    for index, line in enumerate(lines):
        for name in _TEMP.findall(line):
            uses.setdefault(name, []).append(index)
    pending = {}  # temp -> (expression, its nesting), awaiting its reader
    out = []
    for line in lines:
        match = _TEMP_DEF.match(line)
        if match is None:
            out.append(line)
            continue
        name, expr = match.groups()
        own = deepest = _nesting(expr)
        folded = {}
        for child in _TEMP.findall(expr):
            if child in pending:
                child_expr, child_depth = pending.pop(child)
                if own + 1 + child_depth <= _MAX_NESTING:
                    folded[child] = f"({child_expr})"
                    deepest = max(deepest, own + 1 + child_depth)
                else:
                    out.append(f"    {child} = {child_expr}")
        if folded:
            expr = _TEMP.sub(lambda use: folded.get(use[0], use[0]), expr)
        reader = uses[name][1:]
        if len(reader) == 1 and _TEMP_DEF.match(lines[reader[0]]):
            pending[name] = (expr, deepest)
        else:
            out.append(f"    {name} = {expr}")
    return out


class Codegen:
    """Lowers expression trees to straight-line three-address statements.

    Every lowered node yields a *value* ``(atom, lo, hi)``: an atom —
    an ``int`` literal known at codegen time, a temp name, or a ``V[i]``
    slot read — and the exact integer interval ``lo <= atom <= hi`` it
    holds at run time.  The atom is congruent to the node's unsigned bit
    pattern (what the interpreter's ``_eval`` returns) modulo
    ``2 ** width``; it *is* that pattern when the interval lies in
    ``[0, 2 ** width)``, and it is the node's numeric (sign-interpreted)
    value when the interval lies in the range the node's shape
    represents.  Arithmetic is emitted without masks, so a sum or
    product stays numeric while its interval fits its width; a mask or
    a branch-free sign conversion ``(x ^ s) - s`` is emitted only where
    the interval can leave that range, or where a consumer needs the bit
    pattern (slot and memory writes, slices, concatenations, shift
    amounts, memory addresses).  Bitwise operators and ``~`` act on any
    congruent atom.

    A node whose operands are all literals is folded by evaluating its
    generated expression on them, so folding runs the very arithmetic
    the generated code would.  Values are memoized by node identity, so
    expression objects shared between statements (guard conjunctions,
    the ``accepted`` strobe, a reused datapath) are computed once per
    generated function, and temps by expression text, so structurally
    equal expressions share one too: a generated function writes each
    ``V`` slot before any read of it (comb targets) or after every read
    (the clock edge's commit), and memory only after every read.  All
    temps are emitted at function top level, never under a guard, so
    memoized atoms are always in scope for later statements.
    """

    def __init__(self, slot_of):
        self.slot_of = slot_of  # id(signal) -> V index
        self.lines = []
        self._memo = {}
        self._temps = {}  # expression text -> temp name
        self._counter = 0

    def emit(self, line):
        self.lines.append("    " + line)

    def function(self, name):
        """Source of ``def name(V, M)`` over the emitted body, each
        single-use temp folded into its reader, binding the memories the
        body uses."""
        body = _inline_single_use(self.lines) or ["    pass"]
        used = sorted({int(index) for index in
                       re.findall(r"_m(\d+)\[", "\n".join(body))})
        head = [f"def {name}(V, M):"] + [f"    _m{index} = M[{index}]"
                                         for index in used]
        return "\n".join(head + body) + "\n"

    @staticmethod
    def fold(expr):
        """``expr`` evaluated now when it is made of literals only."""
        if isinstance(expr, int) or _RUNTIME.search(expr):
            return expr
        return eval(expr, {"__builtins__": {"bin": bin}})

    def temp(self, expr):
        value = self.fold(expr)
        if isinstance(value, int):
            return value
        name = self._temps.get(expr)
        if name is None:
            name = self._temps[expr] = f"_t{self._counter}"
            self._counter += 1
            self.emit(f"{name} = {expr}")
        return name

    def atom(self, expr):
        """``expr`` as an atom, through a temp unless it already is one."""
        if isinstance(expr, int) or _ATOM.match(expr):
            return expr
        return self.temp(expr)

    def value(self, expr, lo, hi):
        """``expr`` as an atom (see :meth:`atom`) holding ``[lo, hi]``."""
        atom = self.atom(expr)
        if isinstance(atom, int):
            return atom, atom, atom
        return atom, lo, hi

    def read(self, signal):
        return f"V[{self.slot_of[id(signal)]}]", 0, (1 << signal.width) - 1

    # --- expression lowering ---------------------------------------------------
    def raw(self, node):
        """The node's value: congruent to its bit pattern."""
        key = id(node)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._lower(node)
        return value

    def bits(self, node):
        """Value holding the node's unsigned bit pattern."""
        return self.bits_at(node, node.width)

    def num(self, node):
        """Value holding the node's numeric (sign-interpreted) value."""
        atom, lo, hi = value = self.raw(node)
        low, high = _shape_range(node.width, node.signed)
        if low <= lo and hi <= high:
            return value
        mask = (1 << node.width) - 1
        if not node.signed:
            return self.value(f"{atom} & {mask}", 0, mask)
        sign = 1 << (node.width - 1)
        if lo < 0 or hi > mask:
            atom = f"({atom} & {mask})"
        return self.value(f"({atom} ^ {sign}) - {sign}", low, high)

    def bits_at(self, node, width):
        """Value holding ``to_unsigned(num(node), width)``: truncated,
        sign-extended or passed through."""
        atom, lo, hi = value = (self.raw(node) if width <= node.width
                                else self.num(node))
        mask = (1 << width) - 1
        if 0 <= lo and hi <= mask:
            return value
        return self.value(f"{atom} & {mask}", 0, mask)

    def truth(self, node):
        """Atom that is truthy exactly when the node's bits are nonzero."""
        atom, lo, hi = self.raw(node)
        low, high = _shape_range(node.width, node.signed)
        if (low <= lo and hi <= high) or (0 <= lo and hi < 1 << node.width):
            return atom
        return self.bits(node)[0]

    def address(self, node, depth):
        """Memory index expression for an address node."""
        atom, _, hi = self.bits(node)
        return atom if hi < depth else f"{atom} % {depth}"

    def _lower(self, node):
        if isinstance(node, Const):
            value = (to_signed(node.value, node.width) if node.signed
                     else node.value)
            return value, value, value
        if isinstance(node, Signal):
            return self.read(node)
        if isinstance(node, Reinterpret):
            return self.raw(node.value)
        if isinstance(node, Slice):
            inner = node.value
            if node.start == 0 and node.stop == inner.width:
                return self.raw(inner)  # full-width slice is the identity
            atom, lo, hi = self.raw(inner)
            mask = (1 << node.width) - 1
            if node.start:
                atom = f"({atom} >> {node.start})"
            if lo >= 0 and hi >> node.start <= mask:
                return self.value(atom, lo >> node.start, hi >> node.start)
            return self.value(f"{atom} & {mask}", 0, mask)
        if isinstance(node, (Cat, Repl)):
            if isinstance(node, Cat):
                parts = [(self.bits(part), part.width) for part in node.parts]
            else:
                inner = node.value
                parts = [(self.bits(inner), inner.width)] * node.count
            shift, terms, lo, hi = 0, [], 0, 0
            for (atom, part_lo, part_hi), width in parts:
                if atom != 0:
                    terms.append(f"({atom} << {shift})" if shift else atom)
                lo, hi = lo | part_lo << shift, hi | part_hi << shift
                shift += width
            if not terms:
                return 0, 0, 0
            return self.value(" | ".join(map(str, terms)), lo, hi)
        if isinstance(node, Mux):
            return self._lower_mux(node)
        if isinstance(node, Operator):
            return self._lower_operator(node)
        raise CompileError(f"cannot compile expression node {node!r}")

    def _lower_mux(self, node):
        """Each arm as its numeric value, or as its bits when every
        runtime arm is already a same-width bit pattern."""
        sel = self.truth(node.sel)
        arms = (node.if_true, node.if_false)
        if isinstance(sel, int):  # constant select: the chosen arm
            arms = (arms[0] if sel else arms[1],)
        mask = (1 << node.width) - 1
        as_bits = all(
            isinstance(arm, Const)
            or (arm.width == node.width
                and 0 <= self.raw(arm)[1] and self.raw(arm)[2] <= mask)
            for arm in arms)
        values = [self.bits_at(arm, node.width) if as_bits else self.num(arm)
                  for arm in arms]
        if len(values) == 1:
            return values[0]
        (if_true, true_lo, true_hi), (if_false, false_lo, false_hi) = values
        return self.value(f"{if_true} if {sel} else {if_false}",
                          min(true_lo, false_lo), max(true_hi, false_hi))

    def _lower_operator(self, node):
        op, ops = node.op, node.ops
        if op in ("+", "-", "*"):
            a, a_lo, a_hi = self.num(ops[0])
            b, b_lo, b_hi = self.num(ops[1])
            if op == "+":
                lo, hi = a_lo + b_lo, a_hi + b_hi
            elif op == "-":
                lo, hi = a_lo - b_hi, a_hi - b_lo
            else:
                lo, hi = _corners(int.__mul__, a_lo, a_hi, b_lo, b_hi)
            return self.value(f"{a} {op} {b}", lo, hi)
        if op == "neg":
            a, lo, hi = self.num(ops[0])
            return self.value(f"-{a}", -hi, -lo)
        if op == "~":
            a, lo, hi = self.raw(ops[0])
            mask = (1 << node.width) - 1
            if 0 <= lo and hi <= mask:
                return self.value(f"{a} ^ {mask}", mask - hi, mask - lo)
            return self.value(f"~{a}", -hi - 1, -lo - 1)
        if op in ("&", "|", "^"):
            # Operands of the node's width enter as any congruent value,
            # narrower ones sign- or zero-extended (their numeric value).
            mask = (1 << node.width) - 1
            # 0 and the full mask absorb or pass the other operand, so a
            # false guard term never lowers the term it masks.
            absorbing, identity = ((0, mask) if op == "&" else
                                   (mask, 0) if op == "|" else (None, 0))
            values = []
            for operand in ops:
                value = (self.raw(operand) if operand.width == node.width
                         else self.num(operand))
                if isinstance(value[0], int) and \
                        value[0] & mask == absorbing:
                    return absorbing, absorbing, absorbing
                values.append(value)
            (a, a_lo, a_hi), (b, b_lo, b_hi) = values
            if isinstance(a, int) and a & mask == identity:
                return values[1]
            if isinstance(b, int) and b & mask == identity:
                return values[0]
            return self.value(f"{a} {op} {b}",
                              *_bitwise_range(op, a_lo, a_hi, b_lo, b_hi))
        if op in ("<<", ">>"):
            a, a_lo, a_hi = self.num(ops[0])
            s, s_lo, s_hi = self.bits(ops[1])
            if op == "<<" and s_hi > _SHIFT_BOUND:
                mask = (1 << node.width) - 1
                return self.value(f"({a} << {s}) & {mask}", 0, mask)
            shift = int.__lshift__ if op == "<<" else int.__rshift__
            return self.value(f"{a} {op} {s}",
                              *_corners(shift, a_lo, a_hi, s_lo, s_hi))
        if op in ("==", "!=", "<", "<=", ">", ">="):
            a, b = self.num(ops[0])[0], self.num(ops[1])[0]
            return self.value(f"1 if {a} {op} {b} else 0", 0, 1)
        if op == "b":
            value = self.raw(ops[0])
            if 0 <= value[1] and value[2] <= 1:
                return value  # already 0 or 1
            return self.value(f"1 if {self.truth(ops[0])} else 0", 0, 1)
        if op == "r&":
            atom = self.bits(ops[0])[0]
            return self.value(f"1 if {atom} == {(1 << ops[0].width) - 1} "
                              f"else 0", 0, 1)
        if op == "r^":
            atom = self.bits(ops[0])[0]
            return self.value(f'bin({atom}).count("1") & 1', 0, 1)
        raise CompileError(f"cannot compile operator {op!r}")

    # --- statement lowering ----------------------------------------------------
    def assign(self, value, stmts, acc):
        """Apply one target's guarded assignments, later ones winning,
        to its starting ``value``; returns the final value.

        A literal-false guard drops its assignment, datapath and all; a
        literal-true one applies it unconditionally.  Only a runtime
        guard materializes the accumulator variable ``acc``, and only
        its update sits under the ``if`` (the guard atom and the value
        temps are emitted at top level first: expressions are pure).
        """
        current, lo, hi = value
        for stmt in stmts:
            guard = None if stmt.guard is None else self.truth(stmt.guard)
            if guard == 0:
                continue
            new, new_lo, new_hi = self.bits_at(stmt.rhs, stmt.lhs.width)
            if isinstance(stmt.lhs, Slice):
                start = stmt.lhs.start
                mask = ((1 << stmt.lhs.width) - 1) << start
                shifted = new if start == 0 else f"({new} << {start})"
                new = f"(({current}) & {~mask}) | {shifted}"
                new_lo, new_hi = 0, (1 << stmt.lhs.value.width) - 1
            if isinstance(guard, str):
                if current != acc:
                    self.emit(f"{acc} = {current}")
                    current = acc
                self.emit(f"if {guard}:")
                self.emit(f"    {acc} = {new}")
                lo, hi = min(lo, new_lo), max(hi, new_hi)
                continue
            if current == acc:
                self.emit(f"{acc} = {new}")
            else:
                current = self.fold(new)
            lo, hi = new_lo, new_hi
        return current, lo, hi

    def emit_comb(self, target, stmts, ports):
        """Emit one comb target into its slot.  Later reads of the
        target use its local value, and so its interval."""
        value = self._memo[id(target)] = self.value(
            *self.comb_value(target, stmts, ports))
        self.emit(f"V[{self.slot_of[id(target)]}] = {value[0]}")

    def comb_value(self, target, stmts, ports):
        """Emit one comb target's logic; returns its value.  Comb falls
        back to reset, then to the comb read ports driving it."""
        value = (target.reset,) * 3
        for mem_index, rp in ports:
            addr = self.address(rp.addr, rp.memory.depth)
            value = self.value(f"_m{mem_index}[{addr}]",
                               0, (1 << rp.memory.width) - 1)
        return self.assign(value, stmts, f"_v{self.slot_of[id(target)]}")


class TransactionCodegen(Codegen):
    """Lowering for one funct3's transaction.

    The command ports the handshake holds constant are literals, and a
    comb signal is lowered where something first reads it: only the
    cone the outputs, the sync update and the memory ports read is
    emitted, into locals that are never written back to ``V``.
    """

    def __init__(self, slot_of, consts, comb_of):
        super().__init__(slot_of)
        self.consts = consts    # id(port) -> literal
        self.comb_of = comb_of  # see _comb_groups

    def read(self, signal):
        const = self.consts.get(id(signal))
        if const is not None:
            return const, const, const
        comb = self.comb_of.get(id(signal))
        if comb is None:
            return super().read(signal)
        return self.value(*self.comb_value(*comb))


def emit_sync(gen, memories, sync_targets, sync_stmts_of):
    """Emit one clock edge: next register values, sync read ports and
    memory writes evaluated against the current state, then committed
    (read-before-write; sync port data wins over register updates)."""
    commits, writes = [], []
    for target in sync_targets:
        slot = gen.slot_of[id(target)]
        current = f"V[{slot}]"
        value = gen.assign((current, 0, (1 << target.width) - 1),
                           sync_stmts_of[id(target)], f"_n{slot}")[0]
        if value == current:
            continue  # no assignment applies: the register holds
        value = gen.atom(value)
        if isinstance(value, str) and value.startswith("V["):
            value = gen.temp(value)  # read before any commit
        commits.append((slot, value))
    for mem_index, mem in enumerate(memories):
        for rp in mem.read_ports:
            if rp.domain == "sync":
                addr = gen.address(rp.addr, mem.depth)
                commits.append((gen.slot_of[id(rp.data)],
                                gen.temp(f"_m{mem_index}[{addr}]")))
        for wp in mem.write_ports:
            enable = gen.truth(wp.en)
            if enable != 0:
                data, _, high = gen.bits(wp.data)
                mask = (1 << mem.width) - 1
                if high > mask:
                    data = f"{data} & {mask}"
                addr = gen.address(wp.addr, mem.depth)
                writes.append((enable, f"_m{mem_index}[{addr}] = {data}"))
    for enable, write in writes:
        if isinstance(enable, int):
            gen.emit(write)
        else:
            gen.emit(f"if {enable}:")
            gen.emit("    " + write)
    for slot, value in commits:
        gen.emit(f"V[{slot}] = {value}")
