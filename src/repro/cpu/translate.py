"""Basic-block translation: the ISA simulator's one fast path.

:meth:`Machine.run <repro.cpu.machine.Machine.run>` runs every dispatch
pc as a basic block — the straight-line run of instructions from an
entry pc to the next branch/jump/system instruction or code-page edge —
code-generated into one specialized Python function on the pc's first
dispatch and cached per entry pc.  Whatever a block cannot cover runs
on the reference :meth:`~repro.cpu.machine.Machine.step`.  A block has
two variants, plain and attribution-instrumented for the profiler, and
each is compiled only when a run first needs it.

What the generated function bakes in as literals:

- register reads/writes flattened to locals (one list load per register
  at entry, one store at exit),
- immediates, masks, and sign-extension constants,
- the timing model's configuration-pure costs (shift/mul/div cycles,
  jump penalties, hazard interlock costs, per-pair static RAW hazards
  inside the block) constant-folded into per-instruction literals, with
  only data-dependent costs (``fetch``/``load_cycles``/``store_cycles``
  cache state, branch-predictor outcomes, CFU latency) left as calls,
- plain-RAM page access: loads/stores index the backing ``bytearray``
  directly through the bus page cache, falling back to the memory
  object's slow path for misses, CSR windows, read-only regions, and
  straddles.  The resolved page (data, base, writability) is kept in
  locals across accesses, so streaming loops pay one dict probe per
  page switch instead of one per access.

When the timing model is the stock :class:`~repro.cpu.timing.VexTiming`
with stock :class:`~repro.perf.cache.Cache` /
:class:`~repro.cpu.timing.BranchPredictor` internals (exact-type
checks; duck-typed timing doubles keep the method-call path), three
data-dependent costs are inlined too:

- *fetch*: all block pcs share one memory region (checked at
  translation time).  With no icache (or an uncacheable region) the
  fetch cost is a region constant, folded away entirely.  With an
  icache, only the first instruction of each cache line pays a real
  ``fetch`` call; the rest of the line is a guaranteed MRU hit — no
  intervening icache access can evict it — so those fetches fold to a
  batched ``hits += k`` with zero cycles, flushed before any
  instruction that can fault so stats stay exact mid-block.
- *branch penalty*: the predictor's table index ``(pc >> 2) % size`` is
  a translation-time constant, so the 2-bit counter read/update and the
  penalty selection inline to a few integer ops ("none"/"static" kinds
  fold to two literals).
- *load/store cycles*: a page that lies entirely inside one memory
  region has constant miss/uncached costs, resolved lazily per page
  alongside the data-page locals.  With those baked, the entire stock
  dcache access — set index, LRU tag-list update, hit/miss stats, and
  the fill cost on a miss — inlines to integer ops; only pages that
  span regions keep the real call.  Self-loop blocks whose instruction
  lines map to distinct icache sets additionally hoist their real
  fetches to iteration 1: later iterations are guaranteed MRU hits.

CFU calls go through an optional ``fast_call(funct3, funct7)`` protocol
(:class:`~repro.cfu.interface.CfuModel`): a model may hand back a
single-latency bound callable for a fixed opcode pair, which the block
resolves once per invocation and uses instead of the generic
``execute`` tuple protocol.  Wrappers that must observe every
invocation (``MeteredCfu``) simply don't provide one.

Deviations from the obvious design, on purpose:

- CFU instructions do *not* terminate blocks.  The CFU call is emitted
  in-block (with the same no-CFU error and latency accounting as
  ``step()``); cutting blocks at CFU boundaries would halve block length
  on exactly the accelerator-bound workloads blocks exist for.
- Blocks whose terminator jumps back to their own entry pc loop
  *inside* the generated function under an instruction budget, so tight
  loops pay one call per many iterations, not per pass.

Generated source goes through :func:`repro.core.codecache.compile_entry`:
a machine with a ``compile_cache`` binds a block from cached source
instead of re-running the code generator, and each distinct source text
is compiled once per process.

Correctness contract (held by ``tests/test_sim_differential.py``):
architectural state, cycle counts, fault state, and profiler
attribution are bit-identical to the reference ``step()`` loop.  A
block is decoded straight from memory and cut at the code-page edge, so
it lies on its entry page, and the block cache's page map is the only
one: a store into a page drops that page's blocks, and a store from
*inside* a block that drops any finishes its own accounting and returns
to the run loop immediately.
"""

from __future__ import annotations

import sys

from ..perf.cache import Cache
from .machine import (
    MemoryAccessError,
    SparseMemory,
    _div_trunc,
    _PAGE_BITS,
    _PAGE_SIZE,
)
from .isa import decode
from .timing import BranchPredictor, VexTiming
from . import machine as _m

#: Longest run of instructions folded into one block.
MAX_BLOCK = 128

_M32 = 0xFFFFFFFF

#: Aligned 4-byte accesses can go through a ``memoryview("I")`` of the
#: backing only when the host and the guest agree on byte order.
_LITTLE = sys.byteorder == "little"


def _mv_cast(buf):
    """A 32-bit word view of ``buf``, or None when it can't be cast
    (length not a multiple of 4).  Backings never resize, so holding
    the buffer export for the duration of one block call is safe."""
    try:
        return memoryview(buf).cast("I")
    except (TypeError, ValueError):
        return None


class BlockEntry:
    """One translated block: entry pc, instruction count, its decoded
    ops, and the generated function of each variant — plain (``fn``)
    and attribution-instrumented (``fn_prof``) — compiled on first use.
    A ``length`` of 0 is a sentinel: translation was refused (or
    failed) at this pc and the run loop steps it."""

    __slots__ = ("pc", "length", "fn", "fn_prof", "source", "source_prof",
                 "_ops")

    def __init__(self, pc, ops):
        self.pc = pc
        self.length = len(ops)
        self.fn = self.fn_prof = None
        self.source = self.source_prof = None
        self._ops = ops

    def variant(self, machine, profiled):
        """Compile (once) and return the plain or the profiled function.
        A code-generation failure turns the entry into a sentinel and
        returns None."""
        fn = self.fn_prof if profiled else self.fn
        if fn is None and self.length:
            try:
                source, fn = _compile(machine, self.pc, self._ops, profiled)
            except Exception:
                self.length = 0
                self.fn = self.fn_prof = None
                return None
            if profiled:
                self.source_prof, self.fn_prof = source, fn
            else:
                self.source, self.fn = source, fn
        return fn


def _discover(machine, pc):
    """Collect the straight-line decoded ops starting at ``pc``.

    The run ends at (and includes) the first branch/jump, and ends
    *before* any system-class instruction (ebreak/ecall/csr/fence/
    illegal: they need live machine state or halt), before a MUL when
    the timing model has no multiplier (``step()`` raises mid-dispatch
    and the block would mis-count cycles first), and at the code-page
    edge so every block lives on exactly one invalidation page.
    """
    timed = machine.timing is not None
    mul_ok = True
    if timed:
        try:
            machine.timing.mul_cycles()
        except Exception:
            mul_ok = False
    page_end = ((pc >> _PAGE_BITS) + 1) << _PAGE_BITS
    read32 = machine.memory.read32
    ops = []
    p = pc
    while p + 4 <= page_end and len(ops) < MAX_BLOCK:
        try:
            op = _m._specialize(p, decode(read32(p)))
        except Exception:
            break  # unreadable code memory: end the block here
        k = op[0]
        if k >= _m._K_EBREAK:
            break  # system/illegal: cut before, step() runs it
        if timed and not mul_ok and _m._K_MUL <= k < _m._K_DIV:
            break  # step() raises "no multiplier" on dispatch
        ops.append((p, op))
        if _m._K_BEQ <= k <= _m._K_JALR:
            break  # control transfer terminates the block
        p += 4
    return ops


def translate_block(machine, pc, profiled=False):
    """Translate the block at ``pc`` into a :class:`BlockEntry` with
    the variant a run needs compiled.

    Never raises: a pc where discovery finds nothing to translate, or
    where code generation fails, gets a sentinel (``length`` 0), so the
    run loop steps this pc.
    """
    entry = BlockEntry(pc, _discover(machine, pc))
    entry.variant(machine, profiled)
    return entry


def _pending_after(op):
    """(pending_rd, pending_is_load) after ``op`` retires, exactly as
    ``step()`` leaves the hazard bookkeeping."""
    k = op[0]
    if k == _m._K_CONST:
        return 0, False
    if k < 32 or k == _m._K_CFU:
        return op[1], False
    if k < 40:  # loads
        return op[1], True
    return 0, False  # stores, branches, jumps


def _mem_style(mem):
    """Memory access style for code generation.  Traffic accounting
    must observe every transaction, so it forces the slow (method-call)
    style; the run loop flushes blocks when the flag flips."""
    if getattr(mem, "_traffic", None) is not None:
        return "slow"
    if getattr(mem, "_page_data", None) is not None:
        return "bus"
    if isinstance(mem, SparseMemory):
        return "sparse"
    return "slow"


def _build_resolver(machine):
    """The machine-level page resolver shared by every generated block:
    page index -> ``(data, base, writable, word view, cost mode, load
    cost, store cost)``, cached in ``machine._data_page_cache`` (whose
    identity blocks bake as ``_PGg``).  Only resolvable pages are
    cached, so a sparse page created later (or a CSR page) is re-probed
    on the next refresh.

    COW-protected pages resolve as non-writable: generated stores then
    fall back to the memory's write methods, which record the undo
    image and lift the protection (the memory evicts the page from this
    cache on every protection transition, so the next refresh sees it
    writable again).
    """
    mem = machine.memory
    timing = machine.timing
    timed = timing is not None
    style = _mem_style(mem)
    check_align = (not timed) or timing.checks_alignment()
    use_mv = check_align and _LITTLE
    pg = machine._data_page_cache
    protected = getattr(mem, "_cow_protected", ())
    if style == "bus":
        _bus_get = mem._page_data.get
    else:
        _sp_get = getattr(mem, "_pages", {}).get
    dcache = getattr(timing, "dcache", None)
    dc_ok = timed and _dc_inline_ok(timing, dcache)
    if dc_ok:
        _mm = timing.memory_map
        _lbytes = timing.line_bytes
        _costs = {}

        def _page_costs(page, _dcache=dcache):
            lo = page << _PAGE_BITS
            hi = lo + _PAGE_SIZE
            try:
                region = _mm.find(lo)
            except Exception:
                region = None
            if region is None or lo < region.base or region.end < hi:
                entry = (-1, 0, 0)  # page spans regions: keep the call
            elif _dcache is not None and region.cacheable:
                fill = 1 + region.tech.line_fill_cycles(_lbytes)
                entry = (1, fill, fill)
            else:
                entry = (0, region.tech.first_word_latency,
                         region.tech.write_latency)
            _costs[page] = entry
            return entry

    def _resolve_page(page):
        ld, lb, lw, mv = None, 0, False, None
        if style == "bus":
            ent = _bus_get(page)
            if ent is not None:
                ld, lb, lw = ent
        else:
            ld = _sp_get(page)
            lb = page << _PAGE_BITS
            lw = ld is not None
        if lw and page in protected:
            lw = False  # COW: route stores through the memory methods
        if use_mv and ld is not None and lb & 3 == 0:
            mv = _mv_cast(ld)
        if dc_ok:
            lc, lmc, lsc = _costs.get(page) or _page_costs(page)
        else:
            lc = lmc = lsc = 0
        out = (ld, lb, lw, mv, lc, lmc, lsc)
        if ld is not None:
            pg[page] = out
        return out

    return _resolve_page


def _ensure_resolver(machine):
    resolver = machine._page_resolver
    if resolver is None:
        resolver = _build_resolver(machine)
        machine._page_resolver = resolver
    return resolver


def _dc_inline_ok(timing, dcache):
    """Whether the stock-dcache data-access cost can be inlined (the
    resolver and the code generator must agree on this gate)."""
    tt = type(timing)
    return (tt.load_cycles is VexTiming.load_cycles
            and tt.store_cycles is VexTiming.store_cycles
            and tt._data_access is VexTiming._data_access
            and (dcache is None or type(dcache) is Cache))


def _timing_key(timing):
    """The canonical (JSON-able via repr) timing configuration a block
    bakes in, or a refusal (None return means "don't cache"): only the
    stock VexTiming is canonicalizable — duck-typed timing doubles have
    no value identity."""
    if timing is None:
        return {"timing": None}
    if type(timing) is not VexTiming:
        return None
    return {
        "config": repr(timing.config),
        "regions": [repr(region) for region in timing.memory_map.regions],
        "line_bytes": timing.line_bytes,
    }


def _block_key(machine, entry_pc, ops, profiled):
    """The persistent-cache key for one block, or None when this
    machine configuration cannot be content-addressed."""
    timing_key = _timing_key(machine.timing)
    if timing_key is None:
        return None
    from ..core.codecache import code_key, generator_digest

    return code_key("tier2-block", {
        "generator": generator_digest(__name__),
        "pc": entry_pc,
        # The instruction words come from the already-decoded ops (not
        # a fresh memory read, which would perturb traffic accounting).
        "code": [op[5].raw for _p, op in ops],
        "profiled": bool(profiled),
        "style": _mem_style(machine.memory),
        "byteorder": sys.byteorder,
        "timing": timing_key,
    })


#: How to rebuild each object a generated block bakes, from the live
#: machine and the block's CFU site count — everything a block closes
#: over derives from the machine, which is what makes cached *source*
#: rebindable in any process.
_BAKED = {
    "_mr8": lambda m, n: m.memory.read8,
    "_mr16": lambda m, n: m.memory.read16,
    "_mr32": lambda m, n: m.memory.read32,
    "_mw8": lambda m, n: m.memory.write8,
    "_mw16": lambda m, n: m.memory.write16,
    "_mw32": lambda m, n: m.memory.write32,
    "_BP": lambda m, n: m._block_pages,
    "_SI": lambda m, n: m._invalidate_store,
    "_F": lambda m, n: m._block_fault,
    "_dv": lambda m, n: _div_trunc,
    "_PGg": lambda m, n: m._data_page_cache.get,
    "_RP": lambda m, n: _ensure_resolver(m),
    "_CC": lambda m, n: [object()] + [None] * (1 + n),
    "_ft": lambda m, n: m.timing.fetch,
    "_ldc": lambda m, n: m.timing.load_cycles,
    "_stc": lambda m, n: m.timing.store_cycles,
    "_bp": lambda m, n: m.timing.branch_penalty,
    "_ic": lambda m, n: m.timing.icache,
    "_dc": lambda m, n: m.timing.dcache,
    "_dsets": lambda m, n: m.timing.dcache._sets,
    "_bpc": lambda m, n: m.timing.predictor._counters,
}


def _valid_entry(entry):
    """Whether a cached block entry names only bakeable objects and
    carries a CFU site count."""
    need, n_cfu = entry.get("need"), entry.get("cfu_sites")
    return (isinstance(need, list)
            and all(isinstance(name, str) and name in _BAKED
                    for name in need)
            and type(n_cfu) is int and n_cfu >= 0)


def _bind(machine, code, need, n_cfu):
    """``exec`` a block's compiled code against this machine's live
    objects (the emit/bind split: emission is deterministic and cached;
    binding is per-machine and cheap)."""
    env = {name: _BAKED[name](machine, n_cfu) for name in need}
    env["MemoryAccessError"] = MemoryAccessError
    exec(code, env)
    return env["_block"]


def _compile(machine, entry_pc, ops, profiled):
    """Return ``(source, function)`` for one block variant.  The source
    comes from the machine's compile cache when it holds a valid entry,
    else from the code generator (:func:`_emit`)."""
    from ..core.codecache import compile_entry

    cache = machine.compile_cache
    key = None if cache is None else _block_key(machine, entry_pc, ops,
                                                profiled)

    def generate():
        source, need, n_cfu = _emit(machine, entry_pc, ops, profiled)
        return {"source": source, "need": sorted(need), "cfu_sites": n_cfu}

    entry, code, hit = compile_entry(cache, key, generate, _valid_entry)
    if hit:
        machine.block_cache_loads += 1
    return entry["source"], _bind(machine, code, entry["need"],
                                  entry["cfu_sites"])


def _emit(machine, entry_pc, ops, profiled):
    """Generate one block's source; returns ``(source, need, n_cfu)``
    where ``need`` names the objects :func:`_bind` must supply."""
    timing = machine.timing
    timed = timing is not None
    mem = machine.memory
    style = _mem_style(mem)

    check_align = (not timed) or timing.checks_alignment()

    # Configuration-pure timing constants, baked at translation time.
    if timed:
        barrel = timing.shift_cycles(31) == 1
        try:
            mul_c = timing.mul_cycles()
        except Exception:
            mul_c = None  # _discover cut before any MUL
        div_c = timing.div_cycles()
        jal_c = 1 + timing.jump_penalty(direct=True)
        jalr_c = 1 + timing.jump_penalty(direct=False)
        hz_load = timing.hazard_cycles(True)
        hz_other = timing.hazard_cycles(False)

    n_ops = len(ops)
    last_pc, last_op = ops[-1]
    lk = last_op[0]
    if _m._K_BEQ <= lk <= _m._K_BGEU:
        term = "branch"
        loop = last_op[3] == entry_pc
    elif lk == _m._K_JAL:
        term = "jal"
        loop = last_op[3] == entry_pc
    elif lk == _m._K_JALR:
        term = "jalr"
        loop = False
    else:
        term = "fall"
        loop = False

    # --- timing-internals inlining gates ------------------------------------------
    # Only the stock VexTiming with stock Cache/BranchPredictor
    # internals qualifies (exact-type checks): a duck-typed or
    # subclassed timing double keeps the method-call path.
    ic_mode = "call"   # per-instruction fetch strategy: call|const|line
    fetch_const = 0
    ic_lb = 32
    bp_inline = False
    dc_inline = False
    predictor = None
    dcache = None
    if timed:
        tt = type(timing)
        region = None
        if tt.fetch is VexTiming.fetch:
            try:
                region = timing.memory_map.find(entry_pc)
                if timing.memory_map.find(last_pc) is not region:
                    region = None
            except Exception:
                region = None
        if region is not None:
            icache = timing.icache
            if icache is None or not region.cacheable:
                # fetch is a pure region constant: fold it away
                ic_mode = "const"
                fetch_const = region.tech.first_word_latency - 1
            elif type(icache) is Cache:
                ic_mode = "line"
                ic_lb = icache.line_bytes
        predictor = getattr(timing, "predictor", None)
        bp_inline = (tt.branch_penalty is VexTiming.branch_penalty
                     and type(predictor) is BranchPredictor)
        dcache = getattr(timing, "dcache", None)
        dc_ok = _dc_inline_ok(timing, dcache)

    # --- registers touched ------------------------------------------------------
    reads, writes = set(), set()

    def _touch(rs=(), rd=0):
        for r in rs:
            if r:
                reads.add(r)
        if rd:
            writes.add(rd)

    for _p, op in ops:
        k = op[0]
        if k == _m._K_CONST:
            _touch(rd=op[1])
        elif k <= 12 or 14 <= k < 17 or 32 <= k < 37:
            # imm-ALU, reg-ALU, imm shifts, loads: op[2] is rs1 (reg-ALU
            # also reads op[3])
            rs = (op[2], op[3]) if 6 <= k <= 12 else (op[2],)
            _touch(rs, op[1])
        elif 17 <= k < 28:  # reg shifts, mul/div
            _touch((op[2], op[3]), op[1])
        elif 40 <= k < 43:  # stores: op[1] base, op[2] src
            _touch((op[1], op[2]))
        elif 64 <= k < 70:  # branches
            _touch((op[1], op[2]))
        elif k == _m._K_JAL:
            _touch(rd=op[1])
        elif k == _m._K_JALR:
            _touch((op[2],), op[1])
        elif k == _m._K_CFU:
            _touch((op[2], op[3]), op[1])

    has_mem = any(32 <= op[0] < 43 for _p, op in ops)
    use_pcache = has_mem and style in ("bus", "sparse")
    cfu_sites = [i for i, (_p, op) in enumerate(ops)
                 if op[0] == _m._K_CFU]

    # Data-access cost inlining piggybacks on the page locals: a page
    # that lies entirely inside one region has translation-time-constant
    # miss/uncached costs, resolved lazily per page into a block-local
    # cache.  With that, the whole dcache simulation (LRU tag lists,
    # hit/miss stats, fill cost) inlines to a handful of integer ops.
    dc_inline = timed and dc_ok and use_pcache
    if dc_inline and dcache is not None:
        dlb, dns = dcache.line_bytes, dcache.num_sets
        dc_line = (f"_a >> {dlb.bit_length() - 1}"
                   if dlb & (dlb - 1) == 0 else f"_a // {dlb}")
        if dns & (dns - 1) == 0:
            dc_set = f"_ln & {dns - 1}"
            dc_tag = f"_ln >> {dns.bit_length() - 1}"
        else:
            dc_set, dc_tag = f"_ln % {dns}", f"_ln // {dns}"

    # A self-loop block owns the icache while it iterates in-function:
    # if its instruction lines all map to distinct sets, iteration 1's
    # real fetches leave every line most-recently-used, so fetches on
    # iterations >= 2 are guaranteed hits (and the MRU reorder is a
    # no-op) — they fold to ``hits += 1`` behind an ``_it`` test.
    loop_ic_hoist = False
    if loop and ic_mode == "line":
        block_lines = {p // ic_lb for p, _op in ops}
        ic_sets = {ln % timing.icache.num_sets for ln in block_lines}
        loop_ic_hoist = len(ic_sets) == len(block_lines)

    # Aligned word loads/stores go through a 32-bit memoryview of the
    # backing instead of four byte indexes (little-endian hosts only;
    # the alignment check above the access guarantees in-page, aligned
    # word offsets).
    use_mv = (use_pcache and check_align and _LITTLE
              and any(op[0] in (_m._K_LW, _m._K_SW) for _p, op in ops))

    # Page resolution is machine-level (see _build_resolver): every
    # block shares one resolver and one page cache, so the resolved
    # tuples — and the source that consumes them — are block-independent
    # and the generated source is cacheable across processes.

    # --- emission helpers -------------------------------------------------------
    need = set()
    out = []

    def L(indent, text):
        out.append("    " * indent + text)

    def R(n):
        return "0" if n == 0 else f"_r{n}"

    def sx(e):
        return f"({e} - 4294967296 if {e} & 2147483648 else {e})"

    def attr(ind, i):
        if not profiled:
            return
        if timed:
            L(ind, f"_bk{i}[0] += cycles - _c0")
        else:
            L(ind, f"_bk{i}[0] += 1")
        L(ind, f"_bk{i}[1] += 1")

    def addr_expr(base, imm):
        if base == 0:
            return str(imm & _M32)
        if imm == 0:
            return R(base)
        return f"({R(base)} + {imm}) & 4294967295"

    def misalign(ind, i, p, size, mask):
        if not check_align:
            return
        L(ind, f"if _a & {mask}:")
        if not timed:
            L(ind + 1, f"_fj = {i}")
        L(ind + 1, "raise MemoryAccessError("
                   f"\"misaligned {size}-byte access at 0x%08x (pc=0x%08x)\""
                   f" % (_a, {p}))")

    def slow_fj(ind, i):
        # Functional blocks only materialize the fault index on paths
        # that can actually raise; timed blocks set it per instruction.
        if not timed:
            L(ind, f"_fj = {i}")

    # Batched guaranteed icache hits (line mode): flushed before any
    # instruction that can fault, so mid-block stats are exact.
    ih_pending = [0]

    def flush_hits(ind):
        if ih_pending[0]:
            need.add("_ic")
            L(ind, f"_ic.hits += {ih_pending[0]}")
            ih_pending[0] = 0

    def refresh_page(ind, i, word, write):
        # Per-site page locals: each static load/store site keeps its
        # own resolved page, so a loop alternating two pages (memcpy:
        # src and dst) never re-resolves in steady state.  The resolved
        # tuples live across calls in the block-local page cache.
        need.update(("_PGg", "_RP"))
        L(ind, "_p = _a >> 12")
        L(ind, f"if _p != _lp{i}:")
        L(ind + 1, f"_lp{i} = _p")
        L(ind + 1, "_e = _PGg(_p)")
        L(ind + 1, "if _e is None:")
        L(ind + 2, "_e = _RP(_p)")
        L(ind + 1, f"_ld{i} = _e[0]")
        L(ind + 1, f"_lb{i} = _e[1]")
        if write:
            L(ind + 1, f"_lw{i} = _e[2]")
        if word:
            L(ind + 1, f"_mv{i} = _e[3]")
        if dc_inline:
            L(ind + 1, f"_lc{i} = _e[4]")
            L(ind + 1, f"_lmc{i} = _e[5]")
            L(ind + 1, f"_lsc{i} = _e[6]")

    def read_inline(ind, i, target, nbytes, composed):
        """Emit a page-cache-inlined read into ``target``; ``composed``
        maps the backing's local name to the value expression over
        ``_o``."""
        slow = {1: "_mr8", 2: "_mr16", 4: "_mr32"}[nbytes]
        need.add(slow)
        if style == "slow":
            slow_fj(ind, i)
            L(ind, f"{target} = {slow}(_a)")
            return
        limit = _PAGE_SIZE - nbytes
        word = nbytes == 4 and use_mv
        refresh_page(ind, i, word, write=False)
        off = f"_a - _lb{i}"
        ld = f"_ld{i}"
        if word:
            L(ind, f"if _mv{i} is not None:")
            L(ind + 1, f"{target} = _mv{i}[({off}) >> 2]")
            L(ind, f"elif {ld} is not None:")
            L(ind + 1, f"_o = {off}")
            L(ind + 1, f"{target} = {composed(ld)}")
        elif nbytes == 1:
            L(ind, f"if {ld} is not None:")
            L(ind + 1, f"{target} = {ld}[{off}]")
        elif check_align:
            L(ind, f"if {ld} is not None:")
            L(ind + 1, f"_o = {off}")
            L(ind + 1, f"{target} = {composed(ld)}")
        else:
            L(ind, f"if {ld} is not None and (_o := {off}) <= {limit}:")
            L(ind + 1, f"{target} = {composed(ld)}")
        L(ind, "else:")
        slow_fj(ind + 1, i)
        L(ind + 1, f"{target} = {slow}(_a)")

    def write_inline(ind, i, value, nbytes, byte_lines):
        """Emit a page-cache-inlined write of ``value``; ``byte_lines``
        maps the backing's local name to per-byte stores over ``_o``."""
        slow = {1: "_mw8", 2: "_mw16", 4: "_mw32"}[nbytes]
        need.add(slow)
        if style == "slow":
            slow_fj(ind, i)
            L(ind, f"{slow}(_a, {value})")
            return
        limit = _PAGE_SIZE - nbytes
        word = nbytes == 4 and use_mv
        refresh_page(ind, i, word, write=True)
        ld = f"_ld{i}"
        off = f"_a - _lb{i}"
        wcond = f"{ld} is not None and _lw{i}"
        mvcond = f"_mv{i} is not None and _lw{i}"
        if word:
            L(ind, f"if {mvcond}:")
            L(ind + 1, f"_mv{i}[({off}) >> 2] = {value}")
            L(ind, f"elif {wcond}:")
            L(ind + 1, f"_o = {off}")
            for bl in byte_lines(ld):
                L(ind + 1, bl)
        elif nbytes == 1:
            L(ind, f"if {wcond}:")
            L(ind + 1, f"{ld}[{off}] = {value} & 255")
        elif check_align:
            L(ind, f"if {wcond}:")
            L(ind + 1, f"_o = {off}")
            for bl in byte_lines(ld):
                L(ind + 1, bl)
        else:
            L(ind, f"if {wcond} and (_o := {off}) <= {limit}:")
            for bl in byte_lines(ld):
                L(ind + 1, bl)
        L(ind, "else:")
        slow_fj(ind + 1, i)
        L(ind + 1, f"{slow}(_a, {value})")

    def mem_cycles(ind, i, call_name):
        # Data-access cost.  With the page locals resolved, the page's
        # region (hence its fill/uncached costs) is a baked constant, so
        # the whole stock-dcache access — LRU tag list, hit/miss stats,
        # miss cost — inlines; only pages spanning regions keep the
        # call.  ``_lc{i}`` 1 = cacheable behind a dcache, 0 = constant
        # cost, -1 = slow.
        need.add(call_name)
        if not dc_inline:
            L(ind, f"cycles += {call_name}(_a)")
            return
        cost = f"_lsc{i}" if call_name == "_stc" else f"_lmc{i}"
        if dcache is not None:
            need.update(("_dc", "_dsets"))
            L(ind, f"if _lc{i} == 1:")
            L(ind + 1, f"_ln = {dc_line}")
            L(ind + 1, f"_ts = _dsets[{dc_set}]")
            L(ind + 1, f"_tg = {dc_tag}")
            L(ind + 1, "if _ts and _ts[-1] == _tg:")
            L(ind + 2, "_dc.hits += 1")
            L(ind + 2, "cycles += 1")
            if dcache.ways > 1:
                L(ind + 1, "elif _tg in _ts:")
                L(ind + 2, "_ts.remove(_tg)")
                L(ind + 2, "_ts.append(_tg)")
                L(ind + 2, "_dc.hits += 1")
                L(ind + 2, "cycles += 1")
            L(ind + 1, "else:")
            L(ind + 2, "_dc.misses += 1")
            L(ind + 2, "_ts.append(_tg)")
            L(ind + 2, f"if len(_ts) > {dcache.ways}:")
            L(ind + 3, "_ts.pop(0)")
            L(ind + 2, f"cycles += {cost}")
            L(ind, f"elif _lc{i} == 0:")
        else:
            L(ind, f"if _lc{i} == 0:")
        L(ind + 1, f"cycles += {cost}")
        L(ind, "else:")
        L(ind + 1, f"cycles += {call_name}(_a)")

    # --- per-instruction emission -----------------------------------------------
    wb = sorted(writes)

    def static_hz(i):
        # RAW interlock between two instructions *inside* the block is
        # statically known; only instruction 0 sees the caller's pending
        # writeback (and on loop iterations >= 2 the terminator cleared
        # it, so _hz0 is zeroed at the back edge).
        if not timed or i == 0:
            return 0
        prd, pil = _pending_after(ops[i - 1][1])
        if prd and prd in ops[i][1][6]:
            return hz_load if pil else hz_other
        return 0

    def const_cost(op):
        k = op[0]
        if k < 14:
            return 1
        if k < 17:
            return timing.shift_cycles(op[3])
        if k < 20:
            return 1  # reg shift: +shamt emitted dynamically if iterative
        if k < 24:
            return mul_c
        if k < 28:
            return div_c
        if k == _m._K_JAL:
            return jal_c
        if k == _m._K_JALR:
            return jalr_c
        return 0  # loads/stores/branches/CFU: data-dependent

    def prologue(ind, i, p, op):
        if not timed:
            return
        k = op[0]
        fault_capable = 32 <= k < 43 or k == _m._K_CFU
        if ic_mode == "line" and i > 0 and p // ic_lb == ops[i - 1][0] // ic_lb:
            # Same icache line as the previous fetch with no icache
            # access in between: guaranteed MRU hit, zero cycles.
            ih_pending[0] += 1
            fetch_real = False
        else:
            fetch_real = ic_mode != "const"
        if fetch_real or fault_capable:
            flush_hits(ind)
            L(ind, f"_fj = {i}")
        if profiled:
            L(ind, "_c0 = cycles")
        cost = const_cost(op) + static_hz(i)
        if ic_mode == "const":
            cost += fetch_const
        if fetch_real:
            need.add("_ft")
            line = f"cycles += _ft({p})"
            if cost:
                line += f" + {cost}"
            if i == 0 and hz0_needed:
                line += " + _hz0"
            if loop_ic_hoist:
                # Real fetch only on iteration 1; afterwards the line
                # is a guaranteed MRU hit (see the hoist gate above).
                need.add("_ic")
                L(ind, "if _it:")
                L(ind + 1, "_ic.hits += 1")
                if cost:
                    L(ind + 1, f"cycles += {cost}")
                L(ind, "else:")
                L(ind + 1, line)
            else:
                L(ind, line)
        else:
            parts = ([str(cost)] if cost else [])
            if i == 0 and hz0_needed:
                parts.append("_hz0")
            if parts:
                L(ind, "cycles += " + " + ".join(parts))

    def store_bail(ind, i, p):
        # A store just invalidated cached pages (possibly this block's):
        # finish the store's own accounting and hand the next pc back
        # to the run loop, which dispatches it afresh.
        if timed:
            need.add("_stc")
            L(ind, "cycles += _stc(_a)")
        attr(ind, i)
        for n in wb:
            L(ind, f"_R[{n}] = _r{n}")
        done = f"{n_ops} * _it + {i + 1}" if loop else str(i + 1)
        if timed:
            L(ind, f"return ({p + 4}, cycles, {done}, 0, False)")
        else:
            L(ind, f"return ({p + 4}, cycles + {done}, {done},"
                   " pending_rd, pending_is_load)")

    def emit_instr(ind, i, p, op):
        k = op[0]
        rd = op[1]
        prologue(ind, i, p, op)
        if k < 14:  # ALU + constants
            r1 = R(op[2])
            if k == _m._K_ADDI:
                e = r1 if op[3] == 0 else f"({r1} + {op[3]}) & 4294967295"
            elif k == _m._K_SLTI:
                e = f"1 if {sx(r1)} < {op[3]} else 0"
            elif k == _m._K_SLTIU:
                e = f"1 if {r1} < {op[3]} else 0"
            elif k == _m._K_XORI:
                e = f"{r1} ^ {op[3] & _M32}"
            elif k == _m._K_ORI:
                e = f"{r1} | {op[3] & _M32}"
            elif k == _m._K_ANDI:
                e = f"{r1} & {op[3] & _M32}"
            elif k == _m._K_ADD:
                e = f"({r1} + {R(op[3])}) & 4294967295"
            elif k == _m._K_SUB:
                e = f"({r1} - {R(op[3])}) & 4294967295"
            elif k == _m._K_SLT:
                e = f"1 if {sx(r1)} < {sx(R(op[3]))} else 0"
            elif k == _m._K_SLTU:
                e = f"1 if {r1} < {R(op[3])} else 0"
            elif k == _m._K_XOR:
                e = f"{r1} ^ {R(op[3])}"
            elif k == _m._K_OR:
                e = f"{r1} | {R(op[3])}"
            elif k == _m._K_AND:
                e = f"{r1} & {R(op[3])}"
            else:  # _K_CONST: lui/auipc fully precomputed
                e = str(op[3])
            if rd:
                L(ind, f"_r{rd} = {e}")
        elif k < 20:  # shifts
            r1 = R(op[2])
            if k < 17:
                sh = op[3]
                if k == _m._K_SLLI:
                    e = f"({r1} << {sh}) & 4294967295" if sh else r1
                elif k == _m._K_SRLI:
                    e = f"{r1} >> {sh}"
                else:  # SRAI
                    e = f"({sx(r1)} >> {sh}) & 4294967295"
                if rd:
                    L(ind, f"_r{rd} = {e}")
            else:
                iterative = timed and not barrel
                if iterative:
                    L(ind, f"_sh = {R(op[3])} & 31")
                    shex = "_sh"
                else:
                    shex = f"({R(op[3])} & 31)"
                if k == _m._K_SLL:
                    e = f"({r1} << {shex}) & 4294967295"
                elif k == _m._K_SRL:
                    e = f"{r1} >> {shex}"
                else:  # SRA
                    e = f"({sx(r1)} >> {shex}) & 4294967295"
                if rd:
                    L(ind, f"_r{rd} = {e}")
                if iterative:
                    L(ind, "cycles += _sh")
        elif k < 28:  # mul/div (signed division rounds toward zero)
            a, b = R(op[2]), R(op[3])
            sa, sb = sx(a), sx(b)
            if k == _m._K_MUL:
                e = f"{a} * {b}"
            elif k == _m._K_MULH:
                e = f"{sa} * {sb} >> 32"
            elif k == _m._K_MULHSU:
                e = f"{sa} * {b} >> 32"
            elif k == _m._K_MULHU:
                e = f"{a} * {b} >> 32"
            elif k == _m._K_DIVU:
                e = f"4294967295 if {b} == 0 else {a} // {b}"
            elif k == _m._K_REMU:
                e = f"{a} if {b} == 0 else {a} % {b}"
            else:
                need.add("_dv")
                if k == _m._K_DIV:
                    e = f"4294967295 if {b} == 0 else _dv({sa}, {sb})"
                else:  # REM
                    e = f"{a} if {b} == 0 else {sa} - _dv({sa}, {sb}) * {sb}"
            if rd:
                L(ind, f"_r{rd} = ({e}) & 4294967295")
        elif k < 37:  # loads
            L(ind, f"_a = {addr_expr(op[2], op[3])}")
            target = f"_r{rd}" if rd else "_v"
            if k == _m._K_LW:
                misalign(ind, i, p, 4, 3)
                read_inline(ind, i, target, 4, lambda d: (
                    f"{d}[_o] | {d}[_o + 1] << 8"
                    f" | {d}[_o + 2] << 16 | {d}[_o + 3] << 24"))
            elif k == _m._K_LBU:
                read_inline(ind, i, target, 1, None)
            elif k == _m._K_LB:
                read_inline(ind, i, "_v", 1, None)
                if rd:
                    L(ind, f"_r{rd} = _v | 4294967040 if _v & 128 else _v")
            elif k == _m._K_LHU:
                misalign(ind, i, p, 2, 1)
                read_inline(ind, i, target, 2,
                            lambda d: f"{d}[_o] | {d}[_o + 1] << 8")
            else:  # LH
                misalign(ind, i, p, 2, 1)
                read_inline(ind, i, "_v", 2,
                            lambda d: f"{d}[_o] | {d}[_o + 1] << 8")
                if rd:
                    L(ind, f"_r{rd} = _v | 4294901760 if _v & 32768 else _v")
            if timed:
                mem_cycles(ind, i, "_ldc")
        elif k < 43:  # stores
            L(ind, f"_a = {addr_expr(op[1], op[3])}")
            value = R(op[2])
            if k == _m._K_SW:
                span = 3
                misalign(ind, i, p, 4, 3)
                write_inline(ind, i, value, 4, lambda d: [
                    f"{d}[_o] = {value} & 255",
                    f"{d}[_o + 1] = {value} >> 8 & 255",
                    f"{d}[_o + 2] = {value} >> 16 & 255",
                    f"{d}[_o + 3] = {value} >> 24",
                ])
            elif k == _m._K_SB:
                span = 0
                write_inline(ind, i, value, 1, None)
            else:  # SH
                span = 1
                misalign(ind, i, p, 2, 1)
                write_inline(ind, i, value, 2, lambda d: [
                    f"{d}[_o] = {value} & 255",
                    f"{d}[_o + 1] = {value} >> 8 & 255",
                ])
            need.update(("_BP", "_SI"))
            if style == "slow":
                L(ind, "_p = _a >> 12")
            if span and not check_align:
                L(ind, f"_q = (_a + {span}) >> 12")
                cond = "_p in _BP or _q in _BP"
            else:
                cond = "_p in _BP"
            L(ind, f"if {cond}:")
            L(ind + 1, f"_SI(_a, {span})")
            store_bail(ind + 1, i, p)
            if timed:
                mem_cycles(ind, i, "_stc")
        else:  # CFU (k == _K_CFU): executes in-block, see module docstring
            if not timed:
                L(ind, f"_fj = {i}")
            f3, f7 = op[4]
            ra, rb = R(op[2]), R(op[3])
            fast_target = f"_r{rd}" if rd else "_v"
            L(ind, f"if _f{i} is not None:")
            L(ind + 1, f"{fast_target} = _f{i}({ra}, {rb})")
            if timed:
                L(ind + 1, "cycles += 1")
            L(ind, "else:")
            msg = f"CFU instruction at pc=0x{p:08x} but no CFU attached"
            L(ind + 1, "if _cx is None:")
            L(ind + 2, f"raise RuntimeError({msg!r})")
            L(ind + 1, f"_v, _cl = _cx({f3}, {f7}, {ra}, {rb})")
            if rd:
                L(ind + 1, f"_r{rd} = _v & 4294967295")
            if timed:
                L(ind + 1, "cycles += 1 + (_cl - 1 if _cl > 1 else 0)")
        attr(ind, i)

    def cond_expr(op):
        k = op[0]
        a, b = R(op[1]), R(op[2])
        if k == _m._K_BEQ:
            return f"{a} == {b}"
        if k == _m._K_BNE:
            return f"{a} != {b}"
        if k == _m._K_BLTU:
            return f"{a} < {b}"
        if k == _m._K_BGEU:
            return f"{a} >= {b}"
        if k == _m._K_BLT:
            return f"{sx(a)} < {sx(b)}"
        return f"{sx(a)} >= {sx(b)}"

    def back_edge(ind, i):
        # The terminator jumped back to the entry pc: account the
        # finished pass, re-check the instruction budget (precomputed
        # as whole passes in _bq), and either loop in-function or hand
        # the entry pc back to the dispatcher.
        L(ind, "_it += 1")
        if hz0_needed and not loop_ic_hoist:
            L(ind, "_hz0 = 0")
        L(ind, "if _it >= _bq:")
        L(ind + 1, f"_pc = {entry_pc}")
        L(ind + 1, f"_n = {n_ops} * _it")
        L(ind + 1, "break")
        L(ind, "continue")

    def emit_branch_cycles(ind, p, op):
        # cycles for the branch slot + penalty; ``_t`` holds taken.
        if not bp_inline:
            need.add("_bp")
            L(ind, f"cycles += 1 + _bp({p}, _t, {bool(op[4])})")
            return
        kind = predictor.kind
        mp = timing.config.mispredict_penalty
        kt = predictor.knows_target()
        hit_t = 1 if kt else 2  # correct taken: redirect bubble sans BTB
        if kind == "none":
            L(ind, f"cycles += {1 + mp} if _t else 1")
            return
        if kind == "static":
            backward = bool(op[4])
            ct = hit_t if backward else 1 + mp
            cnt = 1 + mp if backward else 1
            L(ind, f"cycles += {ct} if _t else {cnt}")
            return
        # dynamic / dynamic_target: the table index is baked, the 2-bit
        # counter read/update and penalty pick inline to integer ops.
        need.add("_bpc")
        idx = (p >> 2) % predictor.table_size
        L(ind, f"_ct = _bpc[{idx}]")
        L(ind, "if _t:")
        L(ind + 1, "if _ct < 3:")
        L(ind + 2, f"_bpc[{idx}] = _ct + 1")
        L(ind + 1, f"cycles += {1 + mp} if _ct < 2 else {hit_t}")
        L(ind, "else:")
        L(ind + 1, "if _ct > 0:")
        L(ind + 2, f"_bpc[{idx}] = _ct - 1")
        L(ind + 1, f"cycles += {1 + mp} if _ct >= 2 else 1")

    def emit_terminator(ind, i, p, op):
        k = op[0]
        if term == "branch":
            prologue(ind, i, p, op)
            flush_hits(ind)
            if timed:
                L(ind, f"_t = {cond_expr(op)}")
                emit_branch_cycles(ind, p, op)
                attr(ind, i)
                if loop:
                    L(ind, "if _t:")
                    back_edge(ind + 1, i)
                    L(ind, f"_pc = {p + 4}")
                    L(ind, f"_n = {n_ops} * (_it + 1)")
                    L(ind, "break")
                else:
                    L(ind, f"_pc = {op[3]} if _t else {p + 4}")
            else:
                attr(ind, i)
                if loop:
                    L(ind, f"if {cond_expr(op)}:")
                    back_edge(ind + 1, i)
                    L(ind, f"_pc = {p + 4}")
                    L(ind, f"_n = {n_ops} * (_it + 1)")
                    L(ind, "break")
                else:
                    L(ind, f"_pc = {op[3]} if {cond_expr(op)} else {p + 4}")
        elif k == _m._K_JAL:
            prologue(ind, i, p, op)
            flush_hits(ind)
            if op[1]:
                L(ind, f"_r{op[1]} = {op[2]}")
            attr(ind, i)
            if loop:
                back_edge(ind, i)
            else:
                L(ind, f"_pc = {op[3]}")
        else:  # JALR
            prologue(ind, i, p, op)
            flush_hits(ind)
            if op[2] == 0:
                L(ind, f"_t = {op[3] & 0xFFFFFFFE}")
            elif op[3] == 0:
                L(ind, f"_t = {R(op[2])} & 4294967294")
            else:
                L(ind, f"_t = ({R(op[2])} + {op[3]}) & 4294967294")
            if op[1]:
                L(ind, f"_r{op[1]} = {op[4]}")
            attr(ind, i)
            L(ind, "_pc = _t")

    # --- assemble the function ---------------------------------------------------
    first_reads = tuple(dict.fromkeys(r for r in ops[0][1][6] if r))
    hz0_needed = timed and bool(first_reads)
    has_try = timed or any(32 <= op[0] < 43 or op[0] == _m._K_CFU
                           for _p, op in ops)
    base = 1 + (1 if has_try else 0) + (1 if loop else 0)

    body_count = n_ops - 1 if term != "fall" else n_ops
    for i in range(body_count):
        emit_instr(base, i, ops[i][0], ops[i][1])
    if term == "fall":
        flush_hits(base)
        L(base, f"_pc = {entry_pc + 4 * n_ops}")
    else:
        emit_terminator(base, n_ops - 1, last_pc, last_op)

    lines = []
    A1 = "    "
    for n in sorted(reads | writes):
        lines.append(f"{A1}_r{n} = _R[{n}]")
    if profiled:
        # The profiler may rebind its bucket dict between runs, so the
        # accessors arrive as call arguments; per-pc buckets are stable
        # within a run and get hoisted out of the loop here.
        for i, (p, _op) in enumerate(ops):
            lines.append(f"{A1}_bk{i} = _BG({p}) or _NB({p})")
    if hz0_needed:
        hcond = " or ".join(f"pending_rd == {r}" for r in first_reads)
        if hz_load == hz_other:
            lines.append(f"{A1}_hz0 = {hz_load} if ({hcond}) else 0")
        else:
            lines.append(f"{A1}_hz0 = ({hz_load} if pending_is_load else"
                         f" {hz_other}) if ({hcond}) else 0")
    if use_pcache:
        for i, (_p, op) in enumerate(ops):
            if not 32 <= op[0] < 43:
                continue
            lines.append(f"{A1}_lp{i} = -1")
            lines.append(f"{A1}_ld{i} = None")
            if use_mv and op[0] in (_m._K_LW, _m._K_SW):
                lines.append(f"{A1}_mv{i} = None")
    if cfu_sites:
        # Resolve the CFU call targets — the generic execute plus any
        # single-latency fast_call the model offers for a baked
        # (funct3, funct7) pair — once per *bound CFU*, not per call:
        # the cross-call cache list re-resolves only when the machine's
        # cfu identity changes.
        need.add("_CC")
        lines.append(f"{A1}if _CC[0] is not _cfu:")
        lines.append(f"{A1 * 2}_CC[0] = _cfu")
        lines.append(f"{A1 * 2}_CC[1] = None if _cfu is None"
                     " else _cfu.execute")
        lines.append(f"{A1 * 2}_fc = None if _cfu is None"
                     " else getattr(_cfu, 'fast_call', None)")
        for j, i in enumerate(cfu_sites):
            f3, f7 = ops[i][1][4]
            lines.append(f"{A1 * 2}_CC[{2 + j}] = None if _fc is None"
                         f" else _fc({f3}, {f7})")
        lines.append(f"{A1}_cx = _CC[1]")
        for j, i in enumerate(cfu_sites):
            lines.append(f"{A1}_f{i} = _CC[{2 + j}]")
    if has_try:
        lines.append(f"{A1}_fj = 0")
    if loop:
        lines.append(f"{A1}_it = 0")
        lines.append(f"{A1}_bq = _budget // {n_ops}")
    if has_try:
        lines.append(f"{A1}try:")
    if loop:
        lines.append(A1 * (2 if has_try else 1) + "while True:")
    lines.extend(out)
    if has_try:
        need.add("_F")
        lines.append(f"{A1}except BaseException:")
        for n in wb:
            lines.append(f"{A1 * 2}_R[{n}] = _r{n}")
        lines.append(f"{A1 * 2}_F[0] = {entry_pc} + _fj * 4")
        if timed:
            lines.append(f"{A1 * 2}_F[1] = cycles")
        elif loop:
            lines.append(f"{A1 * 2}_F[1] = cycles + {n_ops} * _it + _fj")
        else:
            lines.append(f"{A1 * 2}_F[1] = cycles + _fj")
        if loop:
            lines.append(f"{A1 * 2}_F[2] = {n_ops} * _it + _fj")
        else:
            lines.append(f"{A1 * 2}_F[2] = _fj")
        lines.append(f"{A1 * 2}raise")
    tail = [f"{A1}_R[{n}] = _r{n}" for n in wb]
    done = "_n" if loop else str(n_ops)
    if timed:
        prd, pil = _pending_after(last_op)
        tail.append(f"{A1}return (_pc, cycles, {done}, {prd}, {pil})")
    else:
        tail.append(f"{A1}return (_pc, cycles + {done}, {done},"
                    " pending_rd, pending_is_load)")

    # Both variants take the profiler's bucket accessors (the plain one
    # ignores them), so the run loop calls either the same way.  Baked
    # objects ride in as argument defaults (evaluated once at def time
    # from the exec globals): local-variable access speed in the body,
    # no cell indirection.
    defaults = "".join(f", {name}={name}" for name in sorted(need))
    head = (f"def _block(_R, cycles, pending_rd, pending_is_load,"
            f" _cfu, _budget, _BG, _NB{defaults}):")
    source = "\n".join([head] + lines + tail) + "\n"
    return source, need, len(cfu_sites)
