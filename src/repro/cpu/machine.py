"""Executable RV32IM machine: the instruction-set simulator.

This is the functional CPU model (the VexRiscv stand-in).  It executes
real encoded instructions against a SoC bus
(:class:`~repro.soc.bus.SocBus`, which also keeps the copy-on-write
snapshots; a bare ``Machine()`` builds one over a single RAM region
spanning the 32-bit address space), optionally attached to a CFU (any
object with ``execute(funct3, funct7, a, b) -> (result, cycles)``) and
a timing model (:mod:`repro.cpu.timing`), in which case it also
accumulates a cycle count.

The machine halts on ``ebreak``, and on ``ecall`` with ``a0`` as the
exit code.

Two execution paths share the same architectural semantics:

- :meth:`Machine.step` — the reference interpreter: fetch, decode, and
  execute one instruction.  Nothing is cached; this is the slow path
  the differential suite (``tests/test_sim_differential.py``) holds the
  fast path against.
- :meth:`Machine.run` (default ``backend="auto"``) — the fast path:
  every dispatch pc runs a translated basic block
  (:mod:`repro.cpu.translate`), decoded from memory and generated on
  the pc's first dispatch, with the hot state (pc, cycle and
  instruction counters, hazard bookkeeping) kept in locals between
  blocks.  A pc no block covers — a system instruction, a translation
  refusal, or a remaining budget shorter than the block — runs on
  ``step()``.  Blocks serve no timing model or exactly the stock
  :class:`~repro.cpu.timing.VexTiming`, on a bus that counts no
  traffic; any other machine runs every instruction on ``step()``.
  Blocks end at the code-page edge, so each lies on its entry page; a
  store into a page drops that page's blocks, which keeps
  self-modifying code correct.

:meth:`Machine.run` and :meth:`~repro.cpu.profiler.MachineProfiler.run`
are the only places the path is chosen: a caller that wants the oracle
builds the machine and runs it with ``backend="step"``.
"""

from __future__ import annotations

from . import isa
from .isa import OPCODE_CUSTOM0

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_MASK32 = 0xFFFFFFFF

#: Simulator backend names accepted by :meth:`Machine.run` and
#: :meth:`~repro.cpu.profiler.MachineProfiler.run`.  ``auto`` runs
#: translated blocks, stepping whatever a block cannot cover; ``step``
#: is the reference interpreter.
SIM_BACKENDS = ("auto", "step")


def _unknown_backend(name):
    return (f"unknown sim backend {name!r}"
            f" (expected one of {', '.join(SIM_BACKENDS)})")


def _sext32(value):
    value &= _MASK32
    return value - (1 << 32) if value & 0x80000000 else value


class MemoryAccessError(RuntimeError):
    pass


# --- decoded-instruction dispatch kinds -------------------------------------------
#
# Each specialized op is a 7-tuple ``(kind, a, b, c, d, ins, reads)``:
# ``kind`` selects what the block translator emits, ``a``..``d`` carry
# the pre-extracted operand fields (meaning depends on the kind),
# ``ins`` is the full decoded :class:`~repro.cpu.isa.Instruction`, and
# ``reads`` is the register-read tuple the timing model's hazard
# interlock checks.  Kind numbering is grouped so code can test ranges:
#   0..12   simple ALU (no extra timing cost)
#   14..19  shifts          20..23 multiplies        24..27 divides
#   32..36  loads           40..42 stores            64..69 branches
#   80..81  jumps           96..   CFU/system/fence/raise

_K_ADDI, _K_SLTI, _K_SLTIU, _K_XORI, _K_ORI, _K_ANDI = range(6)
_K_ADD, _K_SUB, _K_SLT, _K_SLTU, _K_XOR, _K_OR, _K_AND = range(6, 13)
_K_CONST = 13                      # lui/auipc: value fully precomputed
_K_SLLI, _K_SRLI, _K_SRAI, _K_SLL, _K_SRL, _K_SRA = range(14, 20)
_K_MUL, _K_MULH, _K_MULHSU, _K_MULHU = range(20, 24)
_K_DIV, _K_DIVU, _K_REM, _K_REMU = range(24, 28)
_K_LB, _K_LH, _K_LW, _K_LBU, _K_LHU = range(32, 37)
_K_SB, _K_SH, _K_SW = range(40, 43)
_K_BEQ, _K_BNE, _K_BLT, _K_BGE, _K_BLTU, _K_BGEU = range(64, 70)
_K_JAL, _K_JALR = 80, 81
_K_CFU, _K_EBREAK, _K_ECALL, _K_CSR, _K_FENCE, _K_RAISE = range(96, 102)

_ALU_IMM_KINDS = {0: _K_ADDI, 2: _K_SLTI, 3: _K_SLTIU, 4: _K_XORI,
                  6: _K_ORI, 7: _K_ANDI}
_ALU_REG_KINDS = {0: _K_ADD, 2: _K_SLT, 3: _K_SLTU, 4: _K_XOR,
                  6: _K_OR, 7: _K_AND}
_MULDIV_KINDS = {0: _K_MUL, 1: _K_MULH, 2: _K_MULHSU, 3: _K_MULHU,
                 4: _K_DIV, 5: _K_DIVU, 6: _K_REM, 7: _K_REMU}
_LOAD_KINDS = {0: _K_LB, 1: _K_LH, 2: _K_LW, 4: _K_LBU, 5: _K_LHU}
_STORE_KINDS = {0: _K_SB, 1: _K_SH, 2: _K_SW}
_BRANCH_KINDS = {0: _K_BEQ, 1: _K_BNE, 4: _K_BLT, 5: _K_BGE,
                 6: _K_BLTU, 7: _K_BGEU}


def classify_kind(kind):
    """Instruction-mix class of a dispatch kind (profiler/metrics view)."""
    if kind <= _K_CONST:
        return "alu"
    if kind < _K_MUL:
        return "shift"
    if kind < _K_DIV:
        return "mul"
    if kind < 28:
        return "div"
    if kind < 40:
        return "load"
    if kind < 64:
        return "store"
    if kind < _K_JAL:
        return "branch"
    if kind < _K_CFU:
        return "jump"
    if kind == _K_CFU:
        return "cfu"
    if kind == _K_RAISE:
        return "unknown"
    return "system"


def _hazard_reads(ins):
    """Registers the incoming instruction reads, per the interlock rule
    in :meth:`Machine._hazard_stall` (must match it exactly)."""
    reads = ()
    if ins.opcode not in (isa.OPCODE_LUI, isa.OPCODE_AUIPC, isa.OPCODE_JAL):
        reads = (ins.rs1,)
    if ins.opcode in (isa.OPCODE_OP, isa.OPCODE_BRANCH, isa.OPCODE_STORE,
                      OPCODE_CUSTOM0):
        reads = reads + (ins.rs2,)
    return reads


def _specialize(pc, ins):
    """Bind a decoded instruction to its dispatch kind with operand
    fields extracted and pc-relative values precomputed."""
    op = ins.opcode
    reads = _hazard_reads(ins)
    f3 = ins.funct3

    if op == isa.OPCODE_OP_IMM:
        if f3 == 1:
            return (_K_SLLI, ins.rd, ins.rs1, ins.imm & 0x1F, 0, ins, reads)
        if f3 == 5:
            kind = _K_SRAI if ins.funct7 & 0x20 else _K_SRLI
            return (kind, ins.rd, ins.rs1, ins.imm & 0x1F, 0, ins, reads)
        imm = ins.imm & _MASK32 if f3 == 3 else ins.imm
        return (_ALU_IMM_KINDS[f3], ins.rd, ins.rs1, imm, 0, ins, reads)
    if op == isa.OPCODE_OP:
        if ins.funct7 == 0x01:
            return (_MULDIV_KINDS[f3], ins.rd, ins.rs1, ins.rs2, 0, ins, reads)
        if f3 == 0:
            kind = _K_SUB if ins.funct7 & 0x20 else _K_ADD
        elif f3 == 1:
            kind = _K_SLL
        elif f3 == 5:
            kind = _K_SRA if ins.funct7 & 0x20 else _K_SRL
        else:
            kind = _ALU_REG_KINDS[f3]
        return (kind, ins.rd, ins.rs1, ins.rs2, 0, ins, reads)
    if op == isa.OPCODE_LUI:
        return (_K_CONST, ins.rd, 0, ins.imm & _MASK32, 0, ins, reads)
    if op == isa.OPCODE_AUIPC:
        return (_K_CONST, ins.rd, 0, (pc + ins.imm) & _MASK32, 0, ins, reads)
    if op == isa.OPCODE_JAL:
        return (_K_JAL, ins.rd, (pc + 4) & _MASK32,
                (pc + ins.imm) & _MASK32, 0, ins, reads)
    if op == isa.OPCODE_JALR:
        return (_K_JALR, ins.rd, ins.rs1, ins.imm, (pc + 4) & _MASK32,
                ins, reads)
    if op == isa.OPCODE_BRANCH:
        kind = _BRANCH_KINDS.get(f3)
        if kind is None:
            return (_K_RAISE, 0, 0, "bad branch funct3", 0, ins, reads)
        return (kind, ins.rs1, ins.rs2, (pc + ins.imm) & _MASK32,
                ins.imm < 0, ins, reads)
    if op == isa.OPCODE_LOAD:
        kind = _LOAD_KINDS.get(f3)
        if kind is None:
            return (_K_RAISE, 0, 0, "bad load funct3", 0, ins, reads)
        return (kind, ins.rd, ins.rs1, ins.imm, 0, ins, reads)
    if op == isa.OPCODE_STORE:
        kind = _STORE_KINDS.get(f3)
        if kind is None:
            return (_K_RAISE, 0, 0, "bad store funct3", 0, ins, reads)
        return (kind, ins.rs1, ins.rs2, ins.imm, 0, ins, reads)
    if op == OPCODE_CUSTOM0:
        return (_K_CFU, ins.rd, ins.rs1, ins.rs2,
                (ins.funct3, ins.funct7), ins, reads)
    if op == isa.OPCODE_SYSTEM:
        if ins.raw == 0x00100073:
            return (_K_EBREAK, 0, 0, 0, 0, ins, reads)
        if ins.raw == 0x00000073:
            return (_K_ECALL, 0, 0, 0, 0, ins, reads)
        if ins.funct3 in (1, 2, 3):
            return (_K_CSR, ins.rd, 0, ins.imm & 0xFFF, 0, ins, reads)
        return (_K_RAISE, 0, 0,
                f"unsupported SYSTEM instruction 0x{ins.raw:08x}",
                0, ins, reads)
    if op == isa.OPCODE_MISC_MEM:
        return (_K_FENCE, 0, 0, 0, 0, ins, reads)
    return (_K_RAISE, 0, 0,
            f"illegal instruction 0x{ins.raw:08x} at pc=0x{pc:08x}",
            0, ins, reads)


def _timing_state(timing):
    """Capture a timing model's mutable state (trace-driven cache tags
    and hit/miss tallies, branch-predictor counters) for snapshots."""
    if timing is None:
        return None
    state = {}
    for name in ("icache", "dcache"):
        cache = getattr(timing, name, None)
        if cache is not None:
            state[name] = (cache.hits, cache.misses,
                           [list(tags) for tags in cache._sets])
    predictor = getattr(timing, "predictor", None)
    counters = getattr(predictor, "_counters", None)
    if counters is not None:
        state["predictor"] = list(counters)
    return state


def _restore_timing_state(timing, state):
    """Rewind a timing model in place — generated blocks bake the cache
    set list and predictor counter list identities, so the inner lists
    are rewritten, never rebound."""
    if timing is None or state is None:
        return
    for name in ("icache", "dcache"):
        cache = getattr(timing, name, None)
        if cache is not None and name in state:
            hits, misses, sets = state[name]
            cache.hits = hits
            cache.misses = misses
            for tags, saved in zip(cache._sets, sets):
                tags[:] = saved
    predictor = getattr(timing, "predictor", None)
    counters = getattr(predictor, "_counters", None)
    if counters is not None and "predictor" in state:
        counters[:] = state["predictor"]


class Machine:
    """A single-hart RV32IM machine with optional CFU and timing model.

    ``memory`` is the :class:`~repro.soc.bus.SocBus` it runs on; None
    builds :func:`~repro.soc.bus.flat_bus`."""

    def __init__(self, memory=None, cfu=None, timing=None):
        if memory is None:
            from ..soc.bus import flat_bus

            memory = flat_bus()
        self.memory = memory
        self.cfu = cfu
        self.timing = timing
        self.regs = [0] * 32
        self.pc = 0
        self.instret = 0
        self.cycles = 0
        self.halted = False
        self.exit_code = None
        # Hazard tracking for the timing model.
        self._pending_rd = 0
        self._pending_is_load = False
        # Block cache (repro.cpu.translate): pc -> BlockEntry, plus the
        # page -> [entry pc] map for page-granular store invalidation.
        # NOTE: generated blocks bake a direct reference to
        # _block_pages — mutate that dict in place, never rebind it.
        self._blocks = {}
        self._block_pages = {}
        self._block_fault = [0, 0, -1]  # (pc, cycles, instrs) at in-block fault
        self._block_timing = None      # timing model the blocks were baked for
        self._block_traffic = False    # bus traffic accounting at bake time
        self.block_promotions = 0      # successful block translations
        self.block_invalidation_count = 0
        # Machine-level data-page tuple cache shared by every generated
        # block (page index -> resolved access tuple).  Its identity is
        # baked into generated code; mutate in place, never rebind.  The
        # bus evicts entries on COW transitions (see register_page_cache).
        self._data_page_cache = {}
        self._page_resolver = None
        memory.register_page_cache(self._data_page_cache)
        # Persistent cross-process translation cache (a
        # :class:`~repro.core.codecache.CodeCache`, or None to only
        # code-generate in-process).
        self.compile_cache = None
        self.block_cache_loads = 0     # blocks bound from cached source
        self.snapshot_count = 0
        self.restore_count = 0
        self.pages_restored = 0

    # --- block cache ----------------------------------------------------------------
    @property
    def block_cache_entries(self):
        """Translated blocks currently cached (sentinels excluded)."""
        return sum(1 for entry in self._blocks.values() if entry.length)

    def flush_block_cache(self):
        """Drop every translated block (e.g. after loading a new
        image)."""
        if self._block_pages:
            self.block_invalidation_count += len(self._block_pages)
        self._blocks.clear()
        self._block_pages.clear()
        self._data_page_cache.clear()
        self._page_resolver = None  # timing/traffic may have changed

    def _invalidate_block_page(self, page):
        blocks = self._blocks
        for pc in self._block_pages.pop(page):
            blocks.pop(pc, None)
        self.block_invalidation_count += 1

    def _invalidate_store(self, addr, span):
        """Drop the blocks of the pages a store to ``addr`` touches
        (called from inside generated blocks).  Returns True when
        anything was dropped, telling the block to bail back to the
        run loop."""
        hit = False
        page = addr >> _PAGE_BITS
        if page in self._block_pages:
            self._invalidate_block_page(page)
            hit = True
        last = (addr + span) >> _PAGE_BITS
        if last != page and last in self._block_pages:
            self._invalidate_block_page(last)
            hit = True
        return hit

    def invalidate_pages(self, addr, length):
        """Drop blocks only for the pages covering ``[addr, addr +
        length)`` — the page-granular alternative to
        :meth:`flush_block_cache` for reload paths where most resident
        code is unchanged.  Returns the number of pages invalidated."""
        if length <= 0:
            return 0
        dropped = 0
        first = addr >> _PAGE_BITS
        last = (addr + length - 1) >> _PAGE_BITS
        for page in range(first, last + 1):
            if page in self._block_pages:
                self._invalidate_block_page(page)
                dropped += 1
        return dropped

    # --- snapshots -------------------------------------------------------------------
    def snapshot(self):
        """An O(pages-touched) copy-on-write snapshot of the whole
        machine: memory (COW — nothing is copied until written),
        architectural registers, counters, the timing model's cache and
        predictor state, and the CFU's state (via its
        ``snapshot_state()`` protocol).  The block cache is *not*
        part of the snapshot — it is derived state, and :meth:`restore`
        invalidates it only for the restored pages, so warm translated
        code survives across restore cycles."""
        self.snapshot_count += 1
        return {
            "memory": self.memory.snapshot(),
            "regs": list(self.regs),
            "pc": self.pc,
            "instret": self.instret,
            "cycles": self.cycles,
            "halted": self.halted,
            "exit_code": self.exit_code,
            "pending_rd": self._pending_rd,
            "pending_is_load": self._pending_is_load,
            "timing": _timing_state(self.timing),
            "cfu": (self.cfu.snapshot_state()
                    if hasattr(self.cfu, "snapshot_state") else None),
        }

    def restore(self, snap):
        """Rewind to a :meth:`snapshot`.  Costs O(pages written since
        the snapshot); blocks are invalidated only for restored pages.
        Returns the number of pages restored."""
        restored = self.memory.restore(snap["memory"])
        for page in restored:
            if page in self._block_pages:
                self._invalidate_block_page(page)
        self.regs[:] = snap["regs"]
        self.pc = snap["pc"]
        self.instret = snap["instret"]
        self.cycles = snap["cycles"]
        self.halted = snap["halted"]
        self.exit_code = snap["exit_code"]
        self._pending_rd = snap["pending_rd"]
        self._pending_is_load = snap["pending_is_load"]
        _restore_timing_state(self.timing, snap["timing"])
        if snap["cfu"] is not None and hasattr(self.cfu, "restore_state"):
            self.cfu.restore_state(snap["cfu"])
        self.restore_count += 1
        self.pages_restored += len(restored)
        return len(restored)

    def discard_snapshot(self, snap):
        """Stop a snapshot's undo log from accumulating (it can no
        longer be restored)."""
        self.memory.discard_snapshot(snap["memory"])

    def _promote(self, pc, profiled=False):
        """Translate the block at ``pc`` with the variant a run needs
        and install it (a sentinel on refusal: the run loop steps this
        pc), or compile that variant for a block an earlier run
        translated."""
        from .translate import translate_block

        entry = self._blocks.get(pc)
        if entry is None:
            entry = translate_block(self, pc, profiled)
            self._blocks[pc] = entry
            self._block_pages.setdefault(pc >> _PAGE_BITS, []).append(pc)
            if entry.length:
                self.block_promotions += 1
        else:
            entry.variant(self, profiled)
        return entry

    # --- observability --------------------------------------------------------------
    def export_metrics(self, telemetry, **labels):
        """Feed the machine's counters into a
        :class:`~repro.core.telemetry.Telemetry`: retired
        instructions and cycles, block-cache health, and the timing
        model's trace-driven i/d-cache hit/miss counts."""
        telemetry.counter("sim_instructions", **labels).add(self.instret)
        telemetry.counter("sim_cycles", **labels).add(self.cycles)
        telemetry.gauge("sim_block_cache_entries",
                        **labels).set(self.block_cache_entries)
        telemetry.counter("sim_block_promotions",
                          **labels).add(self.block_promotions)
        telemetry.counter("sim_block_invalidations",
                          **labels).add(self.block_invalidation_count)
        telemetry.counter("sim_block_cache_loads",
                          **labels).add(self.block_cache_loads)
        telemetry.counter("sim_snapshots", **labels).add(self.snapshot_count)
        telemetry.counter("sim_restores", **labels).add(self.restore_count)
        telemetry.counter("sim_pages_restored",
                          **labels).add(self.pages_restored)
        if self.timing is not None:
            for cache in (self.timing.icache, self.timing.dcache):
                if cache is None:
                    continue
                telemetry.counter("sim_cache_hits", cache=cache.name,
                                  **labels).add(cache.hits)
                telemetry.counter("sim_cache_misses", cache=cache.name,
                                  **labels).add(cache.misses)
        return telemetry

    # --- program loading -----------------------------------------------------------
    def load_program(self, code, addr=0):
        self.memory.load_bytes(addr, code)
        self.flush_block_cache()
        self.pc = addr

    def load_assembly(self, source, addr=0):
        from .assembler import assemble

        code, symbols = assemble(source, origin=addr)
        self.load_program(code, addr)
        return symbols

    # --- register helpers -------------------------------------------------------------
    def set_reg(self, index, value):
        if index:
            self.regs[index] = value & _MASK32

    # --- execution ------------------------------------------------------------------
    def run(self, max_instructions=1_000_000, backend="auto"):
        """Execute until halt or the instruction budget is exhausted.

        ``backend`` picks the execution path (see :data:`SIM_BACKENDS`):
        ``"auto"`` runs translated blocks, ``"step"`` the reference
        interpreter.  Both are architecturally identical (the
        differential suite asserts it).  The budget counts executed
        instructions: a program that halts *on* its
        ``max_instructions``-th instruction completes normally; the
        budget error is raised only when the machine is still running
        after the budget is spent.
        """
        if backend == "auto":
            self._run_blocks(max_instructions)
        elif backend == "step":
            executed = 0
            while executed < max_instructions and not self.halted:
                self.step()
                executed += 1
        else:
            raise ValueError(_unknown_backend(backend))
        if not self.halted:
            raise RuntimeError(f"instruction budget exhausted at pc=0x{self.pc:08x}")
        return self.exit_code

    def _run_blocks(self, max_instructions, profile=None):
        """The fast path: run the translated block at every dispatch pc,
        translating it on first dispatch, with the hot state in locals.
        A pc no block covers runs on :meth:`step`: one instruction at a
        sentinel (a system instruction, a translation refusal, or any pc
        of a machine blocks do not serve), and the rest of the budget
        when it is shorter than the block, so truncation is
        instruction-exact.  Bit-identical to the ``step()`` loop, timing
        model and CFU included.

        ``profile`` (a :class:`~repro.cpu.profiler.MachineProfiler`, or
        anything exposing ``pc_buckets``/``bucket_for_pc``) runs each
        block's attribution-instrumented variant and charges each
        ``step()``'s cycles to its pc, exactly as the reference
        ``step()``-based profiler does.  A faulting instruction's
        partial cycles stay unattributed on both paths."""
        timing = self.timing
        # Blocks bake the timing model's identity, and a bus counting
        # traffic gets only sentinels; if either moved under us, the
        # cache is for a different machine configuration.
        traffic_now = self.memory._traffic is not None
        if self._block_timing is not timing or \
                self._block_traffic != traffic_now:
            self.flush_block_cache()
            self._block_timing = timing
            self._block_traffic = traffic_now
        regs = self.regs
        cfu = self.cfu
        step = self.step
        promote = self._promote
        blocks_get = self._blocks.get
        fault_box = self._block_fault
        profiled = profile is not None
        buckets_get = profile.pc_buckets.get if profiled else None
        new_bucket = profile.bucket_for_pc if profiled else None
        pc = self.pc
        instret = self.instret
        cycles = self.cycles
        pending_rd = self._pending_rd
        pending_is_load = self._pending_is_load
        halted = self.halted
        executed = 0
        try:
            while executed < max_instructions and not halted:
                entry = blocks_get(pc)
                if entry is not None:
                    fn = entry.fn_prof if profiled else entry.fn
                if entry is None or fn is None and entry.length:
                    entry = promote(pc, profiled)
                    fn = entry.fn_prof if profiled else entry.fn
                if fn is not None and \
                        executed + entry.length <= max_instructions:
                    fault_box[2] = -1
                    pc, cycles, n, pending_rd, pending_is_load = \
                        fn(regs, cycles, pending_rd, pending_is_load, cfu,
                           max_instructions - executed, buckets_get,
                           new_bucket)
                    instret += n
                    executed += n
                    continue
                count = 1 if fn is None else max_instructions - executed
                self.pc = pc
                self.instret = instret
                self.cycles = cycles
                self._pending_rd = pending_rd
                self._pending_is_load = pending_is_load
                try:
                    while count and not self.halted:
                        if profiled:
                            stepped, before = self.pc, self.cycles
                            step()
                            bucket = buckets_get(stepped)
                            if bucket is None:
                                bucket = new_bucket(stepped)
                            bucket[0] += self.cycles - before
                            bucket[1] += 1
                        else:
                            step()
                        count -= 1
                        executed += 1
                finally:
                    # A step() that raised left its committed state
                    # (fetch cycles included) on the machine.
                    pc = self.pc
                    instret = self.instret
                    cycles = self.cycles
                    pending_rd = self._pending_rd
                    pending_is_load = self._pending_is_load
                    halted = self.halted
        except BaseException:
            if fault_box[2] >= 0:
                # The fault happened inside a generated block, which
                # left the committed-so-far state in the fault box.
                # step() clears the hazard bookkeeping before dispatch,
                # so a faulting instruction leaves no pending writeback.
                pc = fault_box[0]
                cycles = fault_box[1]
                instret += fault_box[2]
                fault_box[2] = -1
                pending_rd = 0
                pending_is_load = False
            raise
        finally:
            self.pc = pc
            self.instret = instret
            self.cycles = cycles
            self._pending_rd = pending_rd
            self._pending_is_load = pending_is_load
        return executed

    def step(self):
        if self.halted:
            return
        word = self.memory.read32(self.pc)
        ins = isa.decode(word)
        if self.timing is not None:
            self.cycles += self.timing.fetch(self.pc)
            self.cycles += self._hazard_stall(ins)
        next_pc = self.pc + 4
        cycles = 1
        self._pending_rd = 0
        self._pending_is_load = False

        op = ins.opcode
        rs1 = self.regs[ins.rs1]
        rs2 = self.regs[ins.rs2]

        if op == isa.OPCODE_OP_IMM:
            cycles += self._alu_imm(ins, rs1)
        elif op == isa.OPCODE_OP:
            cycles += self._alu_reg(ins, rs1, rs2)
        elif op == isa.OPCODE_LUI:
            self.set_reg(ins.rd, ins.imm)
        elif op == isa.OPCODE_AUIPC:
            self.set_reg(ins.rd, self.pc + ins.imm)
        elif op == isa.OPCODE_JAL:
            self.set_reg(ins.rd, self.pc + 4)
            next_pc = (self.pc + ins.imm) & _MASK32
            if self.timing is not None:
                cycles += self.timing.jump_penalty(direct=True)
        elif op == isa.OPCODE_JALR:
            target = (rs1 + ins.imm) & ~1 & _MASK32
            self.set_reg(ins.rd, self.pc + 4)
            next_pc = target
            if self.timing is not None:
                cycles += self.timing.jump_penalty(direct=False)
        elif op == isa.OPCODE_BRANCH:
            taken = self._branch_taken(ins, rs1, rs2)
            if taken:
                next_pc = (self.pc + ins.imm) & _MASK32
            if self.timing is not None:
                cycles += self.timing.branch_penalty(self.pc, taken, ins.imm < 0)
        elif op == isa.OPCODE_LOAD:
            cycles += self._load(ins, rs1)
        elif op == isa.OPCODE_STORE:
            cycles += self._store(ins, rs1, rs2)
        elif op == OPCODE_CUSTOM0:
            cycles += self._cfu_op(ins, rs1, rs2)
        elif op == isa.OPCODE_SYSTEM:
            next_pc = self._system(ins, next_pc)
        elif op == isa.OPCODE_MISC_MEM:
            pass  # fence: no-op on an in-order single hart
        else:
            raise RuntimeError(f"illegal instruction 0x{word:08x} at pc=0x{self.pc:08x}")

        self.pc = next_pc
        self.instret += 1
        if self.timing is None:
            self.cycles += 1
        else:
            self.cycles += cycles

    # --- instruction groups ----------------------------------------------------------
    def _alu_imm(self, ins, rs1):
        extra = 0
        f3 = ins.funct3
        if f3 == 0:
            result = rs1 + ins.imm
        elif f3 == 2:
            result = int(_sext32(rs1) < ins.imm)
        elif f3 == 3:
            result = int(rs1 < (ins.imm & _MASK32))
        elif f3 == 4:
            result = rs1 ^ ins.imm
        elif f3 == 6:
            result = rs1 | ins.imm
        elif f3 == 7:
            result = rs1 & ins.imm
        elif f3 == 1:
            shamt = ins.imm & 0x1F
            result = rs1 << shamt
            extra = self._shift_cost(shamt)
        elif f3 == 5:
            shamt = ins.imm & 0x1F
            if ins.funct7 & 0x20:
                result = _sext32(rs1) >> shamt
            else:
                result = rs1 >> shamt
            extra = self._shift_cost(shamt)
        else:
            raise RuntimeError("bad OP-IMM funct3")
        self.set_reg(ins.rd, result)
        self._pending_rd = ins.rd
        return extra

    def _alu_reg(self, ins, rs1, rs2):
        extra = 0
        f3, f7 = ins.funct3, ins.funct7
        if f7 == 0x01:  # M extension
            result, extra = self._muldiv(f3, rs1, rs2)
        elif f3 == 0:
            result = rs1 - rs2 if f7 & 0x20 else rs1 + rs2
        elif f3 == 1:
            result = rs1 << (rs2 & 0x1F)
            extra = self._shift_cost(rs2 & 0x1F)
        elif f3 == 2:
            result = int(_sext32(rs1) < _sext32(rs2))
        elif f3 == 3:
            result = int(rs1 < rs2)
        elif f3 == 4:
            result = rs1 ^ rs2
        elif f3 == 5:
            shamt = rs2 & 0x1F
            result = _sext32(rs1) >> shamt if f7 & 0x20 else rs1 >> shamt
            extra = self._shift_cost(shamt)
        elif f3 == 6:
            result = rs1 | rs2
        elif f3 == 7:
            result = rs1 & rs2
        else:
            raise RuntimeError("bad OP funct3")
        self.set_reg(ins.rd, result)
        self._pending_rd = ins.rd
        return extra

    def _muldiv(self, f3, rs1, rs2):
        s1, s2 = _sext32(rs1), _sext32(rs2)
        if f3 == 0:
            result = s1 * s2
            extra = self._mul_cost()
        elif f3 == 1:
            result = (s1 * s2) >> 32
            extra = self._mul_cost()
        elif f3 == 2:
            result = (s1 * rs2) >> 32
            extra = self._mul_cost()
        elif f3 == 3:
            result = (rs1 * rs2) >> 32
            extra = self._mul_cost()
        elif f3 == 4:
            result = -1 if s2 == 0 else _div_trunc(s1, s2)
            extra = self._div_cost()
        elif f3 == 5:
            result = _MASK32 if rs2 == 0 else rs1 // rs2
            extra = self._div_cost()
        elif f3 == 6:
            result = s1 if s2 == 0 else s1 - _div_trunc(s1, s2) * s2
            extra = self._div_cost()
        else:
            result = rs1 if rs2 == 0 else rs1 % rs2
            extra = self._div_cost()
        return result, extra

    def _mul_cost(self):
        return self.timing.mul_cycles() - 1 if self.timing else 0

    def _div_cost(self):
        return self.timing.div_cycles() - 1 if self.timing else 0

    def _shift_cost(self, shamt):
        return self.timing.shift_cycles(shamt) - 1 if self.timing else 0

    def _branch_taken(self, ins, rs1, rs2):
        f3 = ins.funct3
        if f3 == 0:
            return rs1 == rs2
        if f3 == 1:
            return rs1 != rs2
        if f3 == 4:
            return _sext32(rs1) < _sext32(rs2)
        if f3 == 5:
            return _sext32(rs1) >= _sext32(rs2)
        if f3 == 6:
            return rs1 < rs2
        if f3 == 7:
            return rs1 >= rs2
        raise RuntimeError("bad branch funct3")

    def _load(self, ins, rs1):
        addr = (rs1 + ins.imm) & _MASK32
        f3 = ins.funct3
        if f3 == 0:
            value = _sext8(self.memory.read8(addr))
        elif f3 == 1:
            self._check_align(addr, 2)
            value = _sext16(self.memory.read16(addr))
        elif f3 == 2:
            self._check_align(addr, 4)
            value = self.memory.read32(addr)
        elif f3 == 4:
            value = self.memory.read8(addr)
        elif f3 == 5:
            self._check_align(addr, 2)
            value = self.memory.read16(addr)
        else:
            raise RuntimeError("bad load funct3")
        self.set_reg(ins.rd, value)
        self._pending_rd = ins.rd
        self._pending_is_load = True
        if self.timing is not None:
            return self.timing.load_cycles(addr) - 1
        return 0

    def _store(self, ins, rs1, rs2):
        addr = (rs1 + ins.imm) & _MASK32
        f3 = ins.funct3
        if f3 == 0:
            self.memory.write8(addr, rs2)
            span = 0
        elif f3 == 1:
            self._check_align(addr, 2)
            self.memory.write16(addr, rs2)
            span = 1
        elif f3 == 2:
            self._check_align(addr, 4)
            self.memory.write32(addr, rs2)
            span = 3
        else:
            raise RuntimeError("bad store funct3")
        self._invalidate_store(addr, span)
        if self.timing is not None:
            return self.timing.store_cycles(addr) - 1
        return 0

    def _cfu_op(self, ins, rs1, rs2):
        if self.cfu is None:
            raise RuntimeError(
                f"CFU instruction at pc=0x{self.pc:08x} but no CFU attached"
            )
        result, latency = self.cfu.execute(ins.funct3, ins.funct7, rs1, rs2)
        self.set_reg(ins.rd, result)
        self._pending_rd = ins.rd
        return max(0, latency - 1)

    def _system(self, ins, next_pc):
        if ins.raw == 0x00100073:  # ebreak
            self.halted = True
            return self.pc
        if ins.raw == 0x00000073:  # ecall: exit with a0 as the code
            self.exit_code = _sext32(self.regs[10])
            self.halted = True
            return self.pc
        csr = ins.imm & 0xFFF
        if ins.funct3 in (1, 2, 3):  # csrrw/csrrs/csrrc
            value = {0xB00: self.cycles, 0xC00: self.cycles,
                     0xC02: self.instret, 0xB02: self.instret}.get(csr, 0)
            self.set_reg(ins.rd, value)
            return next_pc
        raise RuntimeError(f"unsupported SYSTEM instruction 0x{ins.raw:08x}")

    def _check_align(self, addr, size):
        if self.timing is not None and not self.timing.checks_alignment():
            return  # hardware error checking removed: silently allow
        if addr % size:
            raise MemoryAccessError(
                f"misaligned {size}-byte access at 0x{addr:08x} (pc=0x{self.pc:08x})"
            )

    def _hazard_stall(self, ins):
        """Read-after-write interlock cost for the incoming instruction."""
        if not self._pending_rd:
            return 0
        reads = set()
        if ins.opcode not in (isa.OPCODE_LUI, isa.OPCODE_AUIPC, isa.OPCODE_JAL):
            reads.add(ins.rs1)
        if ins.opcode in (isa.OPCODE_OP, isa.OPCODE_BRANCH, isa.OPCODE_STORE,
                          OPCODE_CUSTOM0):
            reads.add(ins.rs2)
        if self._pending_rd not in reads:
            return 0
        return self.timing.hazard_cycles(self._pending_is_load)


def _sext8(value):
    return value - 256 if value & 0x80 else value


def _sext16(value):
    return value - 65536 if value & 0x8000 else value


def _div_trunc(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q
