"""Unit tests for basic-block translation, the ISA fast path.

The differential suite (``tests/test_sim_differential.py``) proves
translated blocks bit-identical to the reference ``step()`` loop on
whole programs; this file pins the *mechanics* underneath that
guarantee: block discovery shapes, translation on first dispatch and
lazily compiled variants, the invalidation contract (stores, image
loads, timing/traffic configuration swaps), budget refusal at block
entry, profiler attribution parity, the CFU ``fast_call`` protocol and
per-CFU re-resolution, and the inlined memory/dcache paths.
"""

import dataclasses

import pytest

from repro.accel import KwsCfu
from repro.accel.kws import model as km
from repro.boards import ARTY_A7_35T
from repro.cfu.interface import CfuModel, MeteredCfu
from repro.cpu import Machine, VexTiming
from repro.cpu.machine import _PAGE_BITS, SIM_BACKENDS
from repro.cpu.profiler import MachineProfiler, profile_assembly
from repro.cpu.translate import MAX_BLOCK, BlockEntry, translate_block
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator
from repro.soc import Soc

COUNT_LOOP = """
    li   t0, {iters}
    li   t1, 0
loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, loop
    mv   a0, t1
    li   a7, 93
    ecall
"""


def run_translated(source, max_instructions=100_000, timing=None, cfu=None):
    machine = Machine(timing=timing, cfu=cfu)
    machine.load_assembly(source)
    machine.run(max_instructions=max_instructions, backend="auto")
    return machine


# --- block discovery --------------------------------------------------------------


def test_block_ends_at_branch():
    machine = Machine()
    symbols = machine.load_assembly(COUNT_LOOP.format(iters=5))
    # The loop body — addi, addi, bnez — forms one block: the branch
    # terminates it and is included in it.
    loop = symbols["loop"]
    entry = translate_block(machine, loop)
    assert isinstance(entry, BlockEntry)
    assert entry.pc == loop
    assert entry.length == 3
    assert entry.fn is not None
    assert "def " in entry.source  # generated source kept for inspection


def test_block_cut_before_system_instruction():
    machine = Machine()
    symbols = machine.load_assembly("""
        li   a0, 1
        li   a1, 2
        add  a2, a0, a1
        li   a7, 93
    stop:
        ecall
    """)
    stop = symbols["stop"]
    # Straight-line code runs up to (not including) the ecall.
    entry = translate_block(machine, 0)
    assert entry.length == stop // 4
    # At the ecall itself discovery finds nothing: sentinel entry.
    sentinel = translate_block(machine, stop)
    assert sentinel.fn is None
    assert sentinel.length == 0


def test_block_capped_at_max_block():
    body = "\n".join("    addi t0, t0, 1" for _ in range(MAX_BLOCK + 40))
    machine = Machine()
    machine.load_assembly(body + "\n    li a7, 93\n    ecall\n")
    entry = translate_block(machine, 0)
    assert entry.length == MAX_BLOCK


def test_block_stops_at_code_page_edge():
    # A block starting 2 instructions shy of a page boundary must not
    # cross it: every block lives on exactly one invalidation page.
    machine = Machine()
    page = 1 << _PAGE_BITS
    start = page - 8
    machine.load_assembly(
        "\n".join("    addi t0, t0, 1" for _ in range(8))
        + "\n    li a7, 93\n    ecall\n", addr=start)
    entry = translate_block(machine, start)
    assert entry.length == 2


def test_sentinel_excluded_from_cache_entries():
    machine = Machine()
    symbols = machine.load_assembly("""
        li a7, 93
    stop:
        ecall
    """)
    stop = symbols["stop"]
    machine._promote(stop)  # the ecall pc: translation refuses
    assert machine._blocks[stop].fn is None
    assert machine.block_cache_entries == 0
    assert machine.block_promotions == 0


# --- translation on first dispatch -----------------------------------------------


def test_hot_loop_promotes_once():
    machine = Machine()
    symbols = machine.load_assembly(COUNT_LOOP.format(iters=200))
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.regs[10] == 200
    loop = machine._blocks[symbols["loop"]]
    assert loop.length == 3 and loop.fn is not None
    # Every dispatch pc got a block on its first dispatch: the loop
    # body once, however many times it ran, plus the set-up block and
    # the tail block; the ecall is a sentinel the loop steps.
    assert machine.block_promotions == 3
    assert machine.block_cache_entries == 3


def test_code_generation_failure_runs_on_step(monkeypatch):
    from repro.cpu import translate

    def refuse(*args):
        raise RuntimeError("no code for this block")

    monkeypatch.setattr(translate, "_emit", refuse)
    machine = run_translated(COUNT_LOOP.format(iters=50))
    reference = Machine()
    reference.load_assembly(COUNT_LOOP.format(iters=50))
    reference.run(backend="step")
    # Every pc is a refusal (a sentinel), so step() runs the program.
    assert (machine.regs, machine.instret, machine.cycles) == \
        (reference.regs, reference.instret, reference.cycles)
    assert machine.block_promotions == machine.block_cache_entries == 0


def test_unknown_backend_rejected():
    machine = Machine()
    machine.load_assembly("    li a7, 93\n    ecall\n")
    for backend in ("warp", "fast"):
        with pytest.raises(ValueError, match="unknown sim backend"):
            machine.run(backend=backend)
    assert sorted(SIM_BACKENDS) == ["auto", "step"]


# --- invalidation contract --------------------------------------------------------


def test_store_invalidates_block_page():
    machine = run_translated(COUNT_LOOP.format(iters=50))
    cached = machine.block_cache_entries
    assert cached > 0
    before = machine.block_invalidation_count
    assert machine._invalidate_store(8, 4) is True
    assert machine.block_cache_entries == 0
    assert machine.block_invalidation_count > before
    # A store to a page with no cached blocks is a miss.
    assert machine._invalidate_store(0x100000, 4) is False


def test_straddling_store_invalidates_both_pages():
    machine = Machine()
    page = 1 << _PAGE_BITS
    machine.load_assembly(COUNT_LOOP.format(iters=50), addr=page - 12)
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.block_cache_entries > 0
    # Code spans the page boundary; a 4-byte store straddling it must
    # drop blocks on both sides.
    assert machine._invalidate_store(page - 2, 4) is True
    assert machine.block_cache_entries == 0


def test_load_program_flushes_blocks():
    machine = run_translated(COUNT_LOOP.format(iters=50))
    assert machine.block_cache_entries > 0
    before = machine.block_invalidation_count
    machine.load_assembly(COUNT_LOOP.format(iters=3))
    assert machine.block_cache_entries == 0
    assert machine.block_invalidation_count > before


def reset_for_rerun(machine):
    machine.pc = 0
    machine.halted = False
    machine.exit_code = None
    machine.regs[:] = [0] * 32
    machine._pending_rd = 0
    machine._pending_is_load = False


def test_timing_swap_flushes_blocks():
    machine = run_translated(COUNT_LOOP.format(iters=50),
                             timing=VexTiming(ARTY_DEFAULT))
    promoted = machine.block_promotions
    assert promoted > 0
    before = machine.block_invalidation_count
    # Same configuration, different object: blocks baked method refs
    # and constants from the old model, so identity change must flush.
    machine.timing = VexTiming(ARTY_DEFAULT)
    reset_for_rerun(machine)
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.regs[10] == 50
    assert machine.block_invalidation_count > before
    assert machine.block_promotions > promoted  # re-promoted after flush


def test_traffic_enable_flushes_blocks():
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, with_timing=False)
    ram = soc.memory_map.get("main_ram").base
    emu.load_assembly(COUNT_LOOP.format(iters=50), region="main_ram")
    emu.run()
    machine = emu.machine
    assert machine.block_cache_entries > 0
    before = machine.block_invalidation_count
    # Enabling bus traffic accounting changes what the generated code
    # is allowed to bake (direct page access would skip the counters),
    # so the next translated run must rebuild every block.
    emu.bus.enable_traffic_metrics()
    machine.pc = ram
    machine.halted = False
    machine.exit_code = None
    machine.regs[:] = [0] * 32
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.block_invalidation_count > before
    assert machine.regs[10] == 50


def test_traffic_counters_identical_across_tiers():
    def run(backend):
        soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
        emu = Emulator(soc, with_timing=True)
        emu.bus.enable_traffic_metrics()
        ram = soc.memory_map.get("main_ram").base
        data = ram + 0x4000
        emu.bus.load_bytes(data, bytes(range(64)))
        emu.load_assembly(f"""
            li   t0, {data}
            li   t1, {data + 0x1000}
            li   t2, 16
        loop:
            lw   t3, 0(t0)
            sw   t3, 0(t1)
            addi t0, t0, 4
            addi t1, t1, 4
            addi t2, t2, -1
            bnez t2, loop
            li   a7, 93
            ecall
        """, region="flash")           # fetches count against flash
        emu.machine.run(backend=backend)
        return emu.bus.traffic()

    step, translated = run("step"), run("auto")
    assert translated == step
    assert set(translated) == {("flash", "read"), ("main_ram", "read"),
                               ("main_ram", "write")}


# --- budget handling --------------------------------------------------------------


def test_budget_refusal_at_block_entry():
    # A budget that lands mid-block must make the run loop refuse the
    # whole-block call and finish on step() so the truncation point is
    # instruction-exact.
    for budget in (31, 32, 33, 50):
        machine = Machine()
        machine.load_assembly(COUNT_LOOP.format(iters=1000))
        with pytest.raises(RuntimeError, match="budget exhausted"):
            machine.run(max_instructions=budget, backend="auto")
        assert machine.instret == budget, f"budget={budget}"
        # step() ran the rest of the budget: no mid-block pc got a
        # block of its own.
        assert machine.block_promotions == 2, f"budget={budget}"


def test_budget_exact_halt_completes():
    # Halting exactly on the budget's last instruction is a normal exit.
    machine = Machine()
    machine.load_assembly(COUNT_LOOP.format(iters=20))
    reference = Machine()
    reference.load_assembly(COUNT_LOOP.format(iters=20))
    reference.run(backend="step")
    machine.run(max_instructions=reference.instret, backend="auto")
    assert machine.halted
    assert machine.instret == reference.instret


# --- profiler attribution ---------------------------------------------------------

PROFILED_SOURCE = """
main:
    li   t0, 300
    li   t1, 0
inner:
    addi t1, t1, 1
    slli t2, t1, 2
    addi t0, t0, -1
    bnez t0, inner
tail:
    mv   a0, t1
    li   a7, 93
    ecall
"""


def _symbol_map(profile):
    return {name: (entry.cycles, entry.instructions)
            for name, entry in profile.entries.items()}


@pytest.mark.parametrize("timing", [None, "arty"], ids=["functional", "timed"])
def test_profiled_attribution_identical_across_tiers(timing):
    profiles = {}
    for backend in ("step", "auto"):
        machine = Machine(timing=VexTiming(ARTY_DEFAULT) if timing else None)
        symbols = machine.load_assembly(PROFILED_SOURCE)
        profile = MachineProfiler(machine, symbols).run(backend=backend)
        if backend == "auto":
            assert machine.block_promotions > 0
        profiles[backend] = profile
    translated, reference = profiles["auto"], profiles["step"]
    assert _symbol_map(translated) == _symbol_map(reference)
    assert translated.total_cycles == reference.total_cycles
    assert translated.instruction_mix == reference.instruction_mix


def test_profiled_run_leaves_plain_variant_uncompiled():
    _, machine = profile_assembly(PROFILED_SOURCE)
    entries = [entry for entry in machine._blocks.values() if entry.length]
    assert entries
    assert all(entry.fn is None and entry.fn_prof is not None
               for entry in entries)
    # A later unprofiled run compiles the plain variant it needs, on
    # the blocks already translated.
    promotions = machine.block_promotions
    reset_for_rerun(machine)
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.block_promotions == promotions
    assert all(entry.fn is not None for entry in entries)


# --- CFU protocol -----------------------------------------------------------------


class Doubler(CfuModel):
    def op(self, funct3, funct7, a, b):
        return (a * 2) & 0xFFFFFFFF

    def fast_call(self, funct3, funct7):
        return lambda a, b: (a * 2) & 0xFFFFFFFF


class Tripler(CfuModel):
    def op(self, funct3, funct7, a, b):
        return (a * 3) & 0xFFFFFFFF

    def fast_call(self, funct3, funct7):
        return lambda a, b: (a * 3) & 0xFFFFFFFF


CFU_LOOP = """
    li   t0, 40
    li   t1, 1
loop:
    cfu  0, 0, t1, t1, x0
    addi t0, t0, -1
    bnez t0, loop
    mv   a0, t1
    li   a7, 93
    ecall
"""


def test_kws_fast_call_matches_execute():
    for f3, f7 in [(km.F3_MAC4, 0), (km.F3_MAC4, 1),
                   (km.F3_MAC1, 0), (km.F3_MAC1, 1)]:
        via_fast = KwsCfu()
        fn = via_fast.fast_call(f3, f7)
        assert fn is not None
        via_execute = KwsCfu()
        for a, b in [(0x01020304, 0x05060708), (0xFF80FF80, 0x7F7F7F7F)]:
            result, latency = via_execute.execute(f3, f7, a, b)
            assert fn(a, b) == result
            assert latency == 1
        assert via_fast.acc == via_execute.acc
    # Non-MAC ops keep the generic path.
    assert KwsCfu().fast_call(km.F3_READ_ACC, 0) is None


def test_metered_cfu_keeps_counting_in_blocks():
    # MeteredCfu exposes no fast_call, so translated blocks must route
    # every invocation through the generic execute path — the metering
    # is the whole point of the wrapper.
    counts = {}
    for backend in ("step", "auto"):
        cfu = MeteredCfu(KwsCfu())
        machine = Machine(cfu=cfu)
        machine.load_assembly(f"""
            li   t0, 30
            li   t1, 0x01010101
        loop:
            cfu  1, {km.F3_MAC4}, a0, t1, t1
            cfu  0, {km.F3_MAC4}, a0, t1, t1
            addi t0, t0, -1
            bnez t0, loop
            cfu  0, {km.F3_READ_ACC}, a0, x0, x0
            li   a7, 93
            ecall
        """)
        machine.run(max_instructions=100_000, backend=backend)
        counts[backend] = dict(cfu.invocations)
        if backend == "auto":
            assert machine.block_promotions > 0
    assert counts["auto"] == counts["step"]
    assert sum(counts["auto"].values()) == 61


def test_cfu_swap_rebinds_without_retranslation():
    # Generated blocks resolve the bound CFU per invocation (identity
    # check), so swapping the model mid-life reuses the same code.
    machine = Machine(cfu=Doubler())
    machine.load_assembly(CFU_LOOP)
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.regs[10] == (1 * 2 ** 40) & 0xFFFFFFFF
    promotions = machine.block_promotions
    assert promotions > 0

    machine.cfu = Tripler()
    reset_for_rerun(machine)
    machine.run(max_instructions=100_000, backend="auto")
    assert machine.regs[10] == (3 ** 40) & 0xFFFFFFFF
    assert machine.block_promotions == promotions  # no re-translation


def test_no_cfu_error_from_inside_block():
    machine = Machine()  # no CFU attached
    machine.load_assembly(CFU_LOOP)
    with pytest.raises(RuntimeError, match="no CFU"):
        machine.run(max_instructions=100_000, backend="auto")


# --- inlined memory and dcache paths ---------------------------------------------


def test_word_copy_loop_identical_memory():
    source = """
        li   t0, 0x2000
        li   t1, 0x3000
        li   t2, 32
        li   t3, 0x1234
    loop:
        add  t3, t3, t2
        sw   t3, 0(t0)
        lw   t4, 0(t0)
        sw   t4, 0(t1)
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bnez t2, loop
        li   a7, 93
        ecall
    """
    machines = {}
    for backend in ("step", "auto"):
        machine = Machine()
        machine.load_assembly(source)
        machine.run(max_instructions=100_000, backend=backend)
        machines[backend] = machine
    step, translated = machines["step"], machines["auto"]
    assert translated.regs == step.regs
    for addr in range(0x2000, 0x2000 + 128, 4):
        assert translated.memory.read32(addr) == step.memory.read32(addr)
        assert (translated.memory.read32(addr + 0x1000)
                == step.memory.read32(addr + 0x1000))
    assert translated.block_promotions > 0


def test_dcache_conflict_misses_identical():
    # src and dst 4 KiB apart map to the same direct-ish dcache sets:
    # the inlined per-page dcache fast path must reproduce the exact
    # conflict-miss pattern (stats and cycles) of the real model.
    def run(backend):
        soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
        emu = Emulator(soc, with_timing=True)
        ram = soc.memory_map.get("main_ram").base
        data = ram + 0x10000
        emu.bus.load_bytes(data, bytes((i * 13 + 5) & 0xFF
                                       for i in range(256)))
        emu.load_assembly(f"""
            li   s0, 8
        outer:
            li   t0, {data}
            li   t1, {data + 0x1000}
            li   t2, 64
        loop:
            lw   t3, 0(t0)
            sw   t3, 0(t1)
            addi t0, t0, 4
            addi t1, t1, 4
            addi t2, t2, -1
            bnez t2, loop
            addi s0, s0, -1
            bnez s0, outer
            li   a7, 93
            ecall
        """, region="main_ram")
        emu.machine.run(backend=backend)
        return emu.machine

    step, translated = run("step"), run("auto")
    assert translated.block_promotions > 0
    assert translated.cycles == step.cycles
    for name in ("icache", "dcache"):
        caches = [getattr(m.timing, name) for m in (step, translated)]
        if caches[0] is None:
            continue
        hits = {cache.hits for cache in caches}
        misses = {cache.misses for cache in caches}
        assert len(hits) == 1, f"{name} hits diverged: {hits}"
        assert len(misses) == 1, f"{name} misses diverged: {misses}"
    assert translated.timing.dcache.misses > 128  # conflicts actually occur


def test_page_accesses_inline_without_alignment_checks():
    """Generated loads/stores bound their offset into the resolved 4 KiB
    page, so with alignment checks off they stay inline anywhere in a
    region, not only in its first page: the bus sees the same few word
    calls (instruction fetches, first touches) as with checks on."""
    def run(checks, backend="auto"):
        cpu = dataclasses.replace(ARTY_DEFAULT, hw_error_checking=checks)
        soc = Soc(ARTY_A7_35T, cpu)
        emu = Emulator(soc, with_timing=True)
        bus = emu.bus
        calls = {}
        for name in ("read32", "write32"):
            def counted(*args, _name=name, _method=getattr(bus, name)):
                calls[_name] += 1
                return _method(*args)
            calls[name] = 0
            setattr(bus, name, counted)
        data = soc.memory_map.get("main_ram").base + 0x10000
        emu.load_assembly(f"""
            li   t0, {data}
            li   t2, 2000
        loop:
            lw   t1, 0(t0)
            add  t1, t1, t2
            sw   t1, 0(t0)
            addi t2, t2, -1
            bnez t2, loop
            li   a7, 93
            ecall
        """, region="main_ram")
        emu.machine.run(backend=backend)
        return calls, emu.machine

    checked, _ = run(True)
    unchecked, translated = run(False)
    assert translated.block_promotions > 0
    assert unchecked == checked
    assert unchecked["read32"] < 100 and unchecked["write32"] < 100
    _, step = run(False, backend="step")
    assert translated.regs == step.regs
    assert (translated.instret, translated.cycles) == (step.instret,
                                                       step.cycles)
