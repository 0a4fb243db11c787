"""Copy-on-write snapshot/restore: differential bit-identity suite.

``Machine.snapshot()`` copies nothing up front — it protects the live
pages and records a pre-image only when a page is first written — so
its cost is O(pages later touched).  ``restore()`` must then rewind to
a state from which re-execution is *bit-identical* on both ISA paths
(``step`` and ``translated``), through the whole-system
:class:`~repro.emu.Emulator` wrapper (CSRs, peripherals, UART), with a
CFU attached in both RTL backends (``interp``, ``compiled``) — and
even after self-modifying code stores into a snapshotted code page.

The suite also pins the cache-warmth contract: restoring must not
drop translated blocks for untouched pages, and page-granular
invalidation on firmware (re)load must leave other pages' blocks alive
(the regression behind the old global cache flush on every load).

Each test picks its oracle where it runs it: ``machine.run(backend=
"step")`` for the ISA, ``RtlCfuAdapter(cfu, backend="interp")`` for the
gateware.
"""

import pytest

from repro.accel import MinMaxCfu, SimdAddCfu, SimdAddRtl
from repro.boards import ARTY_A7_35T
from repro.cfu.interface import MeteredCfu
from repro.cfu.rtl import RtlCfuAdapter
from repro.core.telemetry import Telemetry
from repro.cpu import Machine, SparseMemory
from repro.emu import Emulator
from repro.soc import Soc

#: The backend that runs each ISA path: ``auto`` translates every
#: block on its first dispatch.
BACKENDS = ("step", "auto")
TIERS = ("step", "translated")
RTL_BACKENDS = ("interp", "compiled")

#: A loop with memory traffic across two data pages.
LOOP_ASM = """
    li x5, 0x2000
    li x6, 0x3000
    li a0, 0
    li a1, 200
loop:
    add a0, a0, a1
    sw a0, 0(x5)
    sw a1, 4(x6)
    addi a1, a1, -1
    bnez a1, loop
    li a7, 93
    ecall
"""

#: Stores a fresh instruction over a placeholder *in the same code
#: page*, then executes it — the store lands on a snapshotted page.
SMC_ASM = """
    li x5, patch
    li x6, 0x00100093      # addi x1, x0, 1
    li x1, 0
    sw x6, 0(x5)
patch:
    nop                    # overwritten before execution
    add a0, x1, x1
    li a7, 93
    ecall
"""


def machine_state(machine):
    return {
        "regs": list(machine.regs),
        "pc": machine.pc,
        "instret": machine.instret,
        "cycles": machine.cycles,
        "halted": machine.halted,
        "exit_code": machine.exit_code,
    }


def page_images(memory):
    zero = bytes(4096)
    return {index: bytes(page)
            for index, page in memory._pages.items()
            if bytes(page) != zero}


def run_to_halt(machine, backend):
    machine.run(100_000, backend=backend)
    assert machine.halted
    return machine_state(machine)


# --- machine-level bit identity ---------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS, ids=TIERS)
def test_restore_replays_bit_identical(backend):
    reference = Machine()
    reference.load_assembly(LOOP_ASM)
    ref_state = run_to_halt(reference, backend)

    machine = Machine()
    machine.load_assembly(LOOP_ASM)
    snap = machine.snapshot()
    first = run_to_halt(machine, backend)
    assert first == ref_state
    first_pages = page_images(machine.memory)

    machine.restore(snap)
    second = run_to_halt(machine, backend)
    assert second == ref_state
    assert page_images(machine.memory) == first_pages


@pytest.mark.parametrize("backend", BACKENDS, ids=TIERS)
def test_self_modifying_store_to_snapshotted_page(backend):
    machine = Machine()
    machine.load_assembly(SMC_ASM)
    code_page = bytes(machine.memory._pages[0])
    snap = machine.snapshot()
    first = run_to_halt(machine, backend)
    assert first["regs"][10] == 2  # the patched instruction executed

    machine.restore(snap)
    # the patched code page reverted to its pre-snapshot image
    assert bytes(machine.memory._pages[0]) == code_page
    second = run_to_halt(machine, backend)
    assert second == first


def test_restore_cost_scales_with_pages_touched():
    machine = Machine()
    machine.load_assembly("""
        li a7, 93
        ecall
    """)
    snap = machine.snapshot()
    run_to_halt(machine, "auto")
    # nothing was stored: a register-only run restores zero pages
    assert machine.restore(snap) == 0

    for touched in (1, 3):
        snap = machine.snapshot()
        for page in range(touched):
            machine.memory.write32(0x10_0000 + page * 4096, 0xDEADBEEF)
        assert machine.restore(snap) == touched


def test_restore_rejects_foreign_snapshot():
    one, other = Machine(), Machine()
    snap = one.memory.snapshot()
    with pytest.raises(ValueError):
        other.memory.restore(snap)


def test_discard_stops_undo_recording():
    machine = Machine()
    snap = machine.snapshot()
    machine.discard_snapshot(snap)
    machine.memory.write32(0x2000, 7)
    assert snap["memory"].pages == {}


def test_translated_blocks_survive_restore():
    machine = Machine()
    machine.load_assembly(LOOP_ASM)
    snap = machine.snapshot()
    machine.run(100_000, backend="auto")
    promoted = machine.block_cache_entries
    assert promoted > 0
    machine.restore(snap)
    # data pages rewind; the untouched code page keeps its blocks
    assert machine.block_cache_entries == promoted
    promotions_before = machine.block_promotions
    machine.run(100_000, backend="auto")
    assert machine.block_promotions == promotions_before
    assert machine.halted


# --- CFU warm state ---------------------------------------------------------------

def test_cfu_model_state_round_trips():
    cfu = MinMaxCfu()
    cfu.execute(0, 0, 17, 0)          # feed running max
    saved = cfu.snapshot_state()
    cfu.execute(0, 0, 99, 0)
    cfu.restore_state(saved)
    result, _ = cfu.execute(1, 0, 0, 0)   # read register
    assert result == 17


def test_metered_cfu_state_round_trips():
    metered = MeteredCfu(SimdAddCfu())
    metered.execute(0, 0, 1, 2)
    saved = metered.snapshot_state()
    metered.execute(0, 0, 3, 4)
    metered.restore_state(saved)
    assert metered.total_invocations == 1
    assert metered.snapshot_state() == saved


@pytest.mark.parametrize("rtl_backend", RTL_BACKENDS)
def test_rtl_adapter_state_round_trips(rtl_backend):
    adapter = RtlCfuAdapter(SimdAddRtl(), backend=rtl_backend)
    adapter.execute(0, 0, 0x01010101, 0x02020202)
    saved = adapter.snapshot_state()
    time_then = adapter.sim.time
    adapter.execute(1, 0, 0x7F7F7F7F, 0x7F7F7F7F)
    adapter.restore_state(saved)
    assert adapter.sim.time == time_then
    result, _ = adapter.execute(0, 0, 0x01010101, 0x02020202)
    assert result == 0x03030303


def test_rtl_adapter_rejects_cross_backend_restore():
    compiled = RtlCfuAdapter(SimdAddRtl(), backend="compiled")
    interp = RtlCfuAdapter(SimdAddRtl(), backend="interp")
    with pytest.raises(ValueError):
        interp.restore_state(compiled.snapshot_state())
    with pytest.raises(ValueError):
        compiled.restore_state(interp.snapshot_state())


# --- whole-system (Emulator) bit identity -----------------------------------------

UART_ASM_TEMPLATE = """
    li x5, {uart}
    li a0, 72              # 'H'
    sw a0, 0(x5)
    li a0, 0
    li a1, 50
loop:
    cfu 0, 0, a0, a0, a1
    addi a1, a1, -1
    bnez a1, loop
    li a0, 33              # '!'
    sw a0, 0(x5)
    li a7, 93
    ecall
"""


def uart_asm(soc):
    uart_tx = soc.csr_bank.get("uart_rxtx").address
    return UART_ASM_TEMPLATE.format(uart=uart_tx)


def emulator_state(emulator):
    return dict(machine_state(emulator.machine),
                uart=emulator.uart_output)


@pytest.mark.parametrize("backend", BACKENDS, ids=TIERS)
def test_emulator_snapshot_all_tiers(backend):
    emulator = Emulator(Soc(ARTY_A7_35T), cfu=SimdAddCfu())
    emulator.load_assembly(uart_asm(emulator.soc), region="flash")
    snap = emulator.snapshot()
    emulator.machine.run(100_000, backend=backend)
    first = emulator_state(emulator)
    assert first["uart"] == "H!"

    emulator.restore(snap)
    assert emulator.uart_output == ""   # peripheral state rewound
    emulator.machine.run(100_000, backend=backend)
    assert emulator_state(emulator) == first


@pytest.mark.parametrize("rtl_backend", RTL_BACKENDS)
def test_emulator_snapshot_with_rtl_cfu(rtl_backend):
    emulator = Emulator(Soc(ARTY_A7_35T),
                        cfu=RtlCfuAdapter(SimdAddRtl(), backend=rtl_backend))
    emulator.load_assembly(uart_asm(emulator.soc), region="flash")
    snap = emulator.snapshot()
    emulator.run(100_000)
    first = emulator_state(emulator)

    emulator.restore(snap)
    emulator.run(100_000)
    assert emulator_state(emulator) == first

    # model and gateware agree through a snapshot/restore cycle
    model = Emulator(Soc(ARTY_A7_35T), cfu=SimdAddCfu())
    model.load_assembly(uart_asm(model.soc), region="flash")
    model.run(100_000)
    assert model.machine.regs == first["regs"]
    assert model.uart_output == first["uart"]


def test_emulator_snapshot_mid_run():
    emulator = Emulator(Soc(ARTY_A7_35T))
    emulator.load_assembly("""
        li a0, 0
        li a1, 100
loop:
    add a0, a0, a1
    addi a1, a1, -1
    bnez a1, loop
    li a7, 93
    ecall
    """, region="flash")
    with pytest.raises(RuntimeError):  # stop mid-loop on the budget
        emulator.run(50)
    snap = emulator.snapshot()
    emulator.run(100_000)
    first = emulator_state(emulator)
    assert first["halted"]

    emulator.restore(snap)
    emulator.run(100_000)
    assert emulator_state(emulator) == first


@pytest.mark.parametrize("backend", BACKENDS, ids=TIERS)
def test_emulator_page_first_written_after_snapshot_restores_to_zero(backend):
    """A main_ram page the firmware first touches after the snapshot:
    the load allocates it, so on the translated tier the stores after
    it run inline in the block.  Restore must still zero the page."""
    emulator = Emulator(Soc(ARTY_A7_35T))
    data = emulator.soc.memory_map.get("main_ram").base + 0x20000
    emulator.load_assembly(f"""
        li x5, {data}
        li a1, 64
    loop:
        lw a0, 0(x5)
        add a0, a0, a1
        sw a0, 0(x5)
        sw a1, 4(x5)
        addi x5, x5, 8
        addi a1, a1, -1
        bnez a1, loop
        li a7, 93
        ecall
    """, region="flash")
    snap = emulator.snapshot()
    emulator.machine.run(100_000, backend=backend)
    page = emulator.bus.backing("main_ram").data[data >> 12]
    assert any(page)
    assert emulator.restore(snap) == 1
    assert not any(page)
    emulator.machine.run(100_000, backend=backend)
    assert any(page)


# --- cache warmth across loads (the flush regression) -----------------------------

def test_reload_keeps_blocks_on_untouched_pages():
    """Reloading firmware into one region must not flush translated
    blocks for other pages (the old global cache flush)."""
    emulator = Emulator(Soc(ARTY_A7_35T))
    machine = emulator.machine
    emulator.load_assembly(LOOP_ASM.replace("0x2000", "0x40000100")
                           .replace("0x3000", "0x40001100"),
                           region="flash")
    emulator.run(100_000)
    blocks = machine.block_cache_entries
    invalidations = machine.block_invalidation_count
    assert blocks > 0

    # a load into a different region touches only that region's pages
    emulator.load_assembly("nop\nnop", region="main_ram")
    assert machine.block_cache_entries == blocks
    assert machine.block_invalidation_count == invalidations

    # a load over the same pages does invalidate them
    emulator.load_assembly("nop", region="flash")
    assert machine.block_cache_entries < blocks


# --- metrics gauges across transitions (satellite: observability) -----------------

def test_export_metrics_tracks_snapshot_cycle():
    machine = Machine()
    machine.load_assembly(LOOP_ASM)
    snap = machine.snapshot()
    run_to_halt(machine, "auto")
    machine.restore(snap)
    machine.flush_block_cache()

    registry = Telemetry()
    machine.export_metrics(registry)
    values = {series.name: series.value for series in registry.series()}
    assert values["sim_snapshots"] == 1
    assert values["sim_restores"] == 1
    assert values["sim_pages_restored"] >= 1
    assert "sim_block_cache_loads" in values

    # counters are cumulative: a second cycle moves them monotonically
    snap = machine.snapshot()
    machine.restore(snap)
    registry2 = Telemetry()
    machine.export_metrics(registry2)
    values2 = {series.name: series.value for series in registry2.series()}
    assert values2["sim_snapshots"] == 2
    assert values2["sim_restores"] == 2
    assert values2["sim_pages_restored"] == values["sim_pages_restored"]
