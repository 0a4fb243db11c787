"""SoC tests: memory map, bus, CSRs, peripherals, linker."""

import pytest

from repro.boards import ARTY_A7_35T, FOMU
from repro.cpu.vexriscv import ARTY_DEFAULT, FOMU_MINIMAL
from repro.emu import Emulator
from repro.models import load
from repro.perf.memories import QSPI_FLASH, SPI_FLASH
from repro.soc import LinkError, Soc, image_sections, link
from repro.soc.bus import BusError


@pytest.fixture
def fomu_soc():
    return Soc(FOMU, FOMU_MINIMAL)


@pytest.fixture
def arty_soc():
    return Soc(ARTY_A7_35T, ARTY_DEFAULT)


def test_fomu_memory_map(fomu_soc):
    names = {region.name for region in fomu_soc.memory_map}
    assert names == {"sram", "flash", "csr"}
    assert fomu_soc.memory_map.get("sram").size == 128 * 1024
    assert fomu_soc.memory_map.get("flash").size == 2 * 1024 * 1024


def test_arty_memory_map(arty_soc):
    assert arty_soc.memory_map.get("main_ram").size == 256 * 1024 * 1024
    assert arty_soc.memory_map.get("main_ram").tech.name == "ddr3"


def test_quad_spi_upgrade(fomu_soc):
    assert fomu_soc.memory_map.get("flash").tech == SPI_FLASH
    fomu_soc.upgrade_to_quad_spi()
    assert fomu_soc.memory_map.get("flash").tech == QSPI_FLASH


def test_bus_read_write(fomu_soc):
    bus = fomu_soc.bus()
    base = fomu_soc.memory_map.get("sram").base
    bus.write32(base + 16, 0xCAFEBABE)
    assert bus.read32(base + 16) == 0xCAFEBABE
    assert bus.read8(base + 16) == 0xBE
    assert bus.read16(base + 18) == 0xCAFE
    bus.write8(base + 16, 0x11)
    assert bus.read32(base + 16) == 0xCAFEBA11


def test_ram_backings_materialize_lazily(arty_soc):
    """An untouched region costs no resident memory and a touched one
    only the pages a program touched (what bounds warm sessions per
    host); snapshots of untouched pages record zero pre-images without
    allocating."""
    bus = arty_soc.bus()
    ram = bus.backing("main_ram")
    assert not ram.materialized

    snap = bus.snapshot()                # nothing allocated: no alloc
    assert not ram.materialized

    base = arty_soc.memory_map.get("main_ram").base
    bus.write32(base + 8, 0x12345678)    # first touch allocates one page
    assert ram.materialized
    assert list(ram.data) == [base >> 12]
    assert bus.read32(base + 8) == 0x12345678

    bus.restore(snap)                    # pre-image of a lazy page: zeros
    assert bus.read32(base + 8) == 0
    assert list(ram.data) == [base >> 12]

    # A small firmware: main_ram holds the pages it touched and no
    # more, and restoring a snapshot taken before it allocates none.
    emulator = Emulator(arty_soc)
    ram = emulator.bus.backing("main_ram")
    data = base + 0x10000
    snap = emulator.snapshot()
    emulator.load_assembly(f"""
        li   t0, {data}
        li   t1, 7
        sw   t1, 0(t0)
        lw   a0, 0(t0)
        li   a7, 93
        ecall
    """, region="main_ram")
    emulator.run()
    assert emulator.machine.regs[10] == 7
    touched = [base >> 12, data >> 12]   # code page, data page
    assert sorted(ram.data) == touched
    assert emulator.restore(snap) == 2   # both zeroed in place
    assert sorted(ram.data) == touched
    assert not any(any(page) for page in ram.data.values())
    assert not emulator.bus.backing("flash").materialized


def test_soc_snapshot_protects_only_allocated_pages(arty_soc):
    """A snapshot costs O(pages allocated), not O(pages mapped): the
    Arty map spans ~70k pages, of which this bus has allocated two."""
    bus = arty_soc.bus()
    base = arty_soc.memory_map.get("main_ram").base
    bus.write32(base, 1)
    bus.read32(base + 0x3000)            # a read allocates a page too
    snap = bus.snapshot()
    assert bus._cow_protected == {base >> 12, (base + 0x3000) >> 12}
    bus.discard_snapshot(snap)
    assert not bus._cow_protected


def test_page_first_written_after_snapshot_restores_to_zero(arty_soc):
    """Bus stores to pages allocated under live snapshots: each
    snapshot rewinds them to what it saw, zeros included."""
    bus = arty_soc.bus()
    base = arty_soc.memory_map.get("main_ram").base
    first, second = base + 0x5000, base + 0x9000
    outer = bus.snapshot()
    bus.write32(first, 0xDEADBEEF)       # allocated under `outer`
    inner = bus.snapshot()
    bus.write32(first, 0x0BADF00D)
    bus.write32(second + 4094, 0xFFFFFFFF)  # straddles two fresh pages
    assert bus.restore(inner) == [first >> 12, second >> 12,
                                  (second >> 12) + 1]
    assert bus.read32(first) == 0xDEADBEEF
    assert bus.read32(second + 4094) == 0
    bus.restore(outer)
    assert bus.read32(first) == 0


def test_load_past_region_end_is_rejected(fomu_soc):
    bus = fomu_soc.bus()
    sram = fomu_soc.memory_map.get("sram")
    with pytest.raises(BusError, match="past the end of sram"):
        bus.load_bytes(sram.end - 2, b"\x01\x02\x03\x04")
    assert bus.read16(sram.end - 2) == 0  # nothing was written
    with pytest.raises(KeyError):        # and the region did not grow
        bus.read32(sram.end - 2)


def test_flash_is_read_only_on_bus(fomu_soc):
    bus = fomu_soc.bus()
    flash_base = fomu_soc.memory_map.get("flash").base
    bus.load_bytes(flash_base, b"\x01\x02\x03\x04")  # loader bypasses
    assert bus.read32(flash_base) == 0x04030201
    with pytest.raises(BusError):
        bus.write32(flash_base, 0)


def test_unmapped_address_raises(fomu_soc):
    bus = fomu_soc.bus()
    with pytest.raises(KeyError):
        bus.read32(0x9000_0000)


def test_csr_dispatch_uart(fomu_soc):
    bus = fomu_soc.bus()
    uart = fomu_soc.peripheral("uart")
    addr = fomu_soc.csr_bank.get("uart_rxtx").address
    for byte in b"ok":
        bus.write32(addr, byte)
    assert uart.text() == "ok"
    uart.rx_queue.extend(b"x")
    assert bus.read32(addr) == ord("x")


def test_csr_scratch_register(arty_soc):
    bus = arty_soc.bus()
    addr = arty_soc.csr_bank.get("ctrl_scratch").address
    assert bus.read32(addr) == 0x12345678
    bus.write32(addr, 0xAAAA5555)
    assert bus.read32(addr) == 0xAAAA5555


def test_read_only_csr(arty_soc):
    bus = arty_soc.bus()
    addr = arty_soc.csr_bank.get("ctrl_bus_errors").address
    bus.write32(addr, 99)
    assert bus.read32(addr) == 0


def test_remove_peripheral_frees_resources(fomu_soc):
    before = fomu_soc.resources().logic_cells
    fomu_soc.remove_peripheral("timer")
    after = fomu_soc.resources().logic_cells
    assert after < before
    with pytest.raises(KeyError):
        fomu_soc.remove_peripheral("timer")


def test_required_peripherals_not_removable(fomu_soc):
    with pytest.raises(ValueError):
        fomu_soc.remove_peripheral("uart")
    with pytest.raises(ValueError):
        fomu_soc.remove_peripheral("usb_bridge")


def test_fomu_has_usb_bridge(fomu_soc, arty_soc):
    assert any(p.name == "usb_bridge" for p in fomu_soc.peripherals)
    assert not any(p.name == "usb_bridge" for p in arty_soc.peripherals)
    assert any(p.name == "sdram" for p in arty_soc.peripherals)


def test_default_placement(fomu_soc, arty_soc):
    assert fomu_soc.default_placement()["text"] == "flash"
    assert fomu_soc.default_placement()["arena"] == "sram"
    assert arty_soc.default_placement()["text"] == "main_ram"


def test_system_config_placement_override(fomu_soc):
    system = fomu_soc.system_config(placement={"model_weights": "sram"})
    assert system.region("model_weights").name == "sram"
    assert system.region("text").name == "flash"


# --- linker --------------------------------------------------------------------------

def test_image_sections_sized_from_model():
    kws = load("dscnn_kws")
    sections = image_sections(kws)
    assert sections["model_weights"] == kws.weights_bytes()
    assert sections["arena"] > 0
    assert sections["text"] > 100 * 1024


def test_whole_image_does_not_fit_fomu_sram(fomu_soc):
    """Section III-B: 'the compiled binary image would not fit in 128kB'."""
    kws = load("dscnn_kws")
    with pytest.raises(LinkError):
        link(fomu_soc, kws, placement={
            "text": "sram", "kernel_text": "sram", "model_weights": "sram",
            "rodata_misc": "sram",
        })


def test_flash_placement_fits(fomu_soc):
    kws = load("dscnn_kws")
    layout = link(fomu_soc, kws)
    assert layout.placement["text"] == "flash"
    assert layout.region_usage["sram"] <= 128 * 1024


def test_sram_ops_and_model_step_fits(fomu_soc):
    """The 'SRAM Ops and Model' move: hot code + weights fit beside the
    arena in 128 kB."""
    kws = load("dscnn_kws")
    layout = link(fomu_soc, kws, placement={
        "kernel_text": "sram", "model_weights": "sram",
    })
    assert layout.region_usage["sram"] <= 128 * 1024


def test_mnv2_needs_external_ram(fomu_soc, arty_soc):
    mnv2 = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    layout = link(arty_soc, mnv2)  # fits DDR3 easily
    assert layout.region_usage["main_ram"] > 1024 * 1024
    with pytest.raises(LinkError):
        link(fomu_soc, mnv2)  # 3.5 MB of weights cannot fit Fomu flash+sram


def test_layout_summary_renders(fomu_soc):
    layout = link(fomu_soc, load("dscnn_kws"))
    text = layout.summary()
    assert "model_weights" in text and "flash" in text
