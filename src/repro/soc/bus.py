"""The SoC interconnect: address decode over RAM regions and CSRs.

``SocBus`` implements the same byte/halfword/word protocol as
:class:`~repro.cpu.machine.SparseMemory`, so an ISA
:class:`~repro.cpu.machine.Machine` can execute directly against a SoC:
loads and stores hit real RAM backings or peripheral registers.
"""

from __future__ import annotations

from ..cpu.machine import _PAGE_BITS, _PAGE_SIZE, CowPagesMixin
from ..rtl.synth import ResourceReport

_PAGE_MASK = _PAGE_SIZE - 1


class BusError(RuntimeError):
    pass


class RamBacking:
    """A RAM/ROM region stored as 4 KiB pages.

    Pages are keyed by *address* page ``addr >> 12`` (the index the bus
    page caches, the translated-block resolver and copy-on-write
    snapshots use), and each is allocated, zeroed, on its first access.
    A region therefore costs resident memory only for the pages a
    program touches: a short program in the 256 MiB ``main_ram`` holds
    a handful of pages, and an idle region holds none, which is what
    bounds how many warm sessions one host can hold.

    ``data`` is the ``{page index: bytearray}`` dict, created on the
    region's first access; ``materialized`` says whether that happened
    without causing it.  Page bytes outside the region (a region that is
    not page aligned) stay zero.  ``on_allocate(index)`` runs just
    before a page is allocated, while it is still absent.
    """

    __slots__ = ("region", "writable", "_data", "on_allocate")

    def __init__(self, region, writable, on_allocate):
        self.region = region
        self.writable = writable
        self._data = None
        self.on_allocate = on_allocate

    @property
    def materialized(self):
        return self._data is not None

    @property
    def data(self):
        data = self._data
        if data is None:
            data = self._data = {}
        return data

    def page(self, index):
        """Address page ``index``'s bytes, allocated on first access."""
        pages = self.data
        page = pages.get(index)
        if page is None:
            self.on_allocate(index)
            page = pages[index] = bytearray(_PAGE_SIZE)
        return page

    def read(self, addr, nbytes):
        """``nbytes`` bytes from ``addr`` on, across pages; the caller
        keeps the range inside the region."""
        out = bytearray()
        end = addr + nbytes
        while addr < end:
            start = addr & _PAGE_MASK
            chunk = min(end - addr, _PAGE_SIZE - start)
            out += self.page(addr >> _PAGE_BITS)[start:start + chunk]
            addr += chunk
        return out

    def write(self, addr, blob):
        """Store ``blob`` from ``addr`` on, across pages; the caller
        keeps the range inside the region."""
        view = memoryview(blob)
        done = 0
        while done < len(view):
            start = addr & _PAGE_MASK
            chunk = min(len(view) - done, _PAGE_SIZE - start)
            page = self.page(addr >> _PAGE_BITS)
            page[start:start + chunk] = view[done:done + chunk]
            addr += chunk
            done += chunk


class SocBus(CowPagesMixin):
    """Decodes addresses to RAM backings or the CSR bank.

    Address decode is cached per 4 KiB page: a page that lies entirely
    inside one RAM region resolves to ``(page bytes, page base,
    writable, region name)`` through a dict lookup instead of a linear
    region scan plus CSR-range check on every access.  Pages
    overlapping the CSR window or a region boundary are never cached
    and always take the full decode path, so peripheral side effects
    and bus errors behave exactly as before.  A word access counts as
    one 4-byte transaction whenever it lies inside one region, even
    when it straddles two of the region's pages.

    Copy-on-write snapshots (:class:`~repro.cpu.machine.CowPagesMixin`)
    index pages in *address* space, the same ``addr >> 12`` that keys
    the backings' pages, so a page image is the page of each backing
    overlapping it (region-boundary pages snapshot correctly).  A
    snapshot protects only allocated pages; a page allocated under a
    live snapshot records its zero pre-image first, as
    :class:`~repro.cpu.machine.SparseMemory` does.
    CSR/peripheral state is not memory and is captured at the
    :class:`~repro.emu.renode.Emulator` level.
    """

    def __init__(self, memory_map, csr_bank=None, rom_regions=()):
        self.memory_map = memory_map
        self.csr_bank = csr_bank
        self.backings = {
            region.name: RamBacking(region,
                                    writable=region.name not in rom_regions,
                                    on_allocate=self._cow_allocate)
            for region in memory_map
        }
        self._init_cow()
        self._page_cache = {}
        # Parallel page cache for generated code (repro.cpu.translate):
        # page -> (page bytes, page base, writable).  Kept in lockstep
        # with _page_cache by _resolve_page; raw tuples so hot blocks
        # index the page without attribute lookups.
        self._page_data = {}
        # Per-region traffic accounting: (region, "read"|"write") ->
        # [transactions, bytes].  None (default) keeps the hot paths to
        # a single is-None branch; enable_traffic_metrics() turns it on.
        self._traffic = None
        if csr_bank is None:
            self._csr_window = None
        else:
            # Registers may still be added to the bank after the bus is
            # built, so treat the whole region holding the bank (or a
            # generous window past its base) as uncacheable.
            try:
                region = memory_map.find(csr_bank.base)
                self._csr_window = (region.base, region.end)
            except KeyError:
                self._csr_window = (csr_bank.base, csr_bank.base + (1 << 20))

    def backing(self, name):
        return self.backings[name]

    # --- copy-on-write hooks (CowPagesMixin) -----------------------------------------
    def _cow_all_pages(self):
        pages = set()
        for backing in self.backings.values():
            if backing.materialized:
                pages.update(backing.data)
        return pages

    def _cow_allocate(self, index):
        """Every backing's allocation hook: a page allocated under a
        live snapshot was zero when the snapshot was taken, so record
        that image before the page exists."""
        if self._snapshots:
            self._cow_record(index)

    def _cow_page_image(self, index):
        lo = index << _PAGE_BITS
        hi = lo + _PAGE_SIZE
        pieces = []
        for name, backing in sorted(self.backings.items()):
            region = backing.region
            if region.base < hi and lo < region.end:
                # A page never touched has a pre-image of zeros: record
                # None and allocate nothing.
                page = (backing.data.get(index) if backing.materialized
                        else None)
                pieces.append((name, None if page is None else bytes(page)))
        return pieces or None

    def _cow_restore_page(self, index, saved):
        if saved is None:
            return  # no region overlaps the page
        for name, blob in saved:
            backing = self.backings[name]
            # In place: cached page tuples keep pointing at live pages.
            if blob is not None:
                backing.page(index)[:] = blob
            else:
                page = backing.data.get(index)
                if page is not None:
                    page[:] = bytes(_PAGE_SIZE)

    # --- traffic metrics ---------------------------------------------------------
    def enable_traffic_metrics(self):
        """Start counting per-region read/write transactions and bytes."""
        if self._traffic is None:
            self._traffic = {}
        return self

    def _count(self, region_name, direction, nbytes):
        traffic = self._traffic
        cell = traffic.get((region_name, direction))
        if cell is None:
            cell = traffic[(region_name, direction)] = [0, 0]
        cell[0] += 1
        cell[1] += nbytes

    def traffic(self):
        """``{(region, direction): (transactions, bytes)}`` so far."""
        if self._traffic is None:
            return {}
        return {key: tuple(value) for key, value in self._traffic.items()}

    def export_metrics(self, telemetry, **labels):
        """Feed the traffic counters into a
        :class:`~repro.core.telemetry.Telemetry`."""
        for (region, direction), (count, nbytes) in sorted(self.traffic().items()):
            telemetry.counter("bus_transactions", region=region,
                              direction=direction, **labels).add(count)
            telemetry.counter("bus_bytes", region=region,
                              direction=direction, **labels).add(nbytes)
        return telemetry

    def load_bytes(self, addr, blob):
        """Write the bytes-like ``blob`` at ``addr`` as a program loader
        does: read-only regions accept it, but it must lie inside one
        region."""
        backing = self._locate(addr)
        region = backing.region
        if addr + len(blob) > region.end:
            raise BusError(
                f"{len(blob)}-byte load at 0x{addr:08x} runs past the end "
                f"of {region.name} (0x{region.end:08x})")
        if blob and self._cow_protected:
            for page in range(addr >> _PAGE_BITS,
                              ((addr + len(blob) - 1) >> _PAGE_BITS) + 1):
                if page in self._cow_protected:
                    self._cow_record(page)
        backing.write(addr, blob)

    def _locate(self, addr):
        return self.backings[self.memory_map.find(addr).name]

    def _resolve_page(self, addr):
        """Cache and return ``(page bytes, page base, writable, region
        name)`` for addr's page, or None when the page must use the
        slow path."""
        page = addr >> _PAGE_BITS
        lo = page << _PAGE_BITS
        hi = lo + _PAGE_SIZE
        if self._csr_window is not None:
            csr_lo, csr_hi = self._csr_window
            if lo < csr_hi and csr_lo < hi:
                return None
        region = self.memory_map.find(addr)
        if region.base <= lo and hi <= region.end:
            backing = self.backings[region.name]
            data = backing.page(page)
            self._page_data[page] = (data, lo, backing.writable)
            entry = self._page_cache[page] = (data, lo, backing.writable,
                                              region.name)
            return entry
        return None

    # --- byte/halfword/word protocol ------------------------------------------------
    def read8(self, addr):
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            data, base, _writable, name = entry
            if self._traffic is not None:
                self._count(name, "read", 1)
            return data[addr - base]
        if self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "read", 1)
            word = self.csr_bank.read32(addr & ~3)
            return (word >> (8 * (addr & 3))) & 0xFF
        backing = self._locate(addr)
        if self._traffic is not None:
            self._count(backing.region.name, "read", 1)
        return backing.page(addr >> _PAGE_BITS)[addr & _PAGE_MASK]

    def write8(self, addr, value):
        if self._cow_protected and (addr >> _PAGE_BITS) in self._cow_protected:
            self._cow_record(addr >> _PAGE_BITS)
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            data, base, writable, name = entry
            if not writable:
                raise BusError(f"write to read-only region at 0x{addr:08x}")
            if self._traffic is not None:
                self._count(name, "write", 1)
            data[addr - base] = value & 0xFF
            return
        if self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "write", 1)
            self.csr_bank.write32(addr & ~3, value & 0xFF)
            return
        backing = self._locate(addr)
        if not backing.writable:
            raise BusError(f"write to read-only region at 0x{addr:08x}")
        if self._traffic is not None:
            self._count(backing.region.name, "write", 1)
        backing.page(addr >> _PAGE_BITS)[addr & _PAGE_MASK] = value & 0xFF

    def read16(self, addr):
        return self.read8(addr) | self.read8(addr + 1) << 8

    def write16(self, addr, value):
        self.write8(addr, value)
        self.write8(addr + 1, value >> 8)

    def read32(self, addr):
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            data, base, _writable, name = entry
            offset = addr - base
            if offset <= _PAGE_SIZE - 4:
                if self._traffic is not None:
                    self._count(name, "read", 4)
                return int.from_bytes(data[offset:offset + 4], "little")
        elif self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "read", 4)
            return self.csr_bank.read32(addr & ~3)
        # A word inside one region is one transaction, even across two
        # of its pages; one that leaves the region goes byte by byte.
        backing = self._locate(addr)
        if addr + 4 <= backing.region.end:
            if self._traffic is not None:
                self._count(backing.region.name, "read", 4)
            return int.from_bytes(backing.read(addr, 4), "little")
        return self.read16(addr) | self.read16(addr + 2) << 16

    def write32(self, addr, value):
        if self._cow_protected:
            # A misaligned word store can touch two address pages:
            # record both.
            page = addr >> _PAGE_BITS
            if page in self._cow_protected:
                self._cow_record(page)
            last = (addr + 3) >> _PAGE_BITS
            if last != page and last in self._cow_protected:
                self._cow_record(last)
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            data, base, writable, name = entry
            if not writable:
                raise BusError(f"write to read-only region at 0x{addr:08x}")
            offset = addr - base
            if offset <= _PAGE_SIZE - 4:
                if self._traffic is not None:
                    self._count(name, "write", 4)
                data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
                return
        elif self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "write", 4)
            self.csr_bank.write32(addr & ~3, value & 0xFFFFFFFF)
            return
        backing = self._locate(addr)
        if not backing.writable:
            raise BusError(f"write to read-only region at 0x{addr:08x}")
        if addr + 4 <= backing.region.end:
            if self._traffic is not None:
                self._count(backing.region.name, "write", 4)
            backing.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))
        else:
            self.write16(addr, value)
            self.write16(addr + 2, value >> 16)


def interconnect_resources(num_slaves):
    """Wishbone decoder/arbiter cost grows with the slave count."""
    return ResourceReport(luts=120 + 35 * num_slaves, ffs=60 + 10 * num_slaves)
