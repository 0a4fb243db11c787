"""Memory technologies and the address map.

Latency numbers are in CPU clock cycles for a 32-bit word and follow the
platforms in the paper:

- On-chip SRAM / block RAM: single cycle.
- External DDR3 (Arty A7): tens of cycles to open a row, then burst.
- SPI flash executed in place (Fomu): a serial interface moves 1 bit
  per cycle plus command/address overhead; continuous-read XIP bursts
  amortize the command phase, giving ~36 cycles per random word.
  Quad SPI moves 4 bits per cycle — the 3-4x ROM bandwidth jump behind
  the paper's *QuadSPI* optimization step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryTech:
    """Cycle costs of one memory technology."""

    name: str
    first_word_latency: int   # cycles for a random 32-bit read
    per_word_latency: int     # cycles per additional sequential word
    write_latency: int = 1

    def line_fill_cycles(self, line_bytes):
        words = max(1, line_bytes // 4)
        return self.first_word_latency + (words - 1) * self.per_word_latency


# One word over single-bit SPI: 8 command bits + 24 address bits + 32 data
# bits at one bit per cycle, plus controller overhead.
SPI_FLASH = MemoryTech("spi-flash", first_word_latency=48, per_word_latency=20,
                       write_latency=72)
# Quad SPI moves 4 bits per cycle and supports continuous-read mode.
QSPI_FLASH = MemoryTech("qspi-flash", first_word_latency=13, per_word_latency=5,
                        write_latency=20)
ON_CHIP_SRAM = MemoryTech("sram", first_word_latency=1, per_word_latency=1)
BLOCK_RAM = MemoryTech("bram", first_word_latency=1, per_word_latency=1)
# DDR3 through the LiteX memory controller: row activation plus burst.
DDR3 = MemoryTech("ddr3", first_word_latency=24, per_word_latency=1,
                  write_latency=8)


@dataclass
class MemoryRegion:
    """A named address range backed by one memory technology."""

    name: str
    base: int
    size: int
    tech: MemoryTech
    cacheable: bool = True

    @property
    def end(self):
        return self.base + self.size

    def contains(self, addr):
        return self.base <= addr < self.end


class MemoryMap:
    """The SoC address map: an ordered set of non-overlapping regions."""

    def __init__(self, regions=()):
        self.regions = []
        for region in regions:
            self.add(region)

    def add(self, region):
        for existing in self.regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {region.name} overlaps {existing.name}"
                )
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)
        return region

    def find(self, addr):
        for region in self.regions:
            if region.contains(addr):
                return region
        raise KeyError(f"address 0x{addr:08x} not mapped")

    def get(self, name):
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def __iter__(self):
        return iter(self.regions)

    def __repr__(self):
        rows = ", ".join(
            f"{r.name}@0x{r.base:08x}+0x{r.size:x}:{r.tech.name}"
            for r in self.regions
        )
        return f"MemoryMap({rows})"
