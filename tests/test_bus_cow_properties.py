"""Property test: the bus's copy-on-write snapshot stack against a model.

Random interleavings of 8-, 16- and 32-bit stores (page-straddling ones
included), loads, ``load_bytes``, ``snapshot``, ``restore`` of any live
snapshot and ``discard_snapshot`` run on a bare ``Machine().memory`` (a
flat bus) and on an Arty SoC bus.  After every step the memory must
equal a plain byte-array model, read from the backing pages without
allocating any (an absent page reads as zeros).

The translated blocks' page cache rides along: the machine registers it
with ``register_page_cache``, and after every step it is filled through
the translator's own resolver.  It must never hold a writable entry for
a page a live snapshot protects, nor a page other than the live one.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.boards import ARTY_A7_35T
from repro.cpu import Machine
from repro.cpu.translate import _build_resolver
from repro.soc import Soc

PAGE = 4096
PAGES = 4
BASE = 0x4000_0000          # main_ram on Arty; any address on the flat bus
WINDOW = PAGES * PAGE

TARGETS = {
    "flat": Machine,
    "arty": lambda: Machine(memory=Soc(ARTY_A7_35T).bus()),
}

#: Offsets near every inner page edge, so stores straddle pages often.
EDGES = [page * PAGE - back for page in range(1, PAGES) for back in (1, 2, 3)]
offsets = st.one_of(st.integers(0, WINDOW - 4), st.sampled_from(EDGES))

snapshots = st.tuples(st.just("snapshot"))
restores = st.tuples(st.just("restore"), st.integers(0, 15))

#: Snapshots and restores are listed twice, which doubles their weight:
#: a defect in the stack needs several of each in one run.
operations = st.lists(st.one_of(
    st.tuples(st.just("store"), st.sampled_from((1, 2, 4)), offsets,
              st.integers(0, 0xFFFFFFFF)),
    st.tuples(st.just("load"), st.sampled_from((1, 2, 4)), offsets),
    st.tuples(st.just("load_bytes"), st.integers(0, WINDOW - 1),
              st.binary(min_size=1, max_size=PAGE + 16)),
    snapshots, restores, snapshots, restores,
    st.tuples(st.just("discard"), st.integers(0, 15)),
), max_size=40)

#: A page first written under one snapshot, rewound to its absence by a
#: restore, re-created by a restore of a later snapshot while a third is
#: live, then written and rewound by that third: it must read zeros.
RECREATED_PAGE = [
    ("snapshot",), ("store", 1, 0, 1), ("snapshot",), ("restore", 0),
    ("snapshot",), ("restore", 1), ("store", 1, 0, 2), ("restore", 2),
]


def read_window(memory):
    """The window's bytes, read from the backing pages without
    allocating one; every allocated page outside it must be zeros."""
    image = bytearray(WINDOW)
    first = BASE // PAGE
    for backing in memory.backings.values():
        if not backing.materialized:
            continue
        for index, page in backing.data.items():
            if first <= index < first + PAGES:
                offset = (index - first) * PAGE
                image[offset:offset + PAGE] = page
            else:
                assert not any(page), f"page {index:#x} outside the window"
    return image


def check_page_cache(machine, resolve):
    """Fill the machine's page cache the way generated blocks do and
    check what it may assert."""
    memory = machine.memory
    cache = machine._data_page_cache
    first = BASE // PAGE
    for index in range(first, first + PAGES):
        if index not in cache:
            resolve(index)
    for index, (data, _base, writable, *_costs) in cache.items():
        assert not (writable and index in memory._cow_protected), (
            f"page {index:#x} cached writable under a live snapshot")
        region = memory._page_cache[index][3]
        assert data is memory.backing(region).data[index], (
            f"page {index:#x} cached as a page the backing no longer holds")


def run(target, ops):
    machine = TARGETS[target]()
    memory = machine.memory
    resolve = _build_resolver(machine)
    model = bytearray(WINDOW)
    live = []                                   # (snapshot, model image)
    for op in ops:
        kind = op[0]
        if kind == "store":
            _, width, offset, value = op
            write = {1: memory.write8, 2: memory.write16,
                     4: memory.write32}[width]
            write(BASE + offset, value)
            model[offset:offset + width] = (
                value & ((1 << 8 * width) - 1)).to_bytes(width, "little")
        elif kind == "load":
            _, width, offset = op
            read = {1: memory.read8, 2: memory.read16,
                    4: memory.read32}[width]
            assert read(BASE + offset) == int.from_bytes(
                model[offset:offset + width], "little")
        elif kind == "load_bytes":
            _, offset, blob = op
            blob = blob[:WINDOW - offset]
            memory.load_bytes(BASE + offset, blob)
            model[offset:offset + len(blob)] = blob
        elif kind == "snapshot":
            live.append((memory.snapshot(), bytes(model)))
        elif live:
            snap, image = live[op[1] % len(live)]
            if kind == "restore":
                memory.restore(snap)
                model[:] = image
            else:
                memory.discard_snapshot(snap)
                live.remove((snap, image))
        assert read_window(memory) == model, f"after {op!r}"
        check_page_cache(machine, resolve)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
@example(ops=RECREATED_PAGE)
def test_snapshots_match_the_model(target, ops):
    run(target, ops)
