"""CodeCache unit tests: content addressing, layering, crash safety —
plus the two consumers (tier-2 translation, compiled RTL) proving the
"compile once per firmware/netlist, ever" contract across processes.
"""

import json
import os

import pytest

from repro.core import codecache
from repro.core.codecache import MISS, CodeCache, canonical_payload, code_key


# --- keys -------------------------------------------------------------------------

def test_code_key_is_order_insensitive():
    assert (code_key("k", {"a": 1, "b": [2, 3]})
            == code_key("k", {"b": [2, 3], "a": 1}))


def test_code_key_separates_kind_and_payload():
    assert code_key("tier2-block", {"x": 1}) != code_key("rtl", {"x": 1})
    assert code_key("k", {"x": 1}) != code_key("k", {"x": 2})


def test_canonical_payload_stringifies_unjsonable():
    # repr fallback: config objects land as their repr, deterministically
    class Cfg:
        def __repr__(self):
            return "Cfg(depth=4)"

    assert "Cfg(depth=4)" in canonical_payload({"cfg": Cfg()})


# --- the two layers ---------------------------------------------------------------

def test_memory_only_cache_deduplicates():
    cache = CodeCache()
    key = code_key("k", {"n": 1})
    assert cache.get(key) is MISS
    cache.put(key, {"source": "x = 1"})
    assert cache.get(key) == {"source": "x = 1"}
    assert cache.stats.as_dict() == {"memory_hits": 1, "disk_hits": 0,
                                     "misses": 1, "stores": 1}


def test_disk_cache_round_trips_across_instances(tmp_path):
    key = code_key("k", {"n": 2})
    writer = CodeCache(str(tmp_path))
    writer.put(key, {"source": "y = 2", "need": ["_md"]})

    reader = CodeCache(str(tmp_path))      # simulates another process
    assert reader.get(key) == {"source": "y = 2", "need": ["_md"]}
    assert reader.stats.disk_hits == 1
    assert reader.get(key) == {"source": "y = 2", "need": ["_md"]}
    assert reader.stats.memory_hits == 1   # second read never touches disk


def test_disk_layout_is_sharded(tmp_path):
    cache = CodeCache(str(tmp_path))
    key = code_key("k", {"n": 3})
    cache.put(key, {"v": 1})
    assert os.path.exists(tmp_path / key[:2] / f"{key}.json")


def test_corrupt_and_foreign_schema_files_read_as_miss(tmp_path):
    cache = CodeCache(str(tmp_path))
    key = code_key("k", {"n": 4})
    cache.put(key, {"v": 1})
    path = cache._path(key)

    with open(path, "w") as handle:
        handle.write("{ torn")
    assert CodeCache(str(tmp_path)).get(key) is MISS

    with open(path, "w") as handle:
        json.dump({"schema": 999, "key": key, "value": {"v": 1}}, handle)
    assert CodeCache(str(tmp_path)).get(key) is MISS


def test_unwritable_cache_dir_degrades_to_memory(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    cache = CodeCache(str(blocked / "sub"))
    key = code_key("k", {"n": 5})
    cache.put(key, {"v": 1})               # must not raise
    assert cache.get(key) == {"v": 1}


def test_configure_swaps_the_process_default(tmp_path):
    original = codecache._default_cache
    try:
        cache = codecache.configure(str(tmp_path))
        assert codecache.default_cache() is cache
        assert cache.cache_dir == str(tmp_path)
        memory_only = codecache.configure(None)
        assert memory_only.cache_dir is None
    finally:
        codecache._default_cache = original


# --- consumer: tier-2 block translation -------------------------------------------

HOT_LOOP = """
    li a0, 0
    li a1, 300
loop:
    add a0, a0, a1
    addi a1, a1, -1
    bnez a1, loop
    li a7, 93
    ecall
"""


def _run_hot(cache):
    from repro.cpu import Machine

    machine = Machine()
    machine.compile_cache = cache
    machine.hot_threshold = 1
    machine.load_assembly(HOT_LOOP)
    machine.run(100_000, backend="translated")
    return machine


def test_tier2_blocks_bind_from_disk(tmp_path):
    cold = _run_hot(CodeCache(str(tmp_path)))
    assert cold.halted and cold.block_cache_loads == 0

    warm_cache = CodeCache(str(tmp_path))  # fresh "process"
    warm = _run_hot(warm_cache)
    assert warm.halted
    assert warm.block_cache_loads > 0
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.stores == 0
    assert (warm.regs, warm.cycles, warm.instret) == \
        (cold.regs, cold.cycles, cold.instret)


def test_tier2_key_depends_on_timing_config(tmp_path):
    from repro.boards import ARTY_A7_35T
    from repro.emu import Emulator
    from repro.soc import Soc

    cache = CodeCache(str(tmp_path))
    for with_timing in (True, False):
        emulator = Emulator(Soc(ARTY_A7_35T), with_timing=with_timing,
                            sim_backend="translated",
                            compile_cache=cache)
        emulator.machine.hot_threshold = 1
        emulator.load_assembly(HOT_LOOP, region="flash")
        emulator.run(100_000)
    # timed and untimed variants are distinct entries, never shared
    assert cache.stats.stores >= 2
    assert cache.stats.disk_hits == 0


# --- consumer: compiled RTL modules -----------------------------------------------

def test_rtl_modules_compile_once_per_netlist(tmp_path):
    from repro.accel import SimdAddRtl
    from repro.cfu.rtl import RtlCfuAdapter
    from repro.rtl import compile as rtl_compile

    original = codecache._default_cache
    try:
        codecache.configure(str(tmp_path))
        before = rtl_compile.codegen_count
        first = RtlCfuAdapter(SimdAddRtl(), backend="compiled")
        assert rtl_compile.codegen_count == before + 1

        codecache.configure(str(tmp_path))  # fresh "process" memory layer
        binds_before = rtl_compile.cache_bind_count
        second = RtlCfuAdapter(SimdAddRtl(), backend="compiled")
        assert rtl_compile.codegen_count == before + 1  # zero re-codegens
        assert rtl_compile.cache_bind_count == binds_before + 1

        for a, b in ((0x01020304, 0x10203040), (0xFFFFFFFF, 0x01010101)):
            assert first.execute(0, 0, a, b) == second.execute(0, 0, a, b)
    finally:
        codecache._default_cache = original


# --- entries are keyed by the generator's own source -----------------------------

def _other_generator(module_name):
    return "0" * 64  # the digest an edited generator would have


def test_rtl_entry_from_another_generator_is_regenerated(tmp_path,
                                                         monkeypatch):
    """An entry an edited RTL code generator wrote is a miss: the module
    is code-generated again, stored, and the new entry then binds."""
    from repro.accel import SimdAddRtl
    from repro.rtl import compile as rtl_compile

    original = codecache._default_cache
    try:
        with monkeypatch.context() as patch:
            patch.setattr(codecache, "generator_digest", _other_generator,
                          raising=False)
            codecache.configure(str(tmp_path))
            rtl_compile.compile_module(SimdAddRtl().module)

        cache = codecache.configure(str(tmp_path))  # fresh "process"
        before = rtl_compile.codegen_count
        rtl_compile.compile_module(SimdAddRtl().module)
        assert rtl_compile.codegen_count == before + 1
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)

        codecache.configure(str(tmp_path))
        binds_before = rtl_compile.cache_bind_count
        rtl_compile.compile_module(SimdAddRtl().module)
        assert rtl_compile.codegen_count == before + 1
        assert rtl_compile.cache_bind_count == binds_before + 1
    finally:
        codecache._default_cache = original


def test_tier2_entry_from_another_generator_is_regenerated(tmp_path,
                                                           monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(codecache, "generator_digest", _other_generator,
                      raising=False)
        _run_hot(CodeCache(str(tmp_path)))

    cache = CodeCache(str(tmp_path))
    regenerated = _run_hot(cache)
    assert regenerated.halted and regenerated.block_cache_loads == 0
    assert cache.stats.disk_hits == 0 and cache.stats.stores > 0
    assert _run_hot(CodeCache(str(tmp_path))).block_cache_loads > 0


def test_generator_digest_hashes_the_module_source():
    import hashlib

    from repro.rtl import compile as rtl_compile

    with open(rtl_compile.__file__, "rb") as handle:
        expected = hashlib.sha256(handle.read()).hexdigest()
    assert codecache.generator_digest("repro.rtl.compile") == expected
