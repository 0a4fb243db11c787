"""Session fleet benchmark: warm setup, COW latency, step latency.

Four measurements, landed in the ``fleet`` section of
``BENCH_sessions.json``:

- **trial setup, cold vs warm** — a *cold* trial builds everything
  from scratch (SoC + emulator + assemble + translation of every
  block); a *warm* trial reuses a live session via COW
  snapshot/restore, so all of that state stays hot.  Over
  :data:`REPEATS` interleaved repeats, warm setup must be at least 5x
  faster in the median.

- **snapshot/restore vs pages touched** — snapshot cost tracks the
  pages allocated (it copies nothing), restore cost must scale with
  the pages actually dirtied since the snapshot, and
  ``pages_restored`` must equal the dirtied page count exactly.

- **fleet capacity** — how many warm sessions one host holds and what
  the marginal session costs once the shared compile cache is primed
  (every session after the first binds generated code, zero compiles).

- **step latency** — p50/p99 wall seconds for a 100-instruction
  ``step`` over the wire against a served session, the interactive
  debugging loop the fleet exists for.
"""

import time

from common import REPEATS, check, median_run, row, write_section

from repro.emu.sessions import SessionClient, SessionManager, SessionServerThread

TRIALS = 5              # cold and warm setup trials per repeat
STEPS = 200             # wire steps for the latency tail
FLEET = 16              # sessions created in the capacity run
SETUP_MIN = 5.0         # warm-over-cold setup speedup

#: Block-heavy, iteration-light firmware: setup cost is dominated by
#: SoC construction + assembly + block code generation, the state the
#: warm path keeps.
FIRMWARE = "\n".join(
    ["    li a0, 0", "    li a1, 4", "outer:"]
    + [line
       for block in range(32)
       for line in (f"b{block}:",
                    *[f"    addi a0, a0, {block + 1}" for _ in range(8)],
                    f"    bnez a1, b{block}_done",
                    f"b{block}_done:")]
    + ["    addi a1, a1, -1", "    bnez a1, outer",
       "    li a7, 93", "    ecall"]
)

#: An endless loop for the step-latency run (never halts).
STEP_FIRMWARE = """
    li a0, 0
forever:
    addi a0, a0, 1
    j forever
"""

SPEC = {"board": "arty_a7_35t"}

#: First page of ARTY main RAM; the scaling run dirties pages upward.
RAM_BASE = 0x4000_0000


def percentile(values, fraction):
    ranked = sorted(values)
    index = min(len(ranked) - 1, int(fraction * len(ranked)))
    return ranked[index]


def run_trial(session):
    session.load({"assembly": FIRMWARE, "region": "flash"})
    return session.run({"max_instructions": 1_000_000})


def measure_trial_setup(cache_dir):
    """Cold: everything from scratch, per trial.  Warm: one live
    session, per-trial COW restore.  Both run the same firmware to the
    same architectural state."""
    cold_seconds, cycles = [], set()
    for _ in range(TRIALS):
        started = time.perf_counter()
        manager = SessionManager(compile_cache=None)
        outcome = run_trial(manager.create(SPEC))
        cold_seconds.append(time.perf_counter() - started)
        cycles.add(outcome["cycles"])

    manager = SessionManager(compile_cache=cache_dir)
    session = manager.create(SPEC)
    session.load({"assembly": FIRMWARE, "region": "flash"})
    anchor = session.snapshot({})["snapshot_id"]
    # Prime once, unmeasured: the first run from the anchor translates
    # the blocks; that is the cold cost warm trials exist to avoid.
    session.run({"max_instructions": 1_000_000})
    warm_seconds = []
    for _ in range(TRIALS):
        started = time.perf_counter()
        session.restore({"snapshot_id": anchor})
        outcome = session.run({"max_instructions": 1_000_000})
        warm_seconds.append(time.perf_counter() - started)
        cycles.add(outcome["cycles"])

    cold = sum(cold_seconds) / len(cold_seconds)
    warm = sum(warm_seconds) / len(warm_seconds)
    return {
        "trials": TRIALS,
        "cold_setup_seconds": round(cold, 4),
        "warm_setup_seconds": round(warm, 4),
        "speedup": round(cold / warm, 1),
        "bit_identical": len(cycles) == 1,
    }


def measure_snapshot_scaling():
    """Snapshot is O(pages allocated); restore is O(pages dirtied
    since)."""
    manager = SessionManager(compile_cache=None)
    session = manager.create(SPEC)
    session.load({"assembly": FIRMWARE, "region": "flash"})
    memory = session.emulator.machine.memory
    points = []
    for pages in (0, 1, 8, 64):
        started = time.perf_counter()
        snap = session.snapshot({})
        snapshot_seconds = time.perf_counter() - started
        for page in range(pages):
            memory.write32(RAM_BASE + page * 4096, 0xC0FFEE00 + page)
        restored = session.restore({"snapshot_id": snap["snapshot_id"]})
        session.discard({"snapshot_id": snap["snapshot_id"]})
        points.append({
            "pages_touched": pages,
            "snapshot_seconds": round(snapshot_seconds, 6),
            "restore_seconds": round(restored["seconds"], 6),
            "pages_restored": restored["pages_restored"],
        })
    exact = all(p["pages_restored"] == p["pages_touched"] for p in points)
    return {"points": points, "pages_restored_exact": exact}


def measure_fleet_capacity(cache_dir):
    """Marginal cost of one more warm session with a primed cache."""
    manager = SessionManager(max_sessions=FLEET, compile_cache=cache_dir)
    seconds = []
    for index in range(FLEET):
        started = time.perf_counter()
        session = manager.create({"session_id": f"fleet-{index}", **SPEC})
        run_trial(session)
        seconds.append(time.perf_counter() - started)
    cache_stats = (manager.compile_cache.stats.as_dict()
                   if manager.compile_cache else None)
    return {
        "sessions": FLEET,
        "resident_sessions": len(manager.sessions),
        "first_session_seconds": round(seconds[0], 4),
        "marginal_session_seconds": round(
            sum(seconds[1:]) / max(1, len(seconds) - 1), 4),
        "compile_cache": cache_stats,
        # every session after the first binds, never re-generates
        "redundant_compiles": 0 if cache_stats is None
        else max(0, cache_stats["misses"] - cache_stats["stores"]),
    }


def measure_step_latency():
    """p50/p99 for a 100-instruction run over the wire."""
    manager = SessionManager(compile_cache=None)
    with SessionServerThread(manager) as handle:
        with SessionClient(handle.url) as client:
            sid = client.create(SPEC)["session_id"]
            client.load(sid, assembly=STEP_FIRMWARE, region="flash")
            latencies = []
            for _ in range(STEPS):
                started = time.perf_counter()
                outcome = client.run(sid, max_instructions=100)
                latencies.append(time.perf_counter() - started)
                assert not outcome["halted"]
    return {
        "steps": STEPS,
        "instructions_per_step": 100,
        "p50_seconds": round(percentile(latencies, 0.50), 6),
        "p99_seconds": round(percentile(latencies, 0.99), 6),
        "steps_per_sec": round(STEPS / sum(latencies), 1),
    }


def test_sessions_benchmark(report, tmp_path):
    cache_dirs = [str(tmp_path / f"code-cache-{index}")
                  for index in range(REPEATS)]
    setups = [measure_trial_setup(cache_dir) for cache_dir in cache_dirs]
    scaling = measure_snapshot_scaling()
    fleet = measure_fleet_capacity(cache_dirs[0])
    steps = measure_step_latency()
    setup = median_run(setups, "speedup")

    rows = [row("warm vs cold trial setup", "ratio", "higher",
                [s["speedup"] for s in setups], SETUP_MIN),
            row("fleet redundant compiles", "count", "lower",
                [fleet["redundant_compiles"]], 0)]
    broken = [message for ok, message in (
        (all(s["bit_identical"] for s in setups),
         "warm trials diverged from cold trials"),
        (scaling["pages_restored_exact"],
         f"restore page counts diverged from pages touched: "
         f"{scaling['points']}"),
        (fleet["resident_sessions"] == FLEET,
         "fleet did not hold every session resident"),
    ) if not ok]
    write_section("sessions", "fleet", rows, trial_setup=setup,
                  snapshot_scaling=scaling, fleet_capacity=fleet,
                  step_latency=steps)

    report(f"session fleet benchmark ({TRIALS} setup trials, "
           f"{FLEET} fleet sessions, {STEPS} wire steps)")
    report(f"trial setup    : {setup['cold_setup_seconds']*1000:>8.1f}ms "
           f"cold, {setup['warm_setup_seconds']*1000:.1f}ms warm "
           f"({setup['speedup']}x, median of {REPEATS})")
    for point in scaling["points"]:
        report(f"restore {point['pages_touched']:>3} pages: "
               f"{point['restore_seconds']*1000:>8.3f}ms "
               f"(snapshot {point['snapshot_seconds']*1000:.3f}ms, "
               f"{point['pages_restored']} restored)")
    report(f"fleet          : {fleet['resident_sessions']} resident, "
           f"first {fleet['first_session_seconds']*1000:.1f}ms, "
           f"marginal {fleet['marginal_session_seconds']*1000:.1f}ms")
    report(f"step latency   : p50 {steps['p50_seconds']*1000:.2f}ms, "
           f"p99 {steps['p99_seconds']*1000:.2f}ms "
           f"({steps['steps_per_sec']:.0f} steps/sec)")
    check(report, rows, broken)
