"""Profiling overhead and simulation-backed drift.

Two claims back the reworked profiler:

1. **Overhead** — attaching the :class:`~repro.cpu.profiler.MachineProfiler`
   to the decoded-instruction fast path costs a small constant factor
   (profiled fast path ≤ 3x the unprofiled fast path, median of
   :data:`REPEATS` interleaved repeats), while producing *bit-identical*
   per-symbol attribution to the reference ``step()`` collector in every
   repeat.  Measured on the KWS dot-product firmware and the MNV2
   1x1-convolution firmware, CFUs attached.
2. **Drift** — ``Playground.profile(simulate=True)`` on the Section
   III-A MobileNetV2 profile stays inside the calibrated
   simulated/analytic drift band for every dominant opcode class.

Both land in the ``overhead`` section of ``BENCH_profile.json``: one
row per firmware, the median repeat's timings, and the drift table.
"""

import time

from common import REPEATS, check, median_run, row, write_section

from repro.accel import KwsCfu, Mnv2Cfu
from repro.accel.kws import model as km
from repro.accel.mnv2 import model as mm
from repro.boards import ARTY_A7_35T
from repro.core import Playground
from repro.core.simprofile import DEFAULT_DRIFT_BAND
from repro.cpu.profiler import MachineProfiler
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator
from repro.models import load
from repro.soc import Soc

REPS = 2000             # firmware outer repetitions
OVERHEAD_MAX = 3.0      # profiled fast path over the unprofiled one
SIM_BUDGET = 20000      # simulate-profile instruction budget

N = 32


def kws_firmware(data_base, reps):
    """The CFU2 dot-product firmware with an outer repetition loop."""
    return f"""
    start:
        li   s0, {reps}
    outer:
        li   t0, {data_base}
        li   t1, {data_base + N}
        li   t2, {N // 4}
        li   a1, 0
        li   a2, 0
        cfu  1, {km.F3_MAC4}, a0, a1, a2
    loop:
        lw   a1, 0(t0)
        lw   a2, 0(t1)
        cfu  0, {km.F3_MAC4}, a0, a1, a2
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bnez t2, loop
        cfu  0, {km.F3_READ_ACC}, a0, x0, x0
        addi s0, s0, -1
        bnez s0, outer
        li   a7, 93
        ecall
    """


def mnv2_firmware(out_base, reps, channels=8, depth_words=4):
    """CFU1: one-time config + filter/input streaming, then a repeated
    autonomous RUN_POSTPROC sweep over the output channels."""
    return f"""
    start:
        cfu  {mm.CFG_RESET}, {mm.F3_CONFIG}, a0, x0, x0
        li   t0, {channels}
    cfg_loop:
        li   a1, 100
        cfu  {mm.CFG_BIAS}, {mm.F3_CONFIG}, a0, a1, x0
        li   a1, 0x40000000
        cfu  {mm.CFG_MULT}, {mm.F3_CONFIG}, a0, a1, x0
        li   a1, -4
        cfu  {mm.CFG_SHIFT}, {mm.F3_CONFIG}, a0, a1, x0
        addi t0, t0, -1
        bnez t0, cfg_loop
        li   a1, -3
        li   a2, {0x80 | (0x7F << 8)}
        cfu  {mm.CFG_OUTPUT}, {mm.F3_CONFIG}, a0, a1, a2
        li   a1, {depth_words}
        cfu  {mm.CFG_DEPTH}, {mm.F3_CONFIG}, a0, a1, x0
        li   t0, {channels * depth_words}
        li   a1, 0x01020304
    filt_loop:
        cfu  0, {mm.F3_WRITE_FILT}, a0, a1, x0
        addi a1, a1, 0x11
        addi t0, t0, -1
        bnez t0, filt_loop
        li   a1, 0x05060708
        cfu  1, {mm.F3_WRITE_INPUT}, a0, a1, x0
        li   t0, {depth_words - 1}
    in_loop:
        addi a1, a1, 0x13
        cfu  0, {mm.F3_WRITE_INPUT}, a0, a1, x0
        addi t0, t0, -1
        bnez t0, in_loop
        li   s0, {reps}
    outer:
        cfu  {mm.CFG_RESTART}, {mm.F3_CONFIG}, a0, x0, x0
        li   t0, {channels}
        li   t1, {out_base}
    run_loop:
        cfu  {mm.RUN_POSTPROC}, {mm.F3_RUN1}, a0, x0, x0
        sb   a0, 0(t1)
        addi t1, t1, 1
        addi t0, t0, -1
        bnez t0, run_loop
        addi s0, s0, -1
        bnez s0, outer
        li   a0, 0
        li   a7, 93
        ecall
    """


def build(kind):
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    ram = soc.memory_map.get("main_ram").base
    if kind == "kws":
        emu = Emulator(soc, cfu=KwsCfu())
        data_base = ram + 0x10000
        emu.bus.load_bytes(data_base, bytes((i * 37 + 11) & 0xFF
                                            for i in range(2 * N)))
        source = kws_firmware(data_base, REPS)
    else:
        emu = Emulator(soc, cfu=Mnv2Cfu())
        source = mnv2_firmware(ram + 0x10000, REPS)
    symbols = emu.load_assembly(source, region="main_ram")
    return emu, symbols


def _best_of(runs, fn):
    best = None
    for _ in range(runs):
        seconds, result = fn()
        if best is None or seconds < best[0]:
            best = (seconds, result)
    return best


def timed_unprofiled(kind):
    def once():
        emu, _ = build(kind)
        start = time.perf_counter()
        emu.run(max_instructions=200_000_000)
        return time.perf_counter() - start, emu.machine
    return _best_of(2, once)


def timed_profiled(kind, backend):
    def once():
        emu, symbols = build(kind)
        profiler = MachineProfiler(emu.machine, symbols)
        start = time.perf_counter()
        profile = profiler.run(max_instructions=200_000_000, backend=backend)
        return time.perf_counter() - start, (emu.machine, profile)
    return _best_of(1 if backend == "step" else 2, once)


def symbol_map(profile):
    return {name: (entry.cycles, entry.instructions)
            for name, entry in profile.entries.items()}


def measure_overhead():
    results = []
    for kind in ("kws", "mnv2"):
        base_seconds, base_machine = timed_unprofiled(kind)
        fast_seconds, (fast_machine, fast_profile) = timed_profiled(
            kind, backend="auto")
        ref_seconds, (ref_machine, ref_profile) = timed_profiled(
            kind, backend="step")
        instructions = base_machine.instret
        assert instructions == fast_machine.instret == ref_machine.instret
        identical = (symbol_map(fast_profile) == symbol_map(ref_profile)
                     and fast_profile.total_cycles == ref_profile.total_cycles
                     == base_machine.cycles)
        results.append({
            "firmware": kind,
            "instructions": instructions,
            "unprofiled_fast_seconds": round(base_seconds, 4),
            "profiled_fast_seconds": round(fast_seconds, 4),
            "profiled_reference_seconds": round(ref_seconds, 4),
            "overhead": round(fast_seconds / base_seconds, 2),
            "reference_slowdown": round(ref_seconds / base_seconds, 2),
            "symbols": len(fast_profile.entries),
            "identical_attribution": identical,
        })
    return results


def measure_drift():
    model = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    pg = Playground(ARTY_A7_35T, model, cpu_config=ARTY_DEFAULT)
    sim = pg.profile(simulate=True, budget=SIM_BUDGET)
    return {
        "model": sim.model_name,
        "budget": SIM_BUDGET,
        "drift_band": list(DEFAULT_DRIFT_BAND),
        "classes": [
            {"class": c.name,
             "estimated_cycles": round(c.estimated_cycles),
             "simulated_cycles": round(c.simulated_cycles),
             "drift": round(c.drift, 3),
             "instructions": c.instructions}
            for c in sorted(sim.classes, key=lambda c: -c.simulated_cycles)
        ],
        "skipped_classes": len(sim.skipped),
        "total_estimated": round(sim.total_estimated),
        "total_simulated": round(sim.total_cycles),
        "overall_drift": round(sim.drift, 3),
    }


def test_profile_overhead_and_drift(report):
    repeats = [measure_overhead() for _ in range(REPEATS)]
    rows, overhead, broken = [], [], []
    for runs in zip(*repeats):
        firmware = runs[0]["firmware"]
        overhead.append(median_run(runs, "overhead"))
        rows.append(row(f"{firmware} profiled vs unprofiled fast path",
                        "ratio", "lower", [r["overhead"] for r in runs],
                        OVERHEAD_MAX))
        if not all(r["identical_attribution"] for r in runs):
            broken.append(f"{firmware}: attribution diverged")
    drift = measure_drift()
    lo, hi = DEFAULT_DRIFT_BAND
    broken += [f"{c['class']}: drift {c['drift']} outside {lo}-{hi}"
               for c in drift["classes"] if not lo <= c["drift"] <= hi]
    write_section("profile", "overhead", rows, reps=REPS,
                  overhead=overhead, simulate=drift)

    report(f"Profiler overhead (reps={REPS}, median of {REPEATS})")
    report(f"{'firmware':<8} {'instr':>10} {'unprof':>8} {'prof-fast':>10} "
           f"{'prof-ref':>9} {'overhead':>9}  attribution")
    for r in overhead:
        report(f"{r['firmware']:<8} {r['instructions']:>10,} "
               f"{r['unprofiled_fast_seconds']:>8.3f} "
               f"{r['profiled_fast_seconds']:>10.3f} "
               f"{r['profiled_reference_seconds']:>9.3f} "
               f"{r['overhead']:>8.2f}x  "
               f"{'identical' if r['identical_attribution'] else 'MISMATCH'}")
    report()
    report(f"Simulation-backed MNV2 profile (budget {SIM_BUDGET:,}):")
    for c in drift["classes"]:
        report(f"  {c['class']:<20} est {c['estimated_cycles']:>12,} "
               f"sim {c['simulated_cycles']:>12,}  drift {c['drift']:.2f}")
    report(f"  overall drift {drift['overall_drift']:.2f} "
           f"(band {lo}-{hi})")
    check(report, rows, broken)
