"""Simulator throughput on both execution paths: the reference
``step()`` interpreter and translated basic blocks (``auto``).

Firmware integration workloads (the dot-product CFU firmware and a
memcpy/UART firmware, both on the full SoC bus) plus a bare-machine ALU
loop run through both backends of ``Machine.run``, :data:`REPEATS` times
interleaved.  The ``throughput`` section of ``BENCH_sim.json`` gates,
per firmware row, the median translated-vs-reference ratio (bar 15x),
both paths bit-identical in every repeat.  Beside the rows sits the
per-workload detail of the median repeat: instructions/sec, wall-clock
and block translation/compile overhead (reported separately from
steady-state throughput).
"""

import time

from common import REPEATS, check, median_run, row, write_section

from repro.accel import KwsCfu
from repro.accel.kws import model as km
from repro.boards import ARTY_A7_35T
from repro.cpu import Machine
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator
from repro.soc import Soc

REPS = 2000             # outer repetitions per firmware run
TRANSLATED_REF_MIN = 15.0  # translated vs reference, every firmware row

N = 32  # dot-product length per repetition


def dot_firmware(data_base, uart_addr, reps):
    """The integration-test CFU dot-product firmware with an outer
    repetition loop (same instruction mix, benchmark-sized)."""
    return f"""
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
        li   t5, {uart_addr}
        li   t6, 79                 # 'O'
        sw   t6, 0(t5)
        li   t6, 75                 # 'K'
        sw   t6, 0(t5)
        li   a7, 93
        ecall
    """


def memcpy_firmware(src, dst, uart_addr, reps):
    """Word-copy firmware: load/store/branch traffic on the SoC bus."""
    return f"""
        li   s0, {reps}
    outer:
        li   t0, {src}
        li   t1, {dst}
        li   t2, {N // 4}
    loop:
        lw   t3, 0(t0)
        sw   t3, 0(t1)
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bnez t2, loop
        addi s0, s0, -1
        bnez s0, outer
        li   t5, {uart_addr}
        li   t6, 79                 # 'O'
        sw   t6, 0(t5)
        li   a7, 93
        ecall
    """


ALU_LOOP = """
    li   t0, 0
    li   t1, {iters}
loop:
    addi t0, t0, 1
    xor  t2, t0, t1
    and  t3, t2, t0
    or   t4, t3, t2
    add  t5, t4, t0
    slli t6, t5, 3
    srli a1, t6, 2
    sub  a2, a1, t0
    bne  t0, t1, loop
    li   a7, 93
    li   a0, 0
    ecall
"""


def build_firmware_emulator(kind, with_timing):
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    ram = soc.memory_map.get("main_ram").base
    uart = soc.csr_bank.get("uart_rxtx").address
    data_base = ram + 0x10000
    if kind == "dot":
        emu = Emulator(soc, cfu=KwsCfu(), with_timing=with_timing)
        emu.bus.load_bytes(data_base, bytes((i * 37 + 11) & 0xFF
                                            for i in range(2 * N)))
        source = dot_firmware(data_base, uart, REPS)
    else:
        emu = Emulator(soc, with_timing=with_timing)
        emu.bus.load_bytes(data_base, bytes((i * 53 + 7) & 0xFF
                                            for i in range(N)))
        source = memcpy_firmware(data_base, data_base + 0x1000, uart, REPS)
    emu.load_assembly(source, region="main_ram")
    return emu


def build_alu_machine(_with_timing):
    machine = Machine()
    machine.load_assembly(ALU_LOOP.format(iters=REPS * 20))
    return machine


def arch_state(machine):
    return (list(machine.regs), machine.pc, machine.instret, machine.cycles,
            machine.halted, machine.exit_code)


def timed_run(build, mode, backend):
    """Build a fresh environment and run it; returns (seconds, machine)."""
    target = build(mode == "timed")
    machine = target.machine if isinstance(target, Emulator) else target
    start = time.perf_counter()
    machine.run(max_instructions=200_000_000, backend=backend)
    return time.perf_counter() - start, machine


WORKLOADS = [
    # (name, builder, is_firmware)
    ("firmware-dot-cfu", lambda timed: build_firmware_emulator("dot", timed),
     True),
    ("firmware-memcpy", lambda timed: build_firmware_emulator("memcpy",
                                                              timed), True),
    ("alu-loop", build_alu_machine, False),
]


def measure():
    results = []
    for name, build, is_firmware in WORKLOADS:
        modes = ["functional", "timed"] if is_firmware else ["functional"]
        for mode in modes:
            ref_seconds, ref_machine = timed_run(build, mode, backend="step")
            trans_seconds, trans_machine = timed_run(build, mode,
                                                     backend="auto")
            instructions = ref_machine.instret
            assert instructions == trans_machine.instret
            identical = arch_state(trans_machine) == arch_state(ref_machine)
            # Translation/compile overhead is one-time work; steady-state
            # throughput excludes it so the two numbers stay separable.
            compile_seconds = trans_machine.block_compile_seconds
            steady_seconds = max(trans_seconds - compile_seconds, 1e-9)
            translated_ips = instructions / steady_seconds
            results.append({
                "workload": name,
                "mode": mode,
                "firmware": is_firmware,
                "instructions": instructions,
                "reference": {
                    "seconds": round(ref_seconds, 4),
                    "instructions_per_second": round(
                        instructions / ref_seconds),
                },
                "translated": {
                    "seconds": round(trans_seconds, 4),
                    "compile_seconds": round(compile_seconds, 4),
                    "steady_seconds": round(steady_seconds, 4),
                    "instructions_per_second": round(translated_ips),
                    "block_cache_entries":
                        trans_machine.block_cache_entries,
                    "block_promotions": trans_machine.block_promotions,
                    "block_invalidations":
                        trans_machine.block_invalidation_count,
                },
                "translated_speedup_vs_reference": round(
                    ref_seconds / steady_seconds, 2),
                "identical_state": identical,
            })
    return results


def test_sim_throughput(report):
    repeats = [measure() for _ in range(REPEATS)]
    rows, workloads, broken = [], [], []
    for runs in zip(*repeats):
        first = runs[0]
        label = f"{first['workload']}/{first['mode']}"
        workloads.append(median_run(runs, "translated_speedup_vs_reference"))
        if not all(r["identical_state"] for r in runs):
            broken.append(f"{label}: the two paths diverged")
        if first["firmware"]:
            rows.append(row(f"{label} translated vs reference", "ratio",
                            "higher",
                            [r["translated_speedup_vs_reference"]
                             for r in runs], TRANSLATED_REF_MIN))
    write_section("sim", "throughput", rows, reps=REPS, workloads=workloads)

    report(f"Simulator throughput (reps={REPS}, median of {REPEATS})")
    report(f"{'workload':<18} {'mode':<11} {'ref ips':>10} "
           f"{'xlat ips':>10} {'vs ref':>8} {'compile':>8}  state")
    for r in workloads:
        report(f"{r['workload']:<18} {r['mode']:<11} "
               f"{r['reference']['instructions_per_second']:>10,} "
               f"{r['translated']['instructions_per_second']:>10,} "
               f"{r['translated_speedup_vs_reference']:>7.2f}x "
               f"{r['translated']['compile_seconds']:>7.4f}s  "
               f"{'identical' if r['identical_state'] else 'MISMATCH'}")
    check(report, rows, broken)
