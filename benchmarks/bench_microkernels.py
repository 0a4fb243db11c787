"""Microkernel table: real assembly on the ISA machine, per CPU config.

The instruction-level ground truth behind the analytic model: small
kernels (dot product, memcpy, requantize, CFU-accelerated dot product)
executed instruction by instruction on the RV32IM machine under the two
study configurations.  The ratios here are what the whole-model cost
model builds on — and the CFU column shows the MAC4 win at ISA level.
"""

import numpy as np

from repro.accel import KwsCfu
from repro.accel.kws import model as km
from repro.core.ladders import FOMU_BASELINE_CPU
from repro.cpu import Machine, VexTiming
from repro.cpu.vexriscv import ARTY_DEFAULT

N = 64

DOT = f"""
    li t0, 0x2000
    li t1, 0x3100
    li t2, {N}
    li a0, 0
loop:
    lb t3, 0(t0)
    lb t4, 0(t1)
    mul t5, t3, t4
    add a0, a0, t5
    addi t0, t0, 1
    addi t1, t1, 1
    addi t2, t2, -1
    bnez t2, loop
    li a7, 93
    ecall
"""

DOT_CFU = f"""
    li t0, 0x2000
    li t1, 0x3100
    li t2, {N // 4}
    li a1, 0
    li a2, 0
    cfu 1, {km.F3_MAC4}, a0, a1, a2
loop:
    lw a1, 0(t0)
    lw a2, 0(t1)
    cfu 0, {km.F3_MAC4}, a0, a1, a2
    addi t0, t0, 4
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, loop
    cfu 0, {km.F3_READ_ACC}, a0, x0, x0
    li a7, 93
    ecall
"""

MEMCPY = f"""
    li t0, 0x2000
    li t1, 0x4000
    li t2, {N // 4}
loop:
    lw t3, 0(t0)
    sw t3, 0(t1)
    addi t0, t0, 4
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, loop
    li a7, 93
    ecall
"""

REQUANT = f"""
    # x * mult >> 31 >> 7, clamp to int8, {N} times
    li t0, 0x2000
    li t2, {N}
    li t4, 0x40000000
loop:
    lw t3, 0(t0)
    mulh t5, t3, t4
    srai t5, t5, 7
    li t6, 127
    blt t5, t6, no_hi
    mv t5, t6
no_hi:
    li t6, -128
    bge t5, t6, no_lo
    mv t5, t6
no_lo:
    sb t5, 0(t0)
    addi t0, t0, 4
    addi t2, t2, -1
    bnez t2, loop
    li a7, 93
    ecall
"""

KERNELS = [("dot-product", DOT, None), ("dot-product+CFU", DOT_CFU, "cfu"),
           ("memcpy", MEMCPY, None), ("requantize", REQUANT, None)]
CONFIGS = [("arty-class", ARTY_DEFAULT),
           ("fomu-class", FOMU_BASELINE_CPU)]


def run_kernel(source, config, with_cfu):
    machine = Machine(cfu=KwsCfu() if with_cfu else None,
                      timing=VexTiming(config))
    rng = np.random.default_rng(5)
    data = rng.integers(-128, 128, size=2 * N + 0x2000).astype(np.int8)
    machine.memory.load_bytes(0x2000, data[:N].tobytes())
    machine.memory.load_bytes(0x3100, data[N:2 * N].tobytes())
    machine.load_assembly(source)
    result = machine.run()
    return machine, result


def test_microkernel_table(report):
    rows = [(kname, cname, run_kernel(src, cfg, cfu)[0])
            for kname, src, cfu in KERNELS
            for cname, cfg in CONFIGS]
    report("Microkernels on the ISA machine (instruction-level ground truth)")
    report(f"{'kernel':18s} {'config':12s} {'cycles':>8s} {'instr':>7s} "
           f"{'CPI':>6s}")
    table = {}
    for kname, cname, machine in rows:
        table[(kname, cname)] = machine
        report(f"{kname:18s} {cname:12s} {machine.cycles:>8,} "
               f"{machine.instret:>7,} {machine.cycles / machine.instret:>6.2f}")

    # Correctness: CFU and scalar dot products agree.
    scalar = run_kernel(DOT, ARTY_DEFAULT, None)[1]
    simd = run_kernel(DOT_CFU, ARTY_DEFAULT, "cfu")[1]
    assert scalar == simd

    # Shape: the Fomu-class CPU pays heavily on compute-bound kernels
    # (no bypassing, iterative multiplier)...
    for kname in ("dot-product", "requantize"):
        assert (table[(kname, "fomu-class")].cycles
                > table[(kname, "arty-class")].cycles)
    # ...but pure data movement can be *faster*: tightly-coupled SRAM
    # needs no cache, while the cached config pays line fills.
    report("note: memcpy favours the cacheless SRAM config -- caches only"
           " pay off over slow backing memory")
    # ...the CFU cuts the dot product several-fold on both configs...
    for cname, _ in CONFIGS:
        ratio = (table[("dot-product", cname)].cycles
                 / table[("dot-product+CFU", cname)].cycles)
        report(f"MAC4 speedup on {cname}: {ratio:.2f}x")
        assert ratio > 2.0
    # ...and the iterative multiplier shows up in the requantize CPI.
    assert (table[("requantize", "fomu-class")].cycles
            > 2 * table[("requantize", "arty-class")].cycles)
