"""RTL simulation throughput: compiled backend vs the reference interpreter.

Golden-test-style op sequences run through :class:`RtlCfuAdapter` on
every shipped gateware CFU, once with ``backend="interp"`` (the fixpoint
interpreter) and once with ``backend="compiled"`` (the scheduled,
code-generated netlist).  Results — CFU ops/sec, simulated clock
cycles/sec, wall-clock, speedup, and a bit-equality check of results and
cycle counts per workload — land in ``BENCH_rtl.json`` at the repo root,
alongside ``BENCH_sim.json``, extending the machine-readable perf
trajectory to the RTL layer.

The winograd ladder test additionally records the modeled cycle
reduction of the Winograd kernel pair over the software reference
kernels on the MNV2 ladder workloads, in a ``winograd`` section of the
same file.  Both tests merge-preserve sections owned by the other (the
``bench_dse_service.py`` convention for BENCH_dse.json).

Knobs:
- ``REPRO_RTL_BENCH_OPS``           ops per CFU workload (default 400)
- ``REPRO_RTL_SPEEDUP_MIN``         headline threshold (default 5.0)
- ``REPRO_WINOGRAD_SPEEDUP_MIN``    ladder cycle-reduction bar (default 5.0)
"""

import os
import random
import time

from common import merge_preserve

from repro.accel import Cfu1Rtl, KwsCfu2Rtl, Mac4Rtl, PostprocRtl, WinogradRtl
from repro.accel.kws import model as km
from repro.accel.mnv2 import model as cm
from repro.accel.winograd import model as wm
from repro.boards import ARTY_A7_35T
from repro.cfu import RtlCfuAdapter
from repro.cpu.vexriscv import VexRiscvConfig
from repro.kernels import winograd_variants
from repro.kernels.reference import reference_variants
from repro.models import load
from repro.rtl import compile_module
from repro.soc import Soc

OPS = int(os.environ.get("REPRO_RTL_BENCH_OPS", "400"))
SPEEDUP_MIN = float(os.environ.get("REPRO_RTL_SPEEDUP_MIN", "5.0"))
WINOGRAD_MIN = float(os.environ.get("REPRO_WINOGRAD_SPEEDUP_MIN", "5.0"))
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rtl.json")


def kws_sequence(rng, count):
    seq = [
        (km.F3_CONFIG, km.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0),
        (km.F3_CONFIG, km.CFG_SHIFT, -7 & 0xFFFFFFFF, 0),
        (km.F3_CONFIG, km.CFG_OUTPUT, (-10) & 0xFFFFFFFF, 0x80 | (0x7F << 8)),
    ]
    while len(seq) < count:
        f3 = rng.choice([km.F3_MAC4, km.F3_MAC4, km.F3_MAC1, km.F3_POSTPROC,
                         km.F3_READ_ACC])
        f7 = 1 if f3 in (km.F3_MAC4, km.F3_MAC1) and rng.random() < 0.2 else 0
        seq.append((f3, f7, rng.getrandbits(32), rng.getrandbits(32)))
    return seq


def mac4_sequence(rng, count):
    return [(cm.F3_MAC4, rng.choice([0, 1]), rng.getrandbits(32),
             rng.getrandbits(32)) for _ in range(count)]


def postproc_sequence(rng, count):
    seq = []
    for _ in range(8):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    while len(seq) < count:
        seq.append((cm.F3_POSTPROC, 0,
                    rng.randrange(-2**24, 2**24) & 0xFFFFFFFF, 0))
    return seq


def cfu1_sequence(rng, count):
    """Config + filter/input loads, then a stream of multi-cycle RUNs —
    the heaviest shipped netlist (FSM + five memories)."""
    depth, channels = 4, 8
    seq = [(cm.F3_CONFIG, cm.CFG_DEPTH, depth, 0)]
    for _ in range(channels):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    for _ in range(channels * depth):
        seq.append((cm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((cm.F3_WRITE_INPUT, 1, rng.getrandbits(32), 0))
    for _ in range(depth - 1):
        seq.append((cm.F3_WRITE_INPUT, 0, rng.getrandbits(32), 0))
    modes = [cm.RUN_RAW, cm.RUN_POSTPROC, cm.RUN_PACK4]
    while len(seq) < count:
        seq.append((cm.F3_RUN1, rng.choice(modes), 0, 0))
    return seq


def winograd_sequence(rng, count):
    """Config + transformed-filter uploads, then a mix of DW tile runs
    and multi-cycle PW dot-product runs — the full Winograd dataflow."""
    depth = 2
    seq = [(wm.F3_CONFIG, wm.CFG_RESET, 0, 0),
           (wm.F3_CONFIG, wm.CFG_DEPTH, depth, 0)]
    for _ in range(4):
        seq.append((wm.F3_CONFIG, wm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((wm.F3_CONFIG, wm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((wm.F3_CONFIG, wm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((wm.F3_CONFIG, wm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    seq.append((wm.F3_WRITE_FILT, 1, rng.getrandbits(32), 0))
    seq.append((wm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((wm.F3_WRITE_FILT, 0, rng.getrandbits(8), 0))
    seq.append((wm.F3_WRITE_FILT, 3, rng.getrandbits(32), 0))
    for _ in range(4 * depth - 1):
        seq.append((wm.F3_WRITE_FILT, 2, rng.getrandbits(32), 0))
    while len(seq) < count:
        first = True
        for _ in range(4):
            seq.append((wm.F3_WRITE_INPUT, 1 if first else 0,
                        rng.getrandbits(32), 0))
            first = False
        seq.append((wm.F3_RUN_DW, 0, 0, 0))
        seq.append((wm.F3_CONFIG, wm.CFG_RESTART, 0, 0))
        seq.append((wm.F3_RUN_PW, 0, 0, 0))
    return seq[:count]


WORKLOADS = [
    # (name, cfu factory, sequence builder)
    ("kws-cfu2", KwsCfu2Rtl, kws_sequence),
    ("mnv2-mac4", Mac4Rtl, mac4_sequence),
    ("mnv2-postproc", lambda: PostprocRtl(channels=8), postproc_sequence),
    ("mnv2-cfu1",
     lambda: Cfu1Rtl(channels=8, filter_words=64, input_words=16),
     cfu1_sequence),
    ("winograd",
     lambda: WinogradRtl(channels=4, pw_filter_words=16, input_words=16),
     winograd_sequence),
]


def timed_run(cfu, backend, sequence):
    """Execute the sequence on a fresh adapter; returns
    (seconds, results, total simulated cycles)."""
    adapter = RtlCfuAdapter(cfu, backend=backend)
    results = []
    cycles = 0
    start = time.perf_counter()
    for op in sequence:
        value, latency = adapter.execute(*op)
        results.append(value)
        cycles += latency
    return time.perf_counter() - start, results, cycles


def measure():
    rows = []
    for name, factory, make_sequence in WORKLOADS:
        cfu = factory()
        sequence = make_sequence(random.Random(42), OPS)
        interp_s, interp_results, interp_cycles = timed_run(
            cfu, "interp", sequence)
        compiled_s, compiled_results, compiled_cycles = timed_run(
            cfu, "compiled", sequence)
        identical = (interp_results == compiled_results
                     and interp_cycles == compiled_cycles)
        program = compile_module(cfu.module)
        rows.append({
            "workload": name,
            "ops": len(sequence),
            "simulated_cycles": compiled_cycles,
            "comb_levels": program.levels,
            "signals": len(program.signals),
            "interp": {
                "seconds": round(interp_s, 4),
                "ops_per_second": round(len(sequence) / interp_s),
                "cycles_per_second": round(interp_cycles / interp_s),
            },
            "compiled": {
                "seconds": round(compiled_s, 4),
                "ops_per_second": round(len(sequence) / compiled_s),
                "cycles_per_second": round(compiled_cycles / compiled_s),
            },
            "speedup": round(interp_s / compiled_s, 2),
            "identical": identical,
        })
    return rows


def test_rtl_throughput(report):
    rows = measure()
    headline = min(rows, key=lambda r: r["speedup"])
    payload = {
        "benchmark": "rtl_throughput",
        "generated_by": "benchmarks/bench_rtl_throughput.py",
        "ops": OPS,
        "workloads": rows,
        "headline": {
            "description": ("min compiled-backend speedup over the fixpoint "
                            "interpreter on golden-test op sequences across "
                            "the shipped gateware CFUs"),
            "workload": headline["workload"],
            "speedup": headline["speedup"],
            "threshold": SPEEDUP_MIN,
            "passed": headline["speedup"] >= SPEEDUP_MIN,
        },
    }
    merge_preserve(BENCH_PATH, payload)

    report(f"RTL simulation throughput (ops={OPS})")
    report(f"{'workload':<15} {'levels':>6} {'interp c/s':>11} "
           f"{'compiled c/s':>13} {'speedup':>8}  results")
    for r in rows:
        report(f"{r['workload']:<15} {r['comb_levels']:>6} "
               f"{r['interp']['cycles_per_second']:>11,} "
               f"{r['compiled']['cycles_per_second']:>13,} "
               f"{r['speedup']:>7.2f}x  "
               f"{'identical' if r['identical'] else 'MISMATCH'}")
    report(f"headline: {headline['workload']} {headline['speedup']:.2f}x "
           f"(threshold {SPEEDUP_MIN}x)")
    report(f"[BENCH_rtl.json written to {os.path.abspath(BENCH_PATH)}]")

    for r in rows:
        assert r["identical"], f"{r['workload']}: backends diverged"
    assert headline["speedup"] >= SPEEDUP_MIN, (
        f"compiled backend only {headline['speedup']}x on "
        f"{headline['workload']} (needs ≥{SPEEDUP_MIN}x)")


def test_winograd_ladder(report):
    """Modeled cycle reduction of the Winograd kernel pair over the
    software reference kernels on the MNV2 ladder workloads."""
    model = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    system = Soc(ARTY_A7_35T, VexRiscvConfig()).system_config()
    reference = reference_variants()
    accelerated = reference_variants().extended(*winograd_variants())

    rows = []
    for opcode, label in (("DEPTHWISE_CONV_2D", "depthwise-3x3"),
                          ("CONV_2D", "pointwise-1x1")):
        software = hardware = 0
        layers = 0
        for op in model.operators:
            if op.opcode != opcode:
                continue
            variant = accelerated.select(op, model)
            if variant is None or not variant.name.startswith("winograd"):
                continue
            software += reference.select(op, model).cycles(op, model, system)
            hardware += variant.cycles(op, model, system)
            layers += 1
        rows.append({
            "workload": label,
            "layers": layers,
            "software_cycles": round(software),
            "winograd_cycles": round(hardware),
            "speedup": round(software / hardware, 2),
        })
    worst = min(rows, key=lambda r: r["speedup"])
    payload = {
        "winograd": {
            "generated_by": "benchmarks/bench_rtl_throughput.py",
            "model": "mobilenet_v2 (width 0.75)",
            "workloads": rows,
            "headline": {
                "description": ("min modeled cycle reduction of the Winograd "
                                "CFU kernel pair over the software reference "
                                "kernels on the MNV2 ladder workloads"),
                "workload": worst["workload"],
                "speedup": worst["speedup"],
                "threshold": WINOGRAD_MIN,
                "passed": worst["speedup"] >= WINOGRAD_MIN,
            },
        },
    }
    merge_preserve(BENCH_PATH, payload)

    report("Winograd ladder: modeled cycles vs the software kernels (MNV2)")
    report(f"{'workload':<15} {'layers':>6} {'software cyc':>14} "
           f"{'winograd cyc':>14} {'speedup':>8}")
    for r in rows:
        report(f"{r['workload']:<15} {r['layers']:>6} "
               f"{r['software_cycles']:>14,} {r['winograd_cycles']:>14,} "
               f"{r['speedup']:>7.2f}x")
    report(f"headline: {worst['workload']} {worst['speedup']:.2f}x "
           f"(threshold {WINOGRAD_MIN}x)")
    report(f"[BENCH_rtl.json winograd section written to "
           f"{os.path.abspath(BENCH_PATH)}]")

    for r in rows:
        assert r["layers"] > 0, f"{r['workload']}: no qualifying layers"
        assert r["speedup"] >= WINOGRAD_MIN, (
            f"winograd only {r['speedup']}x on {r['workload']} "
            f"(needs ≥{WINOGRAD_MIN}x)")
