"""RTL simulation throughput: compiled backend vs the reference interpreter.

Golden-test-style op sequences run through :class:`RtlCfuAdapter` on
every shipped gateware CFU, once with ``backend="interp"`` (the fixpoint
interpreter) and once with ``backend="compiled"`` (the scheduled,
code-generated netlist), :data:`REPEATS` times interleaved.  Every
repeat builds fresh CFUs: per-funct3 call counts live on the cached
``CompiledProgram``, so reusing one module would carry a funct3 past
``SPECIALIZE_AFTER``.  The ``throughput`` section of ``BENCH_rtl.json``
gates each CFU's median compiled-over-interpreter ratio (bar 5x), with
results and cycle counts bit-equal in every repeat; beside the rows sit
the median repeat's CFU ops/sec and simulated cycles/sec per workload.

The winograd ladder test writes the ``winograd`` section of the same
file: the modeled cycle reduction of the Winograd kernel pair over the
software reference kernels on the MNV2 ladder workloads (bar 5x).
"""

import random
import time

from common import REPEATS, check, median_run, row, write_section

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

OPS = 400               # ops per CFU workload, so at most 400 per funct3
SPEEDUP_MIN = 5.0       # compiled vs interpreter, every CFU
WINOGRAD_MIN = 5.0      # modeled cycle reduction, both ladder workloads


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
    repeats = [measure() for _ in range(REPEATS)]
    rows, workloads, broken = [], [], []
    for runs in zip(*repeats):
        name = runs[0]["workload"]
        workloads.append(median_run(runs, "speedup"))
        rows.append(row(f"{name} compiled vs interpreter", "ratio", "higher",
                        [r["speedup"] for r in runs], SPEEDUP_MIN))
        if not all(r["identical"] for r in runs):
            broken.append(f"{name}: backends diverged")
    write_section("rtl", "throughput", rows, ops=OPS, workloads=workloads)

    report(f"RTL simulation throughput (ops={OPS}, median of {REPEATS})")
    report(f"{'workload':<15} {'levels':>6} {'interp c/s':>11} "
           f"{'compiled c/s':>13} {'speedup':>8}  results")
    for r in workloads:
        report(f"{r['workload']:<15} {r['comb_levels']:>6} "
               f"{r['interp']['cycles_per_second']:>11,} "
               f"{r['compiled']['cycles_per_second']:>13,} "
               f"{r['speedup']:>7.2f}x  "
               f"{'identical' if r['identical'] else 'MISMATCH'}")
    check(report, rows, broken)


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
    gated = [row(f"{r['workload']} winograd vs software cycles", "ratio",
                 "higher", [r["speedup"]], WINOGRAD_MIN) for r in rows]
    write_section("rtl", "winograd", gated,
                  model="mobilenet_v2 (width 0.75)", workloads=rows)

    report("Winograd ladder: modeled cycles vs the software kernels (MNV2)")
    report(f"{'workload':<15} {'layers':>6} {'software cyc':>14} "
           f"{'winograd cyc':>14} {'speedup':>8}")
    for r in rows:
        report(f"{r['workload']:<15} {r['layers']:>6} "
               f"{r['software_cycles']:>14,} {r['winograd_cycles']:>14,} "
               f"{r['speedup']:>7.2f}x")
    check(report, gated, [f"{r['workload']}: no qualifying layers"
                          for r in rows if not r["layers"]])
