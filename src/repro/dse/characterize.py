"""CFU latency-envelope characterization from the gateware.

The Fig. 7 cost model prices every CFU op with a single latency number;
this module measures the real envelope from the gateware instead: every
(opcode, operand-class) pair runs on a freshly reset
:class:`~repro.cfu.RtlCfuAdapter`, and the envelope reports min/mean/max
cycles per opcode per operand class.

Exposed on the CLI as ``repro dse characterize <cfu>``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..cfu import RtlCfuAdapter

#: Operand classes swept by default: each maps a name to a
#: ``callable(rng) -> (a, b)`` drawing one 32-bit operand pair.  Data-
#: dependent datapaths (early-out multipliers, saturation paths,
#: zero-skip accumulators) show up as spread between classes.
OPERAND_CLASSES = {
    "zeros": lambda rng: (0, 0),
    "ones": lambda rng: (0xFFFFFFFF, 0xFFFFFFFF),
    "alternating": lambda rng: (0x55555555, 0xAAAAAAAA),
    "small": lambda rng: (rng.getrandbits(8), rng.getrandbits(8)),
    "signed-extremes": lambda rng: (rng.choice((0x80000000, 0x7FFFFFFF)),
                                    rng.choice((0x80000000, 0x7FFFFFFF))),
    "random": lambda rng: (rng.getrandbits(32), rng.getrandbits(32)),
}


@dataclass
class ClassProfile:
    """Measured latency of one (opcode, operand class) pair."""

    funct3: int
    funct7: int
    operand_class: str
    ops: int
    min_cycles: int
    max_cycles: int
    total_cycles: int

    @property
    def mean_cycles(self):
        return self.total_cycles / self.ops if self.ops else 0.0

    @property
    def opcode(self):
        return (self.funct3, self.funct7)

    def to_record(self):
        return {"funct3": self.funct3, "funct7": self.funct7,
                "operand_class": self.operand_class, "ops": self.ops,
                "min_cycles": self.min_cycles,
                "max_cycles": self.max_cycles,
                "mean_cycles": self.mean_cycles}


@dataclass
class LatencyEnvelope:
    """The characterization result: one :class:`ClassProfile` per
    (opcode, operand class) pair, or lane."""

    cfu_name: str
    lanes: int
    ops_per_lane: int
    profiles: list = field(default_factory=list)

    def per_opcode(self):
        """``{(funct3, funct7): (min, max)}`` across all operand classes."""
        envelope = {}
        for profile in self.profiles:
            lo, hi = envelope.get(profile.opcode,
                                  (profile.min_cycles, profile.max_cycles))
            envelope[profile.opcode] = (min(lo, profile.min_cycles),
                                        max(hi, profile.max_cycles))
        return envelope

    @property
    def data_dependent(self):
        """True if any opcode's latency varies with its operands."""
        return any(lo != hi for lo, hi in self.per_opcode().values())

    def to_record(self):
        return {"cfu": self.cfu_name, "lanes": self.lanes,
                "ops_per_lane": self.ops_per_lane,
                "data_dependent": self.data_dependent,
                "profiles": [p.to_record() for p in self.profiles]}

    def summary(self):
        lines = [f"{self.cfu_name}: {self.lanes} lanes, "
                 f"{self.ops_per_lane} ops/lane"]
        for (f3, f7), (lo, hi) in sorted(self.per_opcode().items()):
            spread = f"{lo}" if lo == hi else f"{lo}..{hi}"
            lines.append(f"  cfu[{f7},{f3}]: {spread} cycles")
            for profile in self.profiles:
                if profile.opcode != (f3, f7):
                    continue
                lines.append(
                    f"    {profile.operand_class:16s} "
                    f"min {profile.min_cycles:>3} "
                    f"max {profile.max_cycles:>3} "
                    f"mean {profile.mean_cycles:6.2f}")
        return "\n".join(lines)


def characterize_cfu(rtl_cfu, opcodes, classes=None, ops=16, seed=0,
                     setup=None, timeout=4096):
    """Measure ``rtl_cfu``'s latency envelope.

    ``opcodes`` is a list of ``(funct3, funct7)`` pairs; ``classes``
    maps class names to operand generators (default
    :data:`OPERAND_CLASSES`).  Each (opcode, class) pair is one lane,
    run on a freshly reset adapter: ``ops`` back-to-back ops of that
    opcode with operands drawn from the class generator, optionally
    preceded by ``setup(rng)`` — a list of ``(funct3, funct7, a, b)``
    config ops for stateful CFUs (excluded from the measurement).  Lane
    stimulus depends only on ``(seed, opcode, class name)``, so
    envelopes are reproducible and independent of lane ordering.

    Returns a :class:`LatencyEnvelope`.
    """
    classes = OPERAND_CLASSES if classes is None else classes
    lane_specs = [(opcode, name) for opcode in opcodes for name in classes]
    if not lane_specs:
        raise ValueError("need at least one opcode and one operand class")
    adapter = RtlCfuAdapter(rtl_cfu, timeout=timeout)
    profiles = []
    for (funct3, funct7), name in lane_specs:
        rng = random.Random(f"{seed}:{funct3}:{funct7}:{name}")
        adapter.reset()
        for op in (setup(rng) if setup else ()):
            adapter.execute(*op)
        generate = classes[name]
        cycles = []
        for _ in range(ops):
            a, b = generate(rng)
            cycles.append(adapter.execute(funct3, funct7, a, b)[1])
        profiles.append(ClassProfile(
            funct3=funct3, funct7=funct7, operand_class=name, ops=ops,
            min_cycles=min(cycles), max_cycles=max(cycles),
            total_cycles=sum(cycles)))
    return LatencyEnvelope(cfu_name=rtl_cfu.name, lanes=len(lane_specs),
                           ops_per_lane=ops, profiles=profiles)


@dataclass
class CharacterizationTarget:
    """A named CFU ready to characterize: factory, opcodes, and the
    (optional) config prefix its stateful ops need."""

    factory: object
    opcodes: tuple
    setup: object = None


def characterization_targets():
    """CFUs addressable from ``repro dse characterize``, by name: the
    generic library plus the paper's workload CFUs."""
    from ..accel import Cfu1Rtl, KwsCfu2Rtl, Mac4Rtl, PostprocRtl
    from ..accel.kws import model as km
    from ..accel.library import LIBRARY
    from ..accel.mnv2 import model as cm

    targets = {}
    for name, (_model_cls, rtl_cls, opcodes) in LIBRARY.items():
        targets[name] = CharacterizationTarget(rtl_cls, tuple(opcodes))

    def kws_setup(rng):
        return [
            (km.F3_CONFIG, km.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0),
            (km.F3_CONFIG, km.CFG_SHIFT, -7 & 0xFFFFFFFF, 0),
            (km.F3_CONFIG, km.CFG_OUTPUT, (-10) & 0xFFFFFFFF,
             0x80 | (0x7F << 8)),
        ]

    targets["kws-cfu2"] = CharacterizationTarget(
        KwsCfu2Rtl,
        ((km.F3_MAC4, 0), (km.F3_MAC4, 1), (km.F3_MAC1, 0),
         (km.F3_POSTPROC, 0), (km.F3_READ_ACC, 0)),
        kws_setup)
    targets["mnv2-mac4"] = CharacterizationTarget(
        Mac4Rtl, ((cm.F3_MAC4, 0), (cm.F3_MAC4, 1)))

    def postproc_setup(rng):
        ops = []
        for _ in range(8):
            ops.append((cm.F3_CONFIG, cm.CFG_BIAS,
                        rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
            ops.append((cm.F3_CONFIG, cm.CFG_MULT,
                        rng.randrange(1 << 30, 1 << 31), 0))
            ops.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                        -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
        ops.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                    0x80 | (0x7F << 8)))
        return ops

    targets["mnv2-postproc"] = CharacterizationTarget(
        lambda: PostprocRtl(channels=8), ((cm.F3_POSTPROC, 0),),
        postproc_setup)

    def cfu1_setup(rng, depth=4, channels=8):
        # Mirrors the throughput benchmark's warm-up: depth + per-channel
        # requantize config, then full filter/input stores so RUN ops
        # stream from loaded memories.
        ops = [(cm.F3_CONFIG, cm.CFG_DEPTH, depth, 0)]
        for _ in range(channels):
            ops.append((cm.F3_CONFIG, cm.CFG_BIAS,
                        rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
            ops.append((cm.F3_CONFIG, cm.CFG_MULT,
                        rng.randrange(1 << 30, 1 << 31), 0))
            ops.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                        -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
        ops.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                    0x80 | (0x7F << 8)))
        for _ in range(channels * depth):
            ops.append((cm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
        ops.append((cm.F3_WRITE_INPUT, 1, rng.getrandbits(32), 0))
        for _ in range(depth - 1):
            ops.append((cm.F3_WRITE_INPUT, 0, rng.getrandbits(32), 0))
        return ops

    targets["mnv2-cfu1"] = CharacterizationTarget(
        Cfu1Rtl,
        ((cm.F3_RUN1, cm.RUN_RAW), (cm.F3_RUN1, cm.RUN_POSTPROC),
         (cm.F3_RUN1, cm.RUN_PACK4)),
        cfu1_setup)
    return targets
