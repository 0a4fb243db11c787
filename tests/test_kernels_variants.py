"""Kernel-variant tests: selection, cycle ordering, golden equality."""

import numpy as np
import pytest

from repro.boards import ARTY_A7_35T
from repro.core.golden import run_golden_inference
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.kernels.api import VariantSet
from repro.kernels.conv1x1 import LADDER_VARIANTS, OverlapInput, SwSpecialized1x1
from repro.kernels.kws import kws_variants
from repro.kernels.reference import RefConv2D, reference_variants
from repro.models import load
from repro.soc import Soc
from repro.tflm import ModelBuilder


@pytest.fixture(scope="module")
def mnv2():
    return load("mobilenet_v2", width_multiplier=0.75, num_classes=100)


@pytest.fixture(scope="module")
def arty_system():
    return Soc(ARTY_A7_35T, ARTY_DEFAULT).system_config()


def conv_ops(model, one_by_one):
    return [op for op in model.operators
            if op.opcode == "CONV_2D"
            and (op.options.get("kernel") == (1, 1)) == one_by_one]


def test_1x1_variants_only_apply_to_1x1(mnv2):
    variant = SwSpecialized1x1()
    for op in conv_ops(mnv2, one_by_one=True):
        assert variant.applies_to(op, mnv2)
    for op in conv_ops(mnv2, one_by_one=False):
        assert not variant.applies_to(op, mnv2)


def test_variant_set_priority(mnv2):
    variants = reference_variants().extended(SwSpecialized1x1())
    op_1x1 = conv_ops(mnv2, True)[0]
    op_3x3 = conv_ops(mnv2, False)[0]
    assert variants.select(op_1x1, mnv2).name == "sw-1x1"
    assert variants.select(op_3x3, mnv2).name == "reference"


def test_variant_set_extended_does_not_mutate(mnv2):
    base = reference_variants()
    extended = base.extended(SwSpecialized1x1())
    op = conv_ops(mnv2, True)[0]
    assert base.select(op, mnv2).name == "reference"
    assert extended.select(op, mnv2).name == "sw-1x1"


def test_ladder_cycles_strictly_improve(mnv2, arty_system):
    """Every Fig. 4 rung must be faster than the previous on the 1x1 ops."""
    op = max(conv_ops(mnv2, True), key=lambda o: o.macs)
    baseline = RefConv2D().cycles(op, mnv2, arty_system)
    previous = baseline
    for variant_cls in LADDER_VARIANTS:
        if variant_cls.__name__ == "CfuHoldInp1x1":
            continue  # the paper's own regression step
        cycles = variant_cls().cycles(op, mnv2, arty_system)
        assert cycles < previous * 1.02, variant_cls.name
        previous = cycles
    assert baseline / previous > 30  # big cumulative win on the hot op


def test_hold_inp_is_a_wash(mnv2, arty_system):
    """'This canceled the speed up' — hold-inp is within a few percent
    of hold-filt, not an improvement."""
    from repro.kernels.conv1x1 import CfuHoldFilt1x1, CfuHoldInp1x1

    op = max(conv_ops(mnv2, True), key=lambda o: o.macs)
    filt = CfuHoldFilt1x1().cycles(op, mnv2, arty_system)
    inp = CfuHoldInp1x1().cycles(op, mnv2, arty_system)
    assert inp > filt


def test_final_variant_approaches_mac_bound(mnv2, arty_system):
    """Overlap-input runs 4 MACs/cycle: cycles/MAC must approach 0.25."""
    op = max(conv_ops(mnv2, True), key=lambda o: o.macs)
    cycles = OverlapInput().cycles(op, mnv2, arty_system)
    assert 0.25 <= cycles / op.macs < 0.45


def test_cfu_models_enumerated():
    variants = VariantSet(list(kws_variants(postproc=True)))
    models = variants.cfu_models()
    assert len(models) == 1  # both kernels share CFU2


def test_golden_inference_with_every_ladder_variant():
    """Full-inference golden test on a small model for each variant
    (compute defaults to the reference kernel: must be bit-exact)."""
    b = ModelBuilder("ladder-golden", seed=21)
    b.input((1, 6, 6, 8))
    b.conv2d(8, 1, name="pw1")
    b.depthwise_conv2d(name="dw")
    b.conv2d(12, 1, relu=False, name="pw2")
    model = b.build()
    for variant_cls in LADDER_VARIANTS:
        variants = reference_variants().extended(variant_cls())
        run_golden_inference(model, variants)


def test_golden_inference_with_kws_variants():
    kws = load("dscnn_kws")
    for flags in ((False, False), (True, False), (True, True)):
        variants = reference_variants().extended(
            *kws_variants(postproc=flags[0], specialized=flags[1]))
        run_golden_inference(kws, variants)


def test_kws_variant_cycles_ordering(arty_system):
    kws = load("dscnn_kws")
    conv = next(op for op in kws.operators if op.name == "pw_conv_1")
    plain = kws_variants()[0].cycles(conv, kws, arty_system)
    pp = kws_variants(postproc=True)[0].cycles(conv, kws, arty_system)
    sw = kws_variants(postproc=True, specialized=True)[0].cycles(
        conv, kws, arty_system)
    assert plain > pp > sw
