"""Section II-E: full-inference golden tests for the bundled models.

"The menu-driven software contains ... full-inference golden tests, with
set inputs and expected outputs for each provided model.  CFU Playground
comes packaged with stock models from MLPerf Tiny workloads."
"""

import pytest

from repro.core.golden import golden_checksum, golden_input, run_golden_inference
from repro.kernels.conv1x1 import OverlapInput
from repro.kernels.kws import kws_variants
from repro.kernels.reference import reference_variants
from repro.models import ZOO, load
from repro.tflm import Interpreter, plan_arena

MODEL_KWARGS = {
    "mobilenet_v2": {"width_multiplier": 0.35, "num_classes": 10},
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_models_golden(report, name):
    model = load(name, **MODEL_KWARGS.get(name, {}))
    x = golden_input(model)
    interpreter = Interpreter(model)
    interpreter.invoke(x)

    checksum = golden_checksum(model)
    plan = plan_arena(model)
    report(f"model: {model.name}")
    report(f"  operators: {len(model.operators)}  MACs: {model.total_macs():,}")
    report(f"  weights: {model.weights_bytes():,} B  "
           f"arena: {plan.arena_bytes:,} B (reuse {plan.reuse_factor:.2f}x)")
    report(f"  golden checksum: {checksum}")
    assert checksum == golden_checksum(load(name, **MODEL_KWARGS.get(name, {})))


def test_golden_with_optimized_kernels(report):
    """Optimized-kernel inference must match the golden outputs exactly."""
    kws = load("dscnn_kws")
    variants = reference_variants().extended(
        *kws_variants(postproc=True, specialized=True))
    run_golden_inference(kws, variants)
    report("dscnn_kws golden PASS with CFU2 kernel variants")

    mnv2 = load("mobilenet_v2", width_multiplier=0.35, num_classes=10)
    variants = reference_variants().extended(OverlapInput())
    run_golden_inference(mnv2, variants)
    report("mobilenet_v2 golden PASS with CFU1 kernel variants")
