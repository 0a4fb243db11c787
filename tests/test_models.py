"""Model zoo tests: topology, op mixes, golden stability."""

import hashlib
import pickle
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core.golden import golden_checksum, golden_input
from repro.models import (
    ZOO,
    build_autoencoder_ad,
    build_dscnn_kws,
    build_mobilenet_v1_vww,
    build_mobilenet_v2,
    build_resnet8_ic,
    conv_1x1_ops,
    load,
)
from repro.tflm import Interpreter
from repro.tflm.ops import conv as conv_ops
from repro.tflm.ops import dense as dense_ops
from repro.tflm.ops import depthwise as dw_ops


@pytest.fixture(scope="module")
def mnv2():
    return load("mobilenet_v2", width_multiplier=0.75, num_classes=100)


@pytest.fixture(scope="module")
def kws():
    return load("dscnn_kws")


def test_zoo_load_caches(mnv2):
    again = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    assert again is mnv2


def test_zoo_unknown_model():
    with pytest.raises(KeyError):
        load("resnet152")


def test_mnv2_topology(mnv2):
    assert mnv2.input.shape == (1, 96, 96, 3)
    assert mnv2.output.shape == (1, 100)
    opcodes = {op.opcode for op in mnv2.operators}
    assert {"CONV_2D", "DEPTHWISE_CONV_2D", "ADD", "MEAN",
            "FULLY_CONNECTED", "SOFTMAX"} <= opcodes
    # 17 inverted-residual blocks plus stem/head.
    assert sum(1 for op in mnv2.operators
               if op.opcode == "DEPTHWISE_CONV_2D") == 17


def test_mnv2_1x1_convs_dominate_macs(mnv2):
    ops_1x1 = conv_1x1_ops(mnv2)
    macs_1x1 = sum(op.macs for op in ops_1x1)
    assert len(ops_1x1) > 30
    assert macs_1x1 / mnv2.total_macs() > 0.6


def test_mnv2_residual_structure(mnv2):
    adds = [op for op in mnv2.operators if op.opcode == "ADD"]
    assert len(adds) == 10  # MNV2 has 10 identity residuals


def test_kws_topology(kws):
    assert kws.input.shape == (1, 49, 10, 1)
    assert kws.output.shape == (1, 12)
    dw = [op for op in kws.operators if op.opcode == "DEPTHWISE_CONV_2D"]
    assert len(dw) == 4
    assert 2_000_000 < kws.total_macs() < 4_000_000  # MLPerf Tiny DS-CNN scale
    assert kws.weights_bytes() < 60_000              # fits Fomu flash budget


def test_resnet8_topology():
    model = build_resnet8_ic()
    assert model.input.shape == (1, 32, 32, 3)
    assert model.output.shape == (1, 10)
    assert sum(1 for op in model.operators if op.opcode == "ADD") == 3


def test_autoencoder_topology():
    model = build_autoencoder_ad()
    assert model.input.shape == (1, 640)
    assert model.output.shape == (1, 640)
    assert all(op.opcode == "FULLY_CONNECTED" for op in model.operators)
    assert len(model.operators) == 10


def test_vww_topology():
    model = build_mobilenet_v1_vww()
    assert model.output.shape == (1, 2)
    assert sum(1 for op in model.operators
               if op.opcode == "DEPTHWISE_CONV_2D") == 13


def test_full_inference_runs(kws):
    out = Interpreter(kws).invoke(golden_input(kws))
    assert out.shape == (1, 12)
    assert out.dtype == np.int8


def test_golden_checksums_stable():
    """Two builds in one process give the same golden checksum (the
    pinned digests below catch numerics changes across commits)."""
    kws = build_dscnn_kws()
    first = golden_checksum(kws)
    second = golden_checksum(build_dscnn_kws())
    assert first == second


def _feed(hasher, value):
    """Hash ``value`` canonically: arrays by dtype, shape and bytes,
    floats by their exact hex form, containers element by element."""
    if isinstance(value, np.ndarray):
        hasher.update(f"{value.dtype.str}{value.shape}".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            _feed(hasher, (key, value[key]))
    elif isinstance(value, (tuple, list)):
        hasher.update(b"(%d" % len(value))
        for item in value:
            _feed(hasher, item)
    else:
        if isinstance(value, np.generic):
            value = value.item()
        text = value.hex() if isinstance(value, float) else repr(value)
        hasher.update(text.encode() + b";")


def model_digest(model):
    """SHA-256 over everything a build freezes: constant tensor bytes,
    quantization, channel scales and operator params."""
    hasher = hashlib.sha256()
    for name, tensor in model.tensors.items():
        _feed(hasher, (name, tensor.shape, np.dtype(tensor.dtype).str,
                       tensor.quant.scale, tensor.quant.zero_point,
                       tensor.is_constant))
        for array in (tensor.channel_scales, tensor.data):
            if array is not None:
                _feed(hasher, array)
    for op in model.operators:
        _feed(hasher, (op.opcode, op.name, op.inputs, op.outputs, op.params))
    _feed(hasher, (model.input_names, model.output_names))
    return hasher.hexdigest()


def inference_digest(model):
    """SHA-256 over every operator output of one golden inference."""
    hasher = hashlib.sha256()

    def listener(op, inputs, output):
        _feed(hasher, (op.name, output))

    Interpreter(model, listeners=[listener]).invoke(golden_input(model))
    return hasher.hexdigest()


# (model digest, inference digest) per zoo build, generated before the
# exact float64 GEMM and the single-pass calibration, which left them
# unchanged.  A digest that moves means the zoo's numerics changed.
PINNED_DIGESTS = {
    ("mobilenet_v2", ()): (
        "ce9d8cc94adf45a80405274d55574cb368438842f5d0e298d8a8ddcc38e9a36b",
        "7ef334b1780346ee778d08abfae4a4db5aa42b0e11fbfb6090b9d316811c9a8e"),
    ("mobilenet_v2", (("width_multiplier", 0.75), ("num_classes", 100))): (
        "a7f3de9c6c680ca9ab60eb0030f66bc7f7ccd89edbf6e0f0d81c90c7504394d5",
        "cf4d8927be482d09e114c03ead08dbdca70bb62deeab361fd0f5a6477fb978b0"),
    ("dscnn_kws", ()): (
        "53c83092987fa45db6258d1b0a34e2fd5467d3defc2d35c2aac280bbcc24fb3e",
        "d274b257a06be654a358d7fa0c7e06d2496e0c902d5a136f168a3f93d04b3536"),
    ("resnet8_ic", ()): (
        "ecceb5c1ff82d520367f1210d7b8b54480a4a77cf98cde617c6ae0efc9b1f0eb",
        "8c9a2233f9b195dff313695cb9c9a8db6542ed00c9798e61e9fe2f55de9ed3e6"),
    ("autoencoder_ad", ()): (
        "1b74f55e281049398008644a0ff2141e24509d1cf60a43e95a42e0107148f4b0",
        "4eeb68a3a21e1c9ae07cde933bee2a42c2915f63bc9947ee0669ebf7b942c8c1"),
    ("mobilenet_v1_vww", ()): (
        "e1cfe1b5795f1eb3b4975c66efa1ce85aac3233cdc57bef29034090b5debdefe",
        "4f03f75a443ddb844a747480b6697ebb37831e4ae69c1038d73c82b42adc3200"),
}


@pytest.mark.parametrize(
    "name,kwargs", list(PINNED_DIGESTS),
    ids=["-".join([name] + [str(v) for _, v in kwargs])
         for name, kwargs in PINNED_DIGESTS])
def test_zoo_numerics_pinned(name, kwargs):
    model = ZOO[name](**dict(kwargs))
    assert (model_digest(model), inference_digest(model)) == \
        PINNED_DIGESTS[name, kwargs]


def count_accumulates(monkeypatch):
    """A Counter of calls to the three int8 accumulates, by name."""
    calls = Counter()
    for module, name in ((conv_ops, "conv2d_accumulate"),
                         (dw_ops, "depthwise_accumulate"),
                         (dense_ops, "fully_connected_accumulate")):
        def counted(*args, _name=name, _kernel=getattr(module, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def one_pass(model):
    """The accumulates of one numeric pass over ``model``: one per layer."""
    layers = Counter(op.opcode for op in model.operators)
    return Counter({"conv2d_accumulate": layers["CONV_2D"],
                    "depthwise_accumulate": layers["DEPTHWISE_CONV_2D"],
                    "fully_connected_accumulate": layers["FULLY_CONNECTED"]})


def test_build_accumulates_each_layer_once(monkeypatch):
    """The graph build accumulates nothing.  The numeric pass that the
    first read of a number runs shares one accumulate per layer between
    calibration and the sample output, and a second read runs nothing."""
    calls = count_accumulates(monkeypatch)
    model = build_mobilenet_v2(width_multiplier=0.75, num_classes=100)
    assert not calls and not model.prepared
    assert model.operators[0].params["out_multipliers"].size == 24
    assert calls == one_pass(model) and model.prepared
    assert model.output.quant.scale > 0
    assert model.tensor("classifier_weights").data.shape == (100, 1280)
    assert calls == one_pass(model)


def test_build_traced_peak_is_bounded():
    """A cold MobileNetV2 numeric pass holds about one accumulator-sized
    temporary per layer: requantization runs in place on one copy and
    calibration reads integer extremes, not a float64 plane.  The bound
    sits between its ~6 MiB peak and the ~14.5 MiB that a copy per
    requantization step costs; the model itself keeps 2.5 MiB."""
    model = build_mobilenet_v2(width_multiplier=0.75, num_classes=100)
    assert not model.prepared
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        model.input.quant  # the first numeric read runs the pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert model.prepared
    assert peak - baseline < 8 * 2**20


@pytest.mark.parametrize("name,kwargs", [
    ("mobilenet_v2", (("width_multiplier", 0.75), ("num_classes", 100))),
    ("dscnn_kws", ()),
], ids=["mobilenet_v2-0.75-100", "dscnn_kws"])
def test_unprepared_model_pickles(name, kwargs):
    """WorkerPool's spawn fallback pickles the evaluator's model.  An
    unprepared model travels with its recorded steps, pickling prepares
    neither side, and the copy's numbers are the pinned ones."""
    model = ZOO[name](**dict(kwargs))
    copy = pickle.loads(pickle.dumps(model))
    assert not model.prepared and not copy.prepared
    assert (model_digest(copy), inference_digest(copy)) == \
        PINNED_DIGESTS[name, kwargs]


def test_first_reads_from_threads_run_one_pass(monkeypatch):
    """Threads that read their first number at once (more threads than
    cores, a short switch interval) share one pass and see the same
    numbers."""
    calls = count_accumulates(monkeypatch)
    model = build_mobilenet_v2(width_multiplier=0.75, num_classes=100)
    barrier = threading.Barrier(4, timeout=10)
    seen = []

    def read():
        barrier.wait()
        seen.append(model.output.quant)

    threads = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == one_pass(model)
    assert len(seen) == 4 and all(quant is seen[0] for quant in seen)


def test_width_multiplier_scales_macs():
    small = build_mobilenet_v2(width_multiplier=0.35, num_classes=10, seed=1)
    big = build_mobilenet_v2(width_multiplier=1.0, num_classes=10, seed=1)
    assert big.total_macs() > 3 * small.total_macs()


def test_model_summary_renders(kws):
    text = kws.summary()
    assert "dscnn_kws" in text
    assert "CONV_2D" in text
