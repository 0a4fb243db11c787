"""Model-container serialization tests."""

import numpy as np
import pytest

from repro.core.golden import golden_input
from repro.models import load
from repro.tflm import (
    Interpreter,
    ModelBuilder,
    dump_model,
    load_model,
    load_model_file,
    save_model,
)
from repro.tflm.serialize import MAGIC, VERSION


def small_model(seed=0):
    b = ModelBuilder("ser-test", seed=seed)
    b.input((1, 6, 6, 4))
    b.conv2d(8, 3, name="c")
    b.depthwise_conv2d(name="d")
    b.average_pool(name="g")
    b.reshape((1, 8), name="r")
    b.fully_connected(5, name="fc")
    b.softmax(name="sm")
    return b.build()


def test_roundtrip_is_bit_exact():
    model = small_model()
    restored = load_model(dump_model(model))
    x = golden_input(model)
    assert np.array_equal(Interpreter(model).invoke(x),
                          Interpreter(restored).invoke(x))


def test_roundtrip_preserves_structure():
    model = small_model()
    restored = load_model(dump_model(model))
    assert restored.name == model.name
    assert [op.opcode for op in restored.operators] == \
        [op.opcode for op in model.operators]
    assert restored.total_macs() == model.total_macs()
    assert restored.weights_bytes() == model.weights_bytes()


def test_roundtrip_preserves_quantization():
    model = small_model()
    restored = load_model(dump_model(model))
    for name, tensor in model.tensors.items():
        other = restored.tensor(name)
        assert other.quant.scale == pytest.approx(tensor.quant.scale)
        assert other.quant.zero_point == tensor.quant.zero_point
        if tensor.channel_scales is not None:
            assert np.allclose(other.channel_scales, tensor.channel_scales)


def test_ndarray_params_roundtrip():
    model = small_model()
    restored = load_model(dump_model(model))
    conv = restored.operators[0]
    assert isinstance(conv.params["out_multipliers"], np.ndarray)
    assert conv.params["stride"] == (1, 1)
    assert conv.params["kernel"] == (3, 3)


def test_unprepared_model_dumps_the_bytes_of_a_prepared_one():
    """Dumping reads every number, so an unprepared model gives the same
    container (still version 1) as a prepared one.  A loaded model
    defers nothing and takes its operators' options from their params."""
    unprepared, prepared = small_model(), small_model().prepare()
    assert not unprepared.prepared and prepared.prepared
    blob = dump_model(unprepared)
    assert blob == dump_model(prepared)
    assert VERSION == 1
    assert blob[len(MAGIC):len(MAGIC) + 2] == VERSION.to_bytes(2, "little")
    restored = load_model(blob)
    assert restored.prepared
    for op, loaded in zip(prepared.operators, restored.operators):
        assert loaded.options == op.options and loaded.macs == op.macs


def test_file_roundtrip(tmp_path):
    model = small_model(seed=5)
    path = tmp_path / "model.rtflm"
    save_model(model, str(path))
    restored = load_model_file(str(path))
    x = golden_input(model)
    assert np.array_equal(Interpreter(model).invoke(x),
                          Interpreter(restored).invoke(x))


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        load_model(b"NOT_A_MODEL" + b"\x00" * 64)


def test_kws_model_roundtrips():
    model = load("dscnn_kws")
    restored = load_model(dump_model(model))
    x = golden_input(model)
    assert np.array_equal(Interpreter(model).invoke(x),
                          Interpreter(restored).invoke(x))


def test_container_size_tracks_weights():
    model = load("dscnn_kws")
    blob = dump_model(model)
    assert model.weights_bytes() < len(blob) < model.weights_bytes() * 3


@pytest.mark.parametrize("make", [
    lambda: load("mobilenet_v2", width_multiplier=0.75, num_classes=100),
    lambda: load("dscnn_kws"),
    small_model,
], ids=["mobilenet_v2", "dscnn_kws", "builder"])
def test_dump_load_dump_is_byte_identical(make):
    """A loaded model keeps its payload order, so re-saving it writes
    the container it was loaded from."""
    data = dump_model(make())
    assert dump_model(load_model(data)) == data
