"""Builder, interpreter, and arena planner tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tflm import Interpreter, ModelBuilder, plan_arena, tensor_lifetimes
from repro.tflm.interpreter import reference_registry


def tiny_model(seed=0):
    b = ModelBuilder("tiny", seed=seed)
    b.input((1, 8, 8, 4))
    b.conv2d(8, 1, name="pw")
    b.depthwise_conv2d((3, 3), stride=2, name="dw")
    b.conv2d(8, 3, relu=False, name="c3")
    b.average_pool(name="gap")
    b.reshape((1, 8), name="flat")
    b.fully_connected(5, name="fc")
    b.softmax(name="sm")
    return b.build()


def test_builder_produces_valid_graph():
    model = tiny_model()
    assert len(model.operators) == 7
    assert model.input.shape == (1, 8, 8, 4)
    assert model.output.shape == (1, 5)
    assert model.total_macs() > 0


def test_builder_is_deterministic():
    m1, m2 = tiny_model(seed=3), tiny_model(seed=3)
    x = np.zeros((1, 8, 8, 4), dtype=np.int8)
    assert np.array_equal(Interpreter(m1).invoke(x), Interpreter(m2).invoke(x))


def test_different_seeds_differ():
    m1, m2 = tiny_model(seed=1), tiny_model(seed=2)
    t1 = m1.tensor("pw_filters").data
    t2 = m2.tensor("pw_filters").data
    assert not np.array_equal(t1, t2)


def test_interpreter_output_matches_builder_sample():
    """The builder's propagated sample must equal a real inference on the
    same input at every operator — the calibration path and the runtime
    path agree.  The graph build draws no sample; the numeric pass
    draws them all."""
    b = ModelBuilder("check", seed=9)
    b.input((1, 6, 6, 3))
    b.conv2d(4, 3, name="c")
    entry = b.tip
    b.depthwise_conv2d(name="d")
    b.add(entry, relu=True, name="res")
    b.max_pool(2, name="mp")
    b.mean_hw(name="mean")
    b.reshape((1, 4), name="r")
    b.fully_connected(5, name="fc")
    b.softmax(name="sm")
    model = b.build()
    assert b.samples == {}
    model.prepare()
    sample_in = b.samples["input"].copy()
    outputs = {}
    Interpreter(model, listeners=[
        lambda op, inputs, output: outputs.update({op.outputs[0]: output}),
    ]).invoke(sample_in)
    assert set(outputs) == {op.outputs[0] for op in model.operators}
    for name, output in outputs.items():
        assert np.array_equal(output, b.samples[name]), name


def test_interpreter_rejects_bad_shape():
    model = tiny_model()
    with pytest.raises(ValueError):
        Interpreter(model).invoke(np.zeros((1, 4, 4, 4), dtype=np.int8))


def test_listener_sees_every_op():
    model = tiny_model()
    seen = []
    interp = Interpreter(model, listeners=[lambda op, i, o: seen.append(op.name)])
    interp.invoke(np.zeros((1, 8, 8, 4), dtype=np.int8))
    assert seen == [op.name for op in model.operators]


def test_registry_override():
    model = tiny_model()
    registry = reference_registry().copy()
    calls = []
    base = registry.lookup("CONV_2D")

    def spy(op, inputs, mdl):
        calls.append(op.name)
        return base(op, inputs, mdl)

    registry.register("CONV_2D", spy)
    Interpreter(model, registry=registry).invoke(
        np.zeros((1, 8, 8, 4), dtype=np.int8))
    assert calls == ["pw", "c3"]


def test_residual_add_model():
    b = ModelBuilder("residual", seed=5)
    b.input((1, 4, 4, 8))
    entry = b.tip
    b.conv2d(8, 1, name="c1")
    b.add(entry, name="res")
    model = b.build()
    out = Interpreter(model).invoke(np.zeros((1, 4, 4, 8), dtype=np.int8))
    assert out.shape == (1, 4, 4, 8)


# --- arena planner ---------------------------------------------------------------

def test_lifetimes_cover_uses():
    model = tiny_model()
    lifetimes = tensor_lifetimes(model)
    assert lifetimes["input"][0] == 0
    out_name = model.output_names[0]
    assert lifetimes[out_name][1] == len(model.operators)


def test_arena_allocations_never_overlap():
    model = tiny_model()
    plan = plan_arena(model)
    for a in plan.allocations:
        for b in plan.allocations:
            if a is b:
                continue
            lifetime_overlap = not (a.last_use < b.first_use
                                    or b.last_use < a.first_use)
            space_overlap = a.offset < b.end and b.offset < a.end
            assert not (lifetime_overlap and space_overlap), (a, b)


def test_arena_reuses_memory():
    model = tiny_model()
    plan = plan_arena(model)
    assert plan.arena_bytes < plan.sum_of_sizes
    assert plan.reuse_factor > 1.0


def test_arena_alignment():
    model = tiny_model()
    plan = plan_arena(model, alignment=16)
    for alloc in plan.allocations:
        assert alloc.offset % 16 == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 50), depth=st.integers(1, 4))
def test_arena_overlap_property(seed, depth):
    """Property: for random small graphs, the planner never double-books
    bytes for temporally-overlapping tensors."""
    b = ModelBuilder(f"prop{seed}", seed=seed)
    b.input((1, 8, 8, 2))
    rng = np.random.default_rng(seed)
    for i in range(depth):
        if rng.random() < 0.5:
            b.conv2d(int(rng.integers(2, 6)), 1, name=f"c{i}")
        else:
            b.depthwise_conv2d(name=f"d{i}")
    model = b.build()
    plan = plan_arena(model)
    for a in plan.allocations:
        for other in plan.allocations:
            if a is other:
                continue
            if not (a.last_use < other.first_use or other.last_use < a.first_use):
                assert a.end <= other.offset or other.end <= a.offset
