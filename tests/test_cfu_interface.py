"""CFU interface tests: cfu_op macro, NullCfu, adapter protocol."""

import pytest

from repro.cfu import (
    CfuError,
    CfuModel,
    CombinationalCfu,
    NullCfu,
    RtlCfuAdapter,
    cfu_op,
    make_cfu_macro,
    random_sequence,
    run_sequence,
)
from repro.rtl import Cat


class Doubler(CfuModel):
    name = "doubler"

    def op(self, funct3, funct7, a, b):
        return (a + b) * 2


class DoublerRtl(CombinationalCfu):
    name = "doubler"

    def datapath(self, m, ports):
        return ((ports.cmd_in0 + ports.cmd_in1) << 1)[0:32]


def test_cfu_op_macro():
    cfu = Doubler()
    assert cfu_op(cfu, 0, 0, 3, 4) == 14


def test_make_cfu_macro_binds_opcode():
    calls = []

    class Spy(CfuModel):
        def op(self, funct3, funct7, a, b):
            calls.append((funct3, funct7))
            return 0

    simd_add = make_cfu_macro(Spy(), funct3=3, funct7=1)
    simd_add(1, 2)
    assert calls == [(3, 1)]  # "#define simd_add(a,b) cfu_op(1, 3, ...)"


def test_result_masked_to_32_bits():
    class Big(CfuModel):
        def op(self, funct3, funct7, a, b):
            return 1 << 40

    result, _ = Big().execute(0, 0, 0, 0)
    assert result == 0


def test_null_cfu_rejects():
    with pytest.raises(CfuError):
        cfu_op(NullCfu(), 0, 0, 1, 2)


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_rtl_adapter_matches_model(backend):
    report = run_sequence(RtlCfuAdapter(DoublerRtl(), backend=backend),
                          Doubler(),
                          random_sequence([(0, 0)], count=30, seed=4))
    assert report.passed


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_adapter_reports_single_cycle_for_comb(backend):
    adapter = RtlCfuAdapter(DoublerRtl(), backend=backend)
    _, cycles = adapter.execute(0, 0, 5, 6)
    assert cycles == 1


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_adapter_reset_clears_state(backend):
    from repro.accel import Mnv2Cfu
    from repro.accel.mnv2.rtl import Mac4Rtl

    adapter = RtlCfuAdapter(Mac4Rtl(), backend=backend)
    adapter.execute(5, 1, 0x01010101, 0x01010101)  # acc = 4
    adapter.reset()
    result, _ = adapter.execute(5, 0, 0, 0)  # accumulate nothing
    assert result == 0


def test_random_sequence_deterministic():
    a = random_sequence([(0, 0), (1, 2)], count=10, seed=9)
    b = random_sequence([(0, 0), (1, 2)], count=10, seed=9)
    assert a == b


def test_golden_mismatch_reported():
    class Wrong(CfuModel):
        def op(self, funct3, funct7, a, b):
            return (a + b) * 2 + 1

    report = run_sequence(DoublerRtl(), Wrong(),
                          random_sequence([(0, 0)], count=5, seed=1))
    assert not report.passed
    assert len(report.mismatches) == 5
    assert "cfu[0,0]" in str(report.mismatches[0])
