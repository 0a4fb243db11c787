"""Cortex-M4 + CMSIS-NN comparator: the paper's KWS reference point.

Section III-B frames the whole study against this target: "We started
with a baseline that was 75x slower than CMSIS-NN hand optimized
kernels for Arm Cortex-M CPUs.  The goal was to make the cycle count for
our implementation comparable to such optimized kernels", and closes
with "The final optimized Fomu KWS results, if normalized for the
differing clock rates, are roughly comparable to the MLPerf Tiny results
for the much more complex Cortex-M4 with hand-optimized CMSIS-NN kernels
utilizing the M4 SIMD instructions."

This module models that comparator: a Cortex-M4-class MCU (single-cycle
32x32 multiplier, SMLAD dual 16-bit MAC, zero-wait-state flash via a
prefetch accelerator) running CMSIS-NN's int8 kernels.  Instruction
mixes follow the published CMSIS-NN structure: ``arm_convolve_s8``
im2col + 2x2 register-blocked GEMM with SMLAD (2 MACs/instruction),
``arm_depthwise_conv_s8`` per-channel tap loops, and the shared
``arm_nn_requantize`` epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Representative MLPerf Tiny class device (e.g. STM32F4 at 120 MHz).
CORTEX_M4_CLOCK_HZ = 120_000_000


@dataclass(frozen=True)
class CmsisNnTiming:
    """Per-structure cycle coefficients for CMSIS-NN int8 kernels."""

    #: Inner-loop cycles per MAC for conv GEMM (SMLAD: 2 MACs/cycle, plus
    #: loads amortized over register blocking).
    conv_cycles_per_mac: float = 1.9
    #: im2col gather cost per patch byte.
    im2col_cycles_per_byte: float = 1.3
    #: Depthwise is less SIMD-friendly: per-MAC cost stays high.
    dw_cycles_per_mac: float = 4.4
    #: Fully-connected: SMLAD over contiguous vectors.
    fc_cycles_per_mac: float = 1.2
    #: arm_nn_requantize + clamp + store per output element.
    requantize_cycles: float = 9.0
    #: Pooling / elementwise per element.
    simple_op_cycles: float = 3.0
    #: Per-operator dispatch overhead.
    per_op_overhead: float = 2500.0
    #: Per-inference runtime overhead.
    per_invoke_overhead: float = 40_000.0


def cmsis_nn_cycles(model, timing=None):
    """Estimated Cortex-M4 cycles for one int8 inference of ``model``."""
    timing = timing or CmsisNnTiming()
    total = timing.per_invoke_overhead
    for op in model.operators:
        total += timing.per_op_overhead
        out_tensor = model.tensor(op.outputs[0])
        outputs = out_tensor.num_elements
        if op.opcode == "CONV_2D":
            kh, kw = op.options.get("kernel", (1, 1))
            in_ch = model.tensor(op.inputs[0]).shape[-1]
            patch_bytes = kh * kw * in_ch
            pixels = outputs // out_tensor.shape[-1]
            total += op.macs * timing.conv_cycles_per_mac
            if (kh, kw) != (1, 1):
                total += pixels * patch_bytes * timing.im2col_cycles_per_byte
            total += outputs * timing.requantize_cycles
        elif op.opcode == "DEPTHWISE_CONV_2D":
            total += op.macs * timing.dw_cycles_per_mac
            total += outputs * timing.requantize_cycles
        elif op.opcode == "FULLY_CONNECTED":
            total += op.macs * timing.fc_cycles_per_mac
            total += outputs * timing.requantize_cycles
        else:
            total += outputs * timing.simple_op_cycles
    return total


@dataclass
class ComparisonRow:
    name: str
    cycles: float
    clock_hz: float

    @property
    def latency_ms(self):
        return 1000 * self.cycles / self.clock_hz


def compare_with_cmsis_nn(model, fomu_cycles, fomu_clock_hz=12_000_000,
                          timing=None):
    """The paper's closing comparison, normalized for clock rate.

    Returns ``(fomu_row, m4_row, normalized_ratio)`` where the ratio is
    Fomu cycles / M4 cycles (clock-independent work comparison — the
    normalization the paper applies).
    """
    m4_cycles = cmsis_nn_cycles(model, timing)
    fomu = ComparisonRow("Fomu VexRiscv+CFU2", fomu_cycles, fomu_clock_hz)
    m4 = ComparisonRow("Cortex-M4 CMSIS-NN", m4_cycles, CORTEX_M4_CLOCK_HZ)
    return fomu, m4, fomu_cycles / m4_cycles
