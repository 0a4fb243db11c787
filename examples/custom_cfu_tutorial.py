"""Tutorial: design, verify, and deploy your own CFU.

The Section II developer experience end to end:

1. write a software emulation of the CFU (the functional spec);
2. write the gateware in the RTL DSL (the nMigen role);
3. golden-test gateware against emulation with random operations;
4. estimate FPGA resources (yosys role) and emit Verilog;
5. run a real RISC-V program that issues the custom instruction, on the
   SoC emulator (Renode role), with the CFU simulated cycle-accurately;
6. capture a VCD waveform of the CFU operating.

The CFU here computes a packed SIMD absolute-difference-accumulate
(useful for motion detection workloads): acc += sum(|a_i - b_i|).

Run:  python examples/custom_cfu_tutorial.py
"""

import os
import tempfile

from repro.boards import ARTY_A7_35T
from repro.cfu import CfuModel, RtlCfu, assert_equivalent
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator, capture_cfu_waveform
from repro.rtl import Mux, Signal, estimate
from repro.soc import Soc

F3_SAD = 0      # acc += sum(|a_i - b_i|); funct7=1 resets first
F3_READ = 1     # read the accumulator


class SadCfu(CfuModel):
    """Step 1: the software emulation (and test oracle)."""

    name = "simd-sad"

    def __init__(self):
        self.acc = 0

    def reset(self):
        self.acc = 0

    def op(self, funct3, funct7, a, b):
        if funct3 == F3_SAD:
            if funct7 == 1:
                self.acc = 0
            for lane in range(4):
                la = (a >> (8 * lane)) & 0xFF
                lb = (b >> (8 * lane)) & 0xFF
                self.acc = (self.acc + abs(la - lb)) & 0xFFFFFFFF
            return self.acc
        if funct3 == F3_READ:
            return self.acc
        raise ValueError(funct3)


class SadCfuRtl(RtlCfu):
    """Step 2: the gateware, in the RTL DSL."""

    name = "simd-sad"

    def elaborate(self, m, ports):
        acc = Signal(32, name="sad_acc")
        m.d.comb += ports.cmd_ready.eq(1)
        m.d.comb += ports.rsp_valid.eq(ports.cmd_valid)

        total = None
        for lane in range(4):
            a = ports.cmd_in0[8 * lane:8 * lane + 8]
            b = ports.cmd_in1[8 * lane:8 * lane + 8]
            diff = Mux(a >= b, (a - b)[0:8], (b - a)[0:8])
            total = diff if total is None else (total + diff)

        base = Mux(ports.cmd_funct7 == 1, 0, acc)
        new_acc = (base + total)[0:32]
        is_sad = ports.cmd_funct3 == F3_SAD
        with m.If(ports.cmd_valid & ports.rsp_ready & is_sad):
            m.d.sync += acc.eq(new_acc)
        m.d.comb += ports.rsp_out.eq(Mux(is_sad, new_acc, acc))


def main():
    print("== step 3: golden test (gateware vs emulation, 200 random ops) ==")
    report = assert_equivalent(SadCfuRtl(), SadCfu(),
                               opcodes=[(F3_SAD, 0), (F3_SAD, 1), (F3_READ, 0)],
                               count=200, seed=42)
    print(f"PASS: {report.total} operations, "
          f"{report.rtl_cycles} RTL cycles\n")

    print("== step 4: resources and Verilog ==")
    rtl = SadCfuRtl()
    print(f"estimate: {estimate(rtl.module)}")
    verilog = rtl.verilog()
    print(f"Verilog: {len(verilog.splitlines())} lines "
          f"(first 3 shown)")
    print("\n".join(verilog.splitlines()[:3]) + "\n")

    print("== step 5: run a program that uses the custom instruction ==")
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=SadCfuRtl())  # cycle-accurate co-simulation
    uart = soc.csr_bank.get("uart_rxtx").address
    emu.load_assembly(f"""
        li a1, 0x10203040
        li a2, 0x0F1F2F3F          # each lane differs by 1 -> SAD = 4
        cfu 1, {F3_SAD}, a0, a1, a2
        li a1, 0x00000000
        li a2, 0x05000000          # top lane differs by 5 -> acc = 9
        cfu 0, {F3_SAD}, a0, a1, a2
        cfu 0, {F3_READ}, a0, x0, x0
        addi t0, a0, 48            # '0' + acc
        li t5, {uart}
        sw t0, 0(t5)
        li a7, 93
        ecall
    """, region="main_ram")
    result = emu.run()
    print(f"program exit value: {result} (expected 9)")
    print(f"UART printed: {emu.uart_output!r} "
          f"(cycles: {emu.cycles})\n")
    assert result == 9

    print("== step 6: capture a waveform ==")
    vcd, _ = capture_cfu_waveform(
        SadCfuRtl(), [(F3_SAD, 1, 0x01010101, 0x03030303),
                      (F3_READ, 0, 0, 0)])
    path = os.path.join(tempfile.mkdtemp(prefix="simd_sad-"), "simd_sad.vcd")
    with open(path, "w") as handle:
        handle.write(vcd)
    print(f"VCD written to {path} ({len(vcd)} bytes) — open in GTKWave")


if __name__ == "__main__":
    main()
