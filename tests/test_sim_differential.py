"""Differential equivalence across the two execution backends.

Both backends of ``Machine.run`` — the reference interpreter (``step``)
and translated basic blocks (``auto``, every block translated on its
first dispatch) — must be architecturally bit-identical: same ``regs``,
``pc``, ``instret``, ``cycles``, memory contents, CFU state, halt
state, and exit code — with and without a timing model, with and
without a CFU attached.  Every firmware image from
``tests.test_integration_firmware`` and a randomized RV32IM corpus run
through both backends here, plus the nasty cases: self-modifying code
rewriting an already-promoted block, a branch target landing
mid-block, and budget truncation.
"""

import numpy as np
import pytest

from repro.accel import KwsCfu, KwsCfu2Rtl
from repro.boards import ARTY_A7_35T
from repro.cpu import Machine, SparseMemory, VexTiming
from repro.cpu.vexriscv import ARTY_DEFAULT, FOMU_MINIMAL
from repro.emu import Emulator
from repro.soc import Soc

from tests.test_integration_firmware import (
    N,
    firmware,
    make_vectors,
    postproc_firmware,
)

#: step first: it is the reference the others are diffed against.
BACKENDS = ("step", "auto")


# --- state comparison -------------------------------------------------------------

def machine_state(machine):
    """Architectural state minus memory (memory is compared in place —
    SoC RAM backings are hundreds of MB, copying them dominates)."""
    return {
        "regs": list(machine.regs),
        "pc": machine.pc,
        "instret": machine.instret,
        "cycles": machine.cycles,
        "halted": machine.halted,
        "exit_code": machine.exit_code,
    }


def cfu_state(cfu):
    """Architectural CFU state (KwsCfu's registers); None-safe."""
    if cfu is None:
        return None
    return {attr: getattr(cfu, attr)
            for attr in ("acc", "mult", "shift", "output_zp",
                         "act_min", "act_max")
            if hasattr(cfu, attr)}


def assert_same_memory(fast_memory, slow_memory):
    """Byte-exact over the union of pages either side allocated, with
    an absent page equal to a page of zeros."""
    if isinstance(fast_memory, SparseMemory):
        sides = [("memory", fast_memory._pages, slow_memory._pages)]
    else:
        sides = [(name, backing.data, slow_memory.backings[name].data)
                 for name, backing in fast_memory.backings.items()]
    zero = bytes(4096)
    for name, fast_pages, slow_pages in sides:
        for index in fast_pages.keys() | slow_pages.keys():
            assert (fast_pages.get(index, zero)
                    == slow_pages.get(index, zero)), (
                f"memory mismatch in {name} page {index:#x}")


def assert_identical(machine, reference, label=""):
    state = machine_state(machine)
    ref_state = machine_state(reference)
    for key in state:
        assert state[key] == ref_state[key], (
            f"{label} mismatch on {key}: "
            f"{state[key]!r} != {ref_state[key]!r}")
    assert cfu_state(machine.cfu) == cfu_state(reference.cfu), (
        f"{label} CFU state mismatch")
    assert_same_memory(machine.memory, reference.memory)


def assert_all_identical(machines):
    """Lockstep comparison: every backend against the step reference."""
    reference = machines["step"]
    for backend, machine in machines.items():
        if backend == "step":
            continue
        assert_identical(machine, reference, label=f"{backend}/step")


@pytest.mark.parametrize("make_memory",
                         [SparseMemory,
                          lambda: Soc(ARTY_A7_35T, ARTY_DEFAULT).bus()],
                         ids=["sparse", "bus"])
def test_memory_comparison_is_page_exact(make_memory):
    """A page of zeros equals an absent page, and one differing byte in
    a page only one side allocated is a mismatch, either way round."""
    addr = 0x4000_5000                   # main_ram on the bus
    one, other = make_memory(), make_memory()
    one.write8(addr, 0)                  # allocates the page on one side
    assert_same_memory(one, other)
    assert_same_memory(other, one)
    one.write8(addr + 7, 1)
    for pair in ((one, other), (other, one)):
        with pytest.raises(AssertionError, match="mismatch"):
            assert_same_memory(*pair)


# --- randomized RV32IM corpus ------------------------------------------------------

DATA_BASE = 0x2000  # x5 is pinned here; all load/store offsets are in-page

ALU_RR = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra",
          "slt", "sltu", "mul", "mulh", "mulhsu", "mulhu",
          "div", "divu", "rem", "remu"]
ALU_RI = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
SHIFT_RI = ["slli", "srli", "srai"]
LOADS = [("lw", 4), ("lh", 2), ("lhu", 2), ("lb", 1), ("lbu", 1)]
STORES = [("sw", 4), ("sh", 2), ("sb", 1)]
BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]


def random_program(seed, length=300, with_cfu=False):
    """A random straight-line-ish RV32IM program: ALU/mul/div traffic,
    aligned loads/stores through x5, forward skip branches and jumps,
    CSR reads, optional CFU MAC4 ops; exits cleanly via ecall."""
    rng = np.random.default_rng(seed)

    def reg(exclude_x5=True):
        while True:
            r = int(rng.integers(0, 32))
            if not (exclude_x5 and r == 5):
                return r

    lines = [f"    li x5, {DATA_BASE}"]
    for r in range(6, 16):  # seed some registers with random values
        lines.append(f"    li x{r}, {int(rng.integers(0, 1 << 32))}")

    label = 0
    choices = ["alu_rr", "alu_ri", "shift", "lui", "auipc", "load",
               "store", "branch", "jal", "csr"]
    weights = [0.25, 0.20, 0.08, 0.04, 0.04, 0.12, 0.12, 0.08, 0.04, 0.03]
    if with_cfu:
        choices.append("cfu")
        weights = [w * 0.92 for w in weights] + [0.08]
    for _ in range(length):
        kind = rng.choice(choices, p=np.array(weights) / np.sum(weights))
        if kind == "alu_rr":
            op = ALU_RR[int(rng.integers(0, len(ALU_RR)))]
            lines.append(f"    {op} x{reg()}, x{reg(False)}, x{reg(False)}")
        elif kind == "alu_ri":
            op = ALU_RI[int(rng.integers(0, len(ALU_RI)))]
            imm = int(rng.integers(-2048, 2048))
            lines.append(f"    {op} x{reg()}, x{reg(False)}, {imm}")
        elif kind == "shift":
            op = SHIFT_RI[int(rng.integers(0, len(SHIFT_RI)))]
            lines.append(f"    {op} x{reg()}, x{reg(False)}, "
                         f"{int(rng.integers(0, 32))}")
        elif kind == "lui":
            lines.append(f"    lui x{reg()}, {int(rng.integers(0, 1 << 20))}")
        elif kind == "auipc":
            lines.append(f"    auipc x{reg()}, "
                         f"{int(rng.integers(0, 1 << 20))}")
        elif kind == "load":
            op, align = LOADS[int(rng.integers(0, len(LOADS)))]
            offset = int(rng.integers(0, 256 // align)) * align
            lines.append(f"    {op} x{reg()}, {offset}(x5)")
        elif kind == "store":
            op, align = STORES[int(rng.integers(0, len(STORES)))]
            offset = int(rng.integers(0, 256 // align)) * align
            lines.append(f"    {op} x{reg(False)}, {offset}(x5)")
        elif kind == "branch":
            op = BRANCHES[int(rng.integers(0, len(BRANCHES)))]
            lines.append(f"    {op} x{reg(False)}, x{reg(False)}, skip{label}")
            lines.append(f"    addi x{reg()}, x{reg(False)}, 1")
            lines.append(f"skip{label}:")
            label += 1
        elif kind == "jal":
            lines.append(f"    jal x{reg()}, skip{label}")
            lines.append(f"    addi x{reg()}, x{reg(False)}, 1")
            lines.append(f"skip{label}:")
            label += 1
        elif kind == "csr":
            mnemonic = "rdcycle" if rng.integers(0, 2) else "rdinstret"
            lines.append(f"    {mnemonic} x{reg()}")
        else:  # cfu
            from repro.accel.kws import model as km

            f3 = int(rng.choice([km.F3_MAC4, km.F3_READ_ACC]))
            lines.append(f"    cfu 0, {f3}, x{reg()}, x{reg(False)}, "
                         f"x{reg(False)}")
    lines += ["    li a7, 93", "    li a0, 0", "    ecall"]
    return "\n".join(lines)


def run_corpus(source, timing_config, with_cfu, backend):
    machine = Machine(
        cfu=KwsCfu() if with_cfu else None,
        timing=VexTiming(timing_config) if timing_config else None)
    machine.load_assembly(source)
    machine.run(max_instructions=100_000, backend=backend)
    return machine


@pytest.mark.parametrize("timing_config", [None, ARTY_DEFAULT, FOMU_MINIMAL],
                         ids=["functional", "arty", "fomu"])
@pytest.mark.parametrize("seed", range(6))
def test_random_corpus_differential(seed, timing_config):
    source = random_program(seed)
    machines = {backend: run_corpus(source, timing_config, with_cfu=False,
                                    backend=backend)
                for backend in BACKENDS}
    assert all(m.halted for m in machines.values())
    assert machines["auto"].block_promotions > 0
    assert_all_identical(machines)


@pytest.mark.parametrize("seed", range(3))
def test_random_corpus_with_cfu_differential(seed):
    source = random_program(seed + 100, with_cfu=True)
    machines = {backend: run_corpus(source, ARTY_DEFAULT, with_cfu=True,
                                    backend=backend)
                for backend in BACKENDS}
    assert all(m.halted for m in machines.values())
    assert_all_identical(machines)


# --- firmware images ---------------------------------------------------------------

def firmware_emulator(cfu, seed, with_timing=True):
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=cfu, with_timing=with_timing)
    ram = soc.memory_map.get("main_ram").base
    data_base = ram + 0x1000
    uart = soc.csr_bank.get("uart_rxtx").address
    a, b = make_vectors(seed)
    emu.bus.load_bytes(data_base, a.tobytes())
    emu.bus.load_bytes(data_base + N, b.tobytes())
    emu.load_assembly(firmware(data_base, uart), region="main_ram")
    return emu


@pytest.mark.parametrize("with_timing", [True, False],
                         ids=["timed", "functional"])
@pytest.mark.parametrize("make_cfu", [KwsCfu, KwsCfu2Rtl],
                         ids=["model", "gateware"])
@pytest.mark.parametrize("seed", [0, 1])
def test_dot_product_firmware_differential(seed, make_cfu, with_timing):
    emulators, exit_codes = {}, set()
    for backend in BACKENDS:
        emu = firmware_emulator(make_cfu(), seed, with_timing)
        exit_codes.add(emu.machine.run(backend=backend))
        assert emu.uart_output == "OK"
        emulators[backend] = emu
    assert len(exit_codes) == 1
    assert emulators["auto"].machine.block_promotions > 0
    assert_all_identical({b: e.machine for b, e in emulators.items()})


def test_postproc_firmware_differential():
    mult, shift, zp, bias = 0x52000000, -7, -12, 4321
    machines = {}
    for backend in BACKENDS:
        soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
        emu = Emulator(soc, cfu=KwsCfu2Rtl())
        emu.load_assembly(postproc_firmware(mult, shift, zp, bias),
                          region="main_ram")
        emu.machine.run(backend=backend)
        machines[backend] = emu.machine
    assert_all_identical(machines)


def test_misuse_firmware_differential():
    """A CFU instruction with no CFU attached fails identically on every
    backend — message and partial architectural state both match."""
    states, machines = [], []
    for backend in BACKENDS:
        soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
        emu = Emulator(soc)
        emu.load_assembly("cfu 0, 0, a0, a1, a2", region="main_ram")
        with pytest.raises(RuntimeError, match="no CFU attached") as err:
            emu.machine.run(backend=backend)
        states.append((str(err.value), machine_state(emu.machine)))
        machines.append(emu.machine)
    assert states.count(states[0]) == len(states)
    for machine in machines[1:]:
        assert_same_memory(machine.memory, machines[0].memory)


def test_misaligned_load_fails_identically():
    source = f"""
        li x5, {DATA_BASE}
        addi x6, x6, 7
        lw x7, 2(x5)
    """
    states, machines = [], []
    for backend in BACKENDS:
        machine = Machine()
        machine.load_assembly(source)
        with pytest.raises(Exception) as err:
            machine.run(backend=backend)
        states.append((type(err.value).__name__, str(err.value),
                       machine_state(machine)))
        machines.append(machine)
    assert states.count(states[0]) == len(states)
    for machine in machines[1:]:
        assert_same_memory(machine.memory, machines[0].memory)


# --- M-extension corner cases -----------------------------------------------------

MULDIV = ["mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"]
CORNERS = [0, 1, -1, 7, -7, 0x7FFFFFFF, -0x80000000]


@pytest.mark.parametrize("timing_config", [None, ARTY_DEFAULT],
                         ids=["functional", "arty"])
def test_muldiv_corner_cases_differential(timing_config):
    """Division by zero, the signed-overflow quotient and every sign
    mix, for each M-extension op, through blocks and ``step()``."""
    lines = [f"    li x5, {DATA_BASE}"]
    offset = 0
    for a in CORNERS:
        for b in CORNERS:
            lines += [f"    li x6, {a}", f"    li x7, {b}"]
            for op in MULDIV:
                lines += [f"    {op} x8, x6, x7", f"    sw x8, {offset}(x5)"]
                offset += 4
    lines += ["    li a7, 93", "    li a0, 0", "    ecall"]
    source = "\n".join(lines)
    machines = {backend: run_corpus(source, timing_config, with_cfu=False,
                                    backend=backend)
                for backend in BACKENDS}
    assert machines["auto"].block_promotions > 0
    assert_all_identical(machines)
    assert machines["step"].memory.read32(DATA_BASE + 4 * 4) == 0xFFFFFFFF


# --- budget truncation -------------------------------------------------------------

@pytest.mark.parametrize("budget", [7, 50, 101, 250])
def test_budget_truncation_differential(budget):
    """Exhausting the instruction budget mid-loop leaves identical
    partial state on every backend — including budgets that land in the
    middle of a promoted block, where the run loop must refuse the
    whole-block call and finish on ``step()``."""
    source = """
        li t0, 1000
        li t1, 0
    loop:
        addi t1, t1, 3
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """
    states = []
    for backend in BACKENDS:
        machine = Machine(timing=VexTiming(ARTY_DEFAULT))
        machine.load_assembly(source)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            machine.run(max_instructions=budget, backend=backend)
        states.append(machine_state(machine))
    assert states.count(states[0]) == len(states), (
        f"budget={budget}: {states}")


# --- self-modifying code -----------------------------------------------------------

def test_self_modifying_code_differential():
    """A loop that rewrites its own add-immediate each iteration: the
    decode cache must observe the store (page invalidation) so every
    backend sums 1 + 2*4 = 9 exactly like the reference path."""
    from repro.cpu.assembler import assemble

    patched, _ = assemble("addi x6, x6, 2")
    patched_word = int.from_bytes(patched, "little")
    source = f"""
        li   x7, 5              # iterations
        li   x6, 0              # sum
        la   x8, patch
        li   x9, {patched_word}
    loop:
    patch:
        addi x6, x6, 1          # becomes 'addi x6, x6, 2' after 1st pass
        sw   x9, 0(x8)
        addi x7, x7, -1
        bnez x7, loop
        mv   a0, x6
        li   a7, 93
        ecall
    """
    machines = {}
    for backend in BACKENDS:
        machine = Machine(timing=VexTiming(ARTY_DEFAULT))
        machine.load_assembly(source)
        machine.run(backend=backend)
        machines[backend] = machine
    assert machines["auto"].regs[10] == 1 + 2 * 4
    assert machines["auto"].block_invalidation_count > 0
    assert_all_identical(machines)


def test_smc_rewrites_promoted_block():
    """Self-modifying code that patches a block *after* it has been
    promoted to generated code: iteration 1 runs (and promotes) the
    original block; its store then rewrites an instruction inside that
    very block, so the run loop must invalidate the generated function
    and re-translate — landing on the same architectural results as the
    reference interpreter."""
    from repro.cpu.assembler import assemble

    patched, _ = assemble("addi x6, x6, 10")
    patched_word = int.from_bytes(patched, "little")
    source = f"""
        li   x7, 6              # iterations
        li   x6, 0              # sum
        la   x8, patch
        li   x9, {patched_word}
        j    loop
    loop:
    patch:
        addi x6, x6, 1          # becomes 'addi x6, x6, 10' after 1st pass
        sw   x9, 0(x8)
        addi x7, x7, -1
        bnez x7, loop
        mv   a0, x6
        li   a7, 93
        ecall
    """
    machines = {}
    for backend in BACKENDS:
        machine = Machine(timing=VexTiming(ARTY_DEFAULT))
        machine.load_assembly(source)
        machine.run(backend=backend)
        machines[backend] = machine
    translated = machines["auto"]
    assert translated.regs[10] == 1 + 10 * 5
    assert translated.block_promotions > 0
    assert translated.block_invalidation_count > 0
    assert_all_identical(machines)


def test_branch_target_lands_mid_block():
    """A jump target in the *middle* of an already-promoted block: the
    first phase promotes the whole loop body; the second phase enters at
    ``mid``, which never headed a block before.  The run loop must
    translate the mid-block pc as a block of its own — never execute
    the containing block from its old entry."""
    source = """
        li   t0, 20
        li   t1, 0
        li   t2, 0              # phase flag
    loop:
        addi t1, t1, 1
    mid:
        addi t1, t1, 100
        addi t0, t0, -1
        bnez t0, loop
        bnez t2, done           # second fall-through ends the program
        li   t2, 1
        li   t0, 10
        j    mid                # phase 2: enter mid-block, skip the +1
    done:
        mv   a0, t1
        li   a7, 93
        ecall
    """
    machines = {}
    for backend in BACKENDS:
        machine = Machine(timing=VexTiming(ARTY_DEFAULT))
        machine.load_assembly(source)
        machine.run(backend=backend)
        machines[backend] = machine
    translated = machines["auto"]
    assert translated.halted
    # phase 1: 20x(+1+100); phase 2: +100 at entry, then 9x(+1+100).
    assert translated.regs[10] == 20 * 101 + 100 + 9 * 101
    assert translated.block_promotions > 0
    assert_all_identical(machines)
