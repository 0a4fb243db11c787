"""RTL-side CFU: the standard port bundle and a cycle-accurate adapter.

The port bundle follows the CFU Playground / VexRiscv CFU bus: a
valid/ready command channel carrying (funct3, funct7, in0, in1) and a
valid/ready response channel carrying the 32-bit output.
"""

from __future__ import annotations

from ..rtl import Module, Signal, Simulator, estimate
from .interface import CfuError


class CfuPorts:
    """The CPU<->CFU handshake signals."""

    def __init__(self):
        self.cmd_valid = Signal(1, name="cmd_valid")
        self.cmd_ready = Signal(1, name="cmd_ready")
        self.cmd_funct3 = Signal(3, name="cmd_funct3")
        self.cmd_funct7 = Signal(7, name="cmd_funct7")
        self.cmd_in0 = Signal(32, name="cmd_in0")
        self.cmd_in1 = Signal(32, name="cmd_in1")
        self.rsp_valid = Signal(1, name="rsp_valid")
        self.rsp_ready = Signal(1, name="rsp_ready")
        self.rsp_out = Signal(32, name="rsp_out")

    def all(self):
        return [
            self.cmd_valid, self.cmd_ready, self.cmd_funct3, self.cmd_funct7,
            self.cmd_in0, self.cmd_in1, self.rsp_valid, self.rsp_ready,
            self.rsp_out,
        ]


class RtlCfu:
    """Base class for gateware CFUs written in the RTL DSL.

    Subclasses implement :meth:`elaborate`, wiring their logic between
    ``self.ports`` inside ``self.module``.
    """

    name = "rtl-cfu"

    def __init__(self):
        self.ports = CfuPorts()
        self.module = Module(self.name)
        self.elaborate(self.module, self.ports)

    def elaborate(self, m, ports):
        raise NotImplementedError

    def resources(self):
        return estimate(self.module)

    def verilog(self):
        from ..rtl import emit_verilog

        return emit_verilog(self.module, ports=self.ports.all())


class RtlCfuAdapter:
    """Drives an :class:`RtlCfu` through its handshake, cycle-accurately.

    Presents the same ``execute`` protocol as :class:`CfuModel`, so the
    ISA machine (or the golden-test harness) can run against real
    gateware.  Reported latency is the measured number of clock cycles
    from command acceptance to response.

    :meth:`execute` is the one entry point for every call.  On the
    compiled backend a call writes the command ports straight into the
    program's slot list.  A funct3 that is hot has a generated
    transaction (:meth:`~repro.rtl.compile.CompiledProgram.transaction`)
    that commits the call's clock edge, after which ``execute`` only
    advances the clock and marks the comb slots stale; every other
    call finishes in :meth:`_generic`, the handshake as settles and
    clock edges on the slots.  The interpreter keeps the poke-level
    handshake (:meth:`_handshake`), which is the oracle of both.
    Operands are Python ints (the ISA machine's registers), and the
    masks keep every slot one.
    """

    def __init__(self, rtl_cfu, timeout=4096, backend="auto"):
        self.rtl = rtl_cfu
        self.backend = backend
        self.sim = Simulator(rtl_cfu.module, backend=backend)
        self.ports = rtl_cfu.ports
        self.timeout = timeout
        self.name = f"{rtl_cfu.name} (rtl)"
        self._bound_sim = self._slots = self._response = None

    def reset(self):
        # The compiled program is cached per module, so this re-inits
        # slot and memory state without re-elaborating or re-scheduling.
        self.sim = Simulator(self.rtl.module, backend=self.backend)

    def snapshot_state(self):
        """Capture the live simulator state (both backends)."""
        sim = self.sim
        if hasattr(sim, "_vals"):  # compiled backend: flat slot list
            if sim._stale:
                sim.settle()
            return {"backend": "compiled", "vals": list(sim._vals),
                    "extra": dict(sim._extra),
                    "mems": [list(state) for state in sim._mems],
                    "time": sim.time}
        return {"backend": "interp", "env": dict(sim.env),
                "mems": {mem: list(state)
                         for mem, state in sim.mem_state.items()},
                "time": sim.time}

    def restore_state(self, state):
        """Restore a :meth:`snapshot_state` in place (signal/memory
        container identities are preserved)."""
        sim = self.sim
        if state["backend"] == "compiled":
            if not hasattr(sim, "_vals"):
                raise ValueError("snapshot was taken on the compiled backend")
            sim._vals[:] = state["vals"]
            sim._stale = False  # snapshots hold settled slots
            sim._extra.clear()
            sim._extra.update(state["extra"])
            for live, saved in zip(sim._mems, state["mems"]):
                live[:] = saved
        else:
            if hasattr(sim, "_vals"):
                raise ValueError("snapshot was taken on the interp backend")
            sim.env.clear()
            sim.env.update(state["env"])
            for mem, saved in state["mems"].items():
                sim.mem_state[mem][:] = saved
        sim.time = state["time"]

    def _bind(self, sim):
        """Where a call reads and writes the ports of ``sim``.

        ``_slots`` holds the slot list, the memories and the program's
        transaction table, then a flat ``(container, key)`` per
        command-side port: the slot list, or the simulator's store for
        pokes of ports the netlist never reads.  ``_response`` holds
        the slots of the three response-side ports.  A ``_slots`` of
        None selects the poke-level handshake: the interpreter, or a
        netlist that drives a command port or never touches a response
        port."""
        self._bound_sim, self._slots = sim, None
        program = getattr(sim, "program", None)
        if program is None:
            return
        ports = self.ports
        inputs = (ports.cmd_valid, ports.cmd_funct3, ports.cmd_funct7,
                  ports.cmd_in0, ports.cmd_in1, ports.rsp_ready)
        outputs = (ports.cmd_ready, ports.rsp_valid, ports.rsp_out)
        slot_of = program.slot_of
        if any(id(sig) in program.driven_ids for sig in inputs) \
                or any(id(sig) not in slot_of for sig in outputs):
            return
        pairs = []
        for sig in inputs:
            pairs += ((sim._vals, slot_of[id(sig)]) if id(sig) in slot_of
                      else (sim._extra, id(sig)))
        self._slots = (sim._vals, sim._mems, program.transactions, *pairs)
        self._response = tuple(slot_of[id(sig)] for sig in outputs)

    def execute(self, funct3, funct7, a, b):
        """One call: ``(result, cycles)``."""
        sim = self.sim
        if sim is not self._bound_sim:
            self._bind(sim)
        slots = self._slots
        if slots is None:
            return self._handshake(funct3, funct7, a, b)
        # _handshake() straight on the compiled program's slot list.  A
        # funct3 called often enough runs its generated transaction,
        # which commits the clock edge itself: only the clock and the
        # stale mark remain (tracers see the edge through _clocked).
        # The settle that ends the call is deferred, the next call's
        # settle subsumes it.  A busy CFU or one answering after more
        # than one cycle takes the generic handshake.
        (vals, mems, transactions, valid, valid_key, f3, f3_key, f7, f7_key,
         in0, in0_key, in1, in1_key, ready, ready_key) = slots
        funct3 &= 7
        valid[valid_key] = 1
        f3[f3_key] = funct3
        f7[f7_key] = funct7 & 127
        in0[in0_key] = a & 4294967295
        in1[in1_key] = b & 4294967295
        ready[ready_key] = 1
        transact = (transactions[funct3]
                    or sim.program.transaction(funct3, self.ports))
        if transact is not None:
            result = transact(vals, mems)
            if result is not None:
                if sim._tracers:
                    sim._clocked()
                else:
                    sim.time += 1
                valid[valid_key] = 0
                sim._stale = True
                return result, 1
        return self._generic(valid, valid_key)

    def _generic(self, valid, valid_key):
        """Finish a compiled call whose command ports are written: the
        handshake as settles and clock edges on the slot list.  Each
        edge follows a settle with nothing poked since, so it skips the
        comb pass ``tick()`` runs before its sync update."""
        sim = self.sim
        vals, edge = sim._vals, sim._edge
        cmd_ready, rsp_valid, rsp_out = self._response
        sim.settle()  # settles what the previous call deferred, too
        waited = 0
        while not vals[cmd_ready]:
            edge()
            waited += 1
            if waited > self.timeout:
                raise CfuError(f"{self.name}: command never accepted")
        cycles = 1
        answered, result = vals[rsp_valid], vals[rsp_out]
        edge(False)  # latch the command, or retire the answer
        valid[valid_key] = 0
        if answered:
            sim._stale = True
            return result, cycles
        sim.settle()
        while not vals[rsp_valid]:
            edge()
            cycles += 1
            if cycles > self.timeout:
                raise CfuError(f"{self.name}: no response after {cycles} cycles")
        cycles += 1
        result = vals[rsp_out]
        edge(False)  # response consumed
        return result, cycles

    def _handshake(self, funct3, funct7, a, b):
        """One call as poke/settle/tick steps on any :class:`Simulator`."""
        sim, ports = self.sim, self.ports
        sim.poke(ports.cmd_valid, 1)
        sim.poke(ports.cmd_funct3, funct3 & 0x7)
        sim.poke(ports.cmd_funct7, funct7 & 0x7F)
        sim.poke(ports.cmd_in0, a & 0xFFFFFFFF)
        sim.poke(ports.cmd_in1, b & 0xFFFFFFFF)
        sim.poke(ports.rsp_ready, 1)
        sim.settle()
        # Wait for the CFU to accept the command.
        waited = 0
        while not sim.peek(ports.cmd_ready):
            sim.tick()
            waited += 1
            if waited > self.timeout:
                raise CfuError(f"{self.name}: command never accepted")
        # Cycle 1: command presented and accepted.  A combinational CFU
        # answers within this cycle; sequential CFUs answer after one or
        # more clock edges.
        cycles = 1
        if sim.peek(ports.rsp_valid):
            result = sim.peek(ports.rsp_out)
            sim.tick()  # consume the response, retire the instruction
            sim.poke(ports.cmd_valid, 0)
            sim.settle()
            return result, cycles
        sim.tick()  # edge on which the command is latched
        sim.poke(ports.cmd_valid, 0)
        sim.settle()
        while not sim.peek(ports.rsp_valid):
            sim.tick()
            cycles += 1
            if cycles > self.timeout:
                raise CfuError(f"{self.name}: no response after {cycles} cycles")
        cycles += 1
        result = sim.peek(ports.rsp_out)
        sim.tick()  # response consumed
        return result, cycles

    def resources(self):
        return self.rtl.resources()


class CombinationalCfu(RtlCfu):
    """Helper base: single-cycle CFUs that compute a pure function.

    Subclasses implement :meth:`datapath(m, ports) -> Value` returning
    the 32-bit result expression; handshake glue is provided here.
    """

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(1)
        m.d.comb += ports.rsp_valid.eq(ports.cmd_valid)
        m.d.comb += ports.rsp_out.eq(self.datapath(m, ports))

    def datapath(self, m, ports):
        raise NotImplementedError
