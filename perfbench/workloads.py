"""The four user flows the benchmark drives, each a closed loop from one
process (at most the benchmark thread plus one server thread).

A workload builds its inputs from the seed in :meth:`prepare`, which
also computes every reference an output check needs, untimed.  The
harness in ``run.py`` times :meth:`setup` and each :meth:`op`, and
calls :meth:`check` on every op's output outside the timed region.
README.md in this directory says why each flow was chosen.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from types import SimpleNamespace

import numpy as np

from repro.models import load

def cold_model_cache():
    """Forget memoized zoo models, so a set-up builds its model the way
    a fresh process does."""
    load.cache_clear()


class Workload:
    """One flow: set-up, a repeatable op, and the checks on its output."""

    name = ""
    #: Ops one set-up serves; None means the set-up serves any number.
    unit_ops = None
    #: Rough host seconds per op, used only to size a traced run.
    nominal_op_s = 1.0
    #: Collect garbage between ops (outside the timed region) so peak
    #: memory is that of one op, not of however many the collector kept.
    collect_between_ops = False

    def prepare(self, seed, root, workdir):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def op(self, ctx):
        raise NotImplementedError

    def check(self, ctx, result, index):
        """None when the op's output is right, else what is wrong."""
        return None

    def finish(self, ctx):
        """The check at the end of a unit (``unit_ops`` ops)."""
        return None

    def teardown(self, ctx):
        pass

    def headline(self, run):
        """The flow's own end-to-end figures for the report."""
        return {}

    def trace_check(self, counts, run):
        """Counts of a traced run that must equal their exact values."""
        return []


# --- fig7-service ---------------------------------------------------------------------

class Fig7Service(Workload):
    """The sampled Fig-7 DSE through the study service, one trial per op."""

    name = "fig7-service"
    trials_per_family = 200
    unit_ops = 3 * trials_per_family
    nominal_op_s = 0.022
    #: Trial writes per trial: suggested, claimed, completed.
    writes_per_trial = 3
    #: Study-config writes per unit: one per study at creation and one
    #: when it reaches DONE.
    study_writes_per_unit = 6

    def prepare(self, seed, root, workdir):
        super().prepare(seed, root, workdir)
        from repro.dse import run_fig7

        self.unit_cache_hits = []
        self.golden = self._fingerprint(run_fig7(
            trials_per_family=self.trials_per_family, seed=seed))

    @staticmethod
    def _fingerprint(result):
        from repro.dse import CFU_FAMILIES

        return {family: [(point.key(), point.metrics)
                         for point in result.family_front(family)]
                for family in CFU_FAMILIES}

    def setup(self):
        from repro.dse import (DseService, EvaluationCache, Fig7Evaluator,
                               ServiceClient, ServiceThread,
                               create_fig7_studies)

        cold_model_cache()
        store_dir = tempfile.mkdtemp(dir=self.workdir)
        handle = ServiceThread(DseService(store_dir=store_dir))
        client = ServiceClient(handle.url, worker_id="perfbench")
        names = create_fig7_studies(client, self.trials_per_family,
                                    seed=self.seed)
        evaluator = Fig7Evaluator(cache=EvaluationCache())
        return SimpleNamespace(store_dir=store_dir, handle=handle,
                               client=client, names=names,
                               evaluator=evaluator, cache_hits=0)

    def op(self, ctx):
        client = ctx.client
        response = client.work(count=1)
        if not response["trials"]:
            # One worker completes every claim before the next, so the
            # determinism barrier never leaves it without work.
            raise RuntimeError(f"no trial to claim (done={response['done']})")
        trial = response["trials"][0]
        outcome = ctx.evaluator.evaluate_batch(
            [(trial["parameters"], trial["family"])])[0]
        point = outcome.point
        metrics = None if point is None else {
            "cycles": point.cycles, "logic_cells": point.logic_cells}
        client.complete(trial, metrics=metrics, infeasible=point is None,
                        cache_hit=outcome.cache_hit, seconds=outcome.seconds)
        ctx.cache_hits += outcome.cache_hit

    def finish(self, ctx):
        from repro.dse.worker import fetch_result

        states = {ctx.client.study_status(owner, study_id)["state"]
                  for owner, study_id in ctx.names}
        if states != {"DONE"}:
            return f"studies not done after {self.unit_ops} trials: {states}"
        if self._fingerprint(fetch_result(ctx.client, ctx.names)) \
                != self.golden:
            return "service fronts differ from in-process run_fig7"
        self.unit_cache_hits.append(ctx.cache_hits)
        return None

    def teardown(self, ctx):
        ctx.client.close()
        ctx.handle.stop()
        shutil.rmtree(ctx.store_dir, ignore_errors=True)

    def headline(self, run):
        return {"trials_per_s": run.ops_per_s,
                "trial_p50_ms": run.percentile_ms(50),
                "trial_p95_ms": run.percentile_ms(95),
                "trials": run.attempted,
                "cache_hits_per_dse": self.unit_cache_hits}

    def trace_check(self, counts, run):
        units = run.attempted // self.unit_ops
        writes = units * (self.writes_per_trial * self.unit_ops
                          + self.study_writes_per_unit)
        errors = []
        if counts["dse.store.writes"] != writes:
            errors.append(f"store writes {counts['dse.store.writes']}"
                          f" != {writes}")
        if counts["dse.study.suggests"] != run.attempted:
            errors.append(f"suggests {counts['dse.study.suggests']}"
                          f" != {run.attempted} trials")
        return errors


# --- fig7-exhaustive ------------------------------------------------------------------

class Fig7Exhaustive(Workload):
    """The whole-space Fig-7 sweep, one sweep with a fresh sweeper per op."""

    name = "fig7-exhaustive"
    nominal_op_s = 0.7
    #: Grid points per family checked against the scalar oracle.
    oracle_samples = 4

    def prepare(self, seed, root, workdir):
        super().prepare(seed, root, workdir)
        from repro.dse import CFU_FAMILIES, vexriscv_space

        with open(os.path.join(root, "BENCH_dse.json")) as handle:
            families = json.load(handle)["exhaustive"]["families"]
        self.expected = {
            family: [(entry["cycles"], entry["logic_cells"])
                     for entry in families[family]["front"]]
            for family in CFU_FAMILIES}
        grid = list(vexriscv_space().grid())
        rng = random.Random(seed)
        self.samples = {family: rng.sample(grid, self.oracle_samples)
                        for family in CFU_FAMILIES}

    def setup(self):
        from repro.dse import ExhaustiveSweeper

        cold_model_cache()
        return ExhaustiveSweeper()

    def op(self, ctx):
        from repro.dse import ExhaustiveSweeper, sweep

        return sweep(sweeper=ExhaustiveSweeper())

    def check(self, ctx, result, index):
        # The committed fronts hold one entry per distinct metric point;
        # the plane also lists every grid point that ties one.
        for family, expected in self.expected.items():
            if sorted(set(result.front_metrics(family))) != expected:
                return f"{family} front differs from BENCH_dse.json"
        if index == 0:
            return self._oracle_check(result)
        return None

    def _oracle_check(self, result):
        """Seeded grid points, plane against scalar evaluate_design."""
        from repro.dse.runner import evaluate_design

        sweeper = result.sweeper
        for family, points in self.samples.items():
            cycles, cells, fits = sweeper.evaluate_points(points, family)
            for i, parameters in enumerate(points):
                point = evaluate_design(sweeper.model, sweeper.board,
                                        parameters, family)
                got = ((float(cycles[i]), int(cells[i])) if fits[i]
                       else None)
                if got != (None if point is None else point.metrics):
                    return f"{family} plane differs from scalar at {parameters}"
        return None

    def headline(self, run):
        from repro.dse.runner import total_space_size

        return {"points_per_s": total_space_size() * run.ops_per_s,
                "sweep_p50_ms": run.percentile_ms(50),
                "sweeps": run.attempted}


# --- session-rtl ----------------------------------------------------------------------

#: Int8 elements per vector; the loop does N/4 MAC4s plus a reset MAC4
#: and a READ_ACC per rep, so (N/4 + 2) CFU calls per rep.
N = 32
REPS = 2000
DATA_OFFSET = 0x10000
SPEC = {"board": "arty_a7_35t", "cfu": "kws", "cfu_impl": "rtl"}
RUN_BUDGET = 10_000_000


def dot_firmware(data_base):
    """CFU2 MAC4 dot product of the two vectors at ``data_base``,
    repeated ``REPS`` times; exits with the product in a0."""
    from repro.accel.kws import model as km

    return f"""
        li   s0, {REPS}
    outer:
        li   t0, {data_base}
        li   t1, {data_base + N}
        li   t2, {N // 4}
        li   a1, 0
        li   a2, 0
        cfu  1, {km.F3_MAC4}, a0, a1, a2
    loop:
        lw   a1, 0(t0)
        lw   a2, 0(t1)
        cfu  0, {km.F3_MAC4}, a0, a1, a2
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bnez t2, loop
        cfu  0, {km.F3_READ_ACC}, a0, x0, x0
        addi s0, s0, -1
        bnez s0, outer
        li   a7, 93
        ecall
    """


class SessionRtl(Workload):
    """Firmware against CFU gateware in a served session; one
    restore-and-run lap per op."""

    name = "session-rtl"
    nominal_op_s = 1.05
    cfu_calls_per_run = (N // 4 + 2) * REPS

    def prepare(self, seed, root, workdir):
        super().prepare(seed, root, workdir)
        from repro.emu.sessions import SessionManager

        rng = np.random.default_rng(seed)
        a = rng.integers(-128, 128, N, dtype=np.int8)
        b = rng.integers(-128, 128, N, dtype=np.int8)
        self.blob_hex = (a.tobytes() + b.tobytes()).hex()
        self.expected_a0 = int(np.dot(a.astype(np.int64), b.astype(np.int64)))
        # The same firmware on the CFU's software model: gateware must
        # match it cycle for cycle.
        manager = SessionManager(compile_cache=None)
        session = manager.create(dict(SPEC, cfu_impl="model"))
        self.ram_base = session.emulator.soc.memory_map.get("main_ram").base
        self._load(session.load)
        reference = session.run({"max_instructions": RUN_BUDGET})
        self.reference = (reference["instructions"], reference["cycles"])

    def _load(self, load):
        load({"binary_hex": self.blob_hex, "region": "main_ram",
              "offset": DATA_OFFSET})
        return load({"assembly": dot_firmware(self.ram_base + DATA_OFFSET),
                     "region": "main_ram"})

    def setup(self):
        from repro.core.codecache import CodeCache
        from repro.emu.sessions import (SessionClient, SessionManager,
                                        SessionServerThread)

        # A fresh compile cache per set-up: every set-up pays the cold
        # compile a new process would.
        manager = SessionManager(compile_cache=CodeCache())
        handle = SessionServerThread(manager)
        client = SessionClient(handle.url)
        sid = client.create(SPEC)["session_id"]
        self._load(lambda payload: client.load(sid, **payload))
        snapshot = client.snapshot(sid)["snapshot_id"]
        ctx = SimpleNamespace(handle=handle, client=client, sid=sid,
                              snapshot=snapshot)
        ctx.cold = client.run(sid, max_instructions=RUN_BUDGET)
        return ctx

    def op(self, ctx):
        ctx.client.restore(ctx.sid, ctx.snapshot)
        return ctx.client.run(ctx.sid, max_instructions=RUN_BUDGET)

    def _check_run(self, outcome):
        if not outcome["halted"] or outcome["exit_code"] != self.expected_a0:
            return (f"a0 {outcome['exit_code']} != dot product "
                    f"{self.expected_a0}")
        if (outcome["instructions"], outcome["cycles"]) != self.reference:
            return (f"(instret, cycles) ({outcome['instructions']}, "
                    f"{outcome['cycles']}) != model {self.reference}")
        return None

    def check(self, ctx, result, index):
        if index == 0:
            error = self._check_run(ctx.cold)
            if error:
                return f"cold run: {error}"
        return self._check_run(result)

    def teardown(self, ctx):
        ctx.client.close()
        ctx.handle.stop()

    def headline(self, run):
        return {"sim_ips": self.reference[0] * run.ops_per_s,
                "lap_p50_ms": run.percentile_ms(50),
                "laps": run.attempted}

    def trace_check(self, counts, run):
        runs = run.attempted + len(run.setup_s)  # each set-up runs once cold
        expected = {"cfu.rtl.calls": runs * self.cfu_calls_per_run,
                    "cpu.machine.instructions": runs * self.reference[0]}
        return [f"{key} {counts[key]} != {value}"
                for key, value in expected.items() if counts[key] != value]


# --- profile-simulate -----------------------------------------------------------------

class ProfileSimulate(Workload):
    """``repro profile mnv2_first --simulate``, one profile per op.

    The flow takes no input beyond the project, so the seed changes
    nothing here; every op must reproduce the first exactly.
    """

    name = "profile-simulate"
    nominal_op_s = 0.85
    collect_between_ops = True

    def prepare(self, seed, root, workdir):
        super().prepare(seed, root, workdir)
        self.reference = None  # the first op's outcome

    def setup(self):
        from repro.core.project import load_project

        cold_model_cache()
        return load_project("mnv2_first")

    def op(self, ctx):
        return ctx.profile(simulate=True)

    def check(self, ctx, result, index):
        if not result.classes:
            return "no opcode class was simulated"
        outcome = (result.total_cycles,
                   tuple((c.name, c.sim_cycles, c.drift, c.instructions)
                         for c in result.classes))
        if self.reference is None:
            self.reference = outcome
        elif outcome != self.reference:
            return "simulated cycles or drift changed between profiles"
        return None

    def headline(self, run):
        return {"profile_s": run.percentile_ms(50) / 1000,
                "profiles": run.attempted}


WORKLOADS = {cls.name: cls for cls in
             (Fig7Service, Fig7Exhaustive, SessionRtl, ProfileSimulate)}
