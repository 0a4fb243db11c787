"""End-to-end benchmark of the four user flows, with a per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload session-rtl --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with nothing instrumented and reports the
end-to-end metrics; ``--trace 1`` reports the per-layer split of a
traced run (see README.md in this directory).  The last line of
standard output is the result as one JSON object; the lines before it
are the provenance and a human-readable report.  The exit code is
nonzero when any op fails or any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups timed per untraced run; setup_s is their median.
SETUP_REPS = 5


class Run:
    """Timings and outcomes of one measured phase."""

    def __init__(self):
        self.setup_s = []
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    @property
    def wall_s(self):
        return sum(self.setup_s) + sum(self.op_s)

    @property
    def ops_per_s(self):
        total = sum(self.op_s)
        return len(self.op_s) / total if total else 0.0

    def percentile_ms(self, pct):
        if not self.op_s:
            return 0.0
        if pct == 50:
            return statistics.median(self.op_s) * 1000
        return statistics.quantiles(self.op_s, n=100)[pct - 1] * 1000


def drive(workload, run, setups=1, seconds=None, ops=None, region=nullcontext):
    """Set up ``setups`` times, then run ops until ``seconds`` have been
    spent on them or ``ops`` were attempted.

    Set-up and every op run inside ``region()``; output checks and
    teardown run outside it.  A workload with ``unit_ops`` gets a fresh
    set-up after each unit, and stops only at a unit boundary.  The
    first failed op ends the phase.
    """
    def set_up():
        started = perf_counter()
        with region():
            ctx = workload.setup()
        run.setup_s.append(perf_counter() - started)
        return ctx

    ctx = set_up()
    for _ in range(setups - 1):
        workload.teardown(ctx)
        ctx = None
        gc.collect()  # free the old set-up before the next one peaks
        ctx = set_up()

    def enough():
        if ops is not None:
            return run.attempted >= ops
        return sum(run.op_s) >= seconds

    in_unit = 0
    try:
        while True:
            started = perf_counter()
            try:
                with region():
                    result = workload.op(ctx)
            except Exception:
                run.attempted += 1
                run.fail(traceback.format_exc())
                return
            run.op_s.append(perf_counter() - started)
            run.attempted += 1
            in_unit += 1
            error = workload.check(ctx, result, run.attempted - 1)
            if error:
                run.fail(error)
                return
            if workload.collect_between_ops:
                del result
                gc.collect()
            if workload.unit_ops is None:
                if enough():
                    return
            elif in_unit == workload.unit_ops:
                error = workload.finish(ctx)
                if error:
                    run.fail(error)
                    return
                if enough():
                    return
                workload.teardown(ctx)
                ctx = None
                gc.collect()
                ctx = set_up()
                in_unit = 0
    finally:
        if ctx is not None:
            workload.teardown(ctx)


def planned_ops(workload, seconds):
    """About ``seconds`` of ops, in whole units, the same for every run
    with the same ``seconds``: the op count of a traced run, and of an
    untraced run of a workload whose set-up serves one unit."""
    if workload.unit_ops is None:
        return max(1, round(seconds / workload.nominal_op_s))
    unit_s = workload.unit_ops * workload.nominal_op_s
    return workload.unit_ops * max(1, round(seconds / unit_s))


def measure_untraced(workload, seconds):
    run = Run()
    if workload.unit_ops is None:
        drive(workload, run, setups=SETUP_REPS, seconds=seconds)
    else:
        drive(workload, run, setups=SETUP_REPS,
              ops=planned_ops(workload, seconds))
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return run, metrics


def measure_traced(workload, seconds):
    """Untraced, then traced, over the same set-up and op count.

    Returns the traced run (its op count includes the untraced ops),
    the per-layer metrics, the layer ranking and the untraced run.
    """
    from tracing import Instrumentation, Tracer, metrics as layer_metrics, \
        ranked_layers

    ops = planned_ops(workload, seconds)
    plain = Run()
    drive(workload, plain, ops=ops)
    if plain.failed:
        return plain, {}, [], plain
    tracer = Tracer()
    run = Run()
    with Instrumentation(tracer):
        drive(workload, run, ops=ops, region=tracer.region)
    for error in workload.trace_check(tracer.counts, run):
        run.fail(error)
    run.attempted += plain.attempted
    metrics = layer_metrics(tracer)
    metrics["trace_overhead"] = (tracer.wall_s / plain.wall_s, "ratio")
    metrics["ops_per_s"] = (plain.ops_per_s, "1/s")
    return run, metrics, ranked_layers(tracer), plain


def provenance(args):
    """Where a result came from: code, interpreter, libraries, host."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha():
    """HEAD of the checkout, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    # One benchmark thread plus at most one server thread: keep native
    # libraries single-threaded, and keep every cache in this process.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ.pop("REPRO_CODECACHE_DIR", None)
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    ranked = []
    try:
        workload.prepare(args.seed, ROOT, workdir)
        gc.collect()
        if args.trace:
            run, metrics, ranked, plain = measure_traced(workload,
                                                         args.seconds)
        else:
            run, metrics = measure_untraced(workload, args.seconds)
            plain = run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    headline = workload.headline(plain)
    headline["error_rate"] = run.failed / max(1, run.attempted)
    print(f"# {workload.name}: " + json.dumps(headline, sort_keys=True))
    if ranked:
        print(f"# {workload.name} layers by self time "
              f"(largest: {ranked[0][0]}):")
        for layer, seconds, share in ranked:
            print(f"#   {layer:24s} {seconds:10.4f} s  {share:7.2%}")
    for error in run.errors:
        print(f"# FAILED: {error}", file=sys.stderr)
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
