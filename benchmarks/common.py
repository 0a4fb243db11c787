"""The benchmark suite's one ``BENCH_*.json`` writer and its one gate.

Each bench test that records numbers owns one section of one
``BENCH_<name>.json`` file at the repository root.  :func:`write_section`
replaces that section, leaves the file's other sections as they are, and
stamps it with the provenance ``perfbench/run.py`` computes (git sha,
source digest, Python, NumPy, CPU, nproc).  The sha is the checkout's
HEAD; the digest pins the sources measured, committed or not.

Every gated number is a :func:`row` of one shape: ``name``, ``unit``,
``better`` (``"higher"`` or ``"lower"``), ``repeats`` (how many
measurements), their ``best``, ``median`` and ``spread`` (largest minus
smallest, in ``unit``), the ``bar`` and whether the median ``passed``
it.  A timing ratio is measured :data:`REPEATS` times, interleaved with
the other rows of its test, and gated on the median; a number that does
not vary between runs (a count, a modeled cycle ratio) is one repeat.
Descriptive tables sit beside the rows.  :func:`check` is the one
assertion that ends a bench test.
"""

import importlib.util
import json
import os
import statistics
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Interleaved repeats behind every gated timing ratio (odd, so the
#: median is one of them).
REPEATS = 5

_PROVENANCE = ("git_sha", "source_sha256", "python", "numpy", "cpu", "nproc")


def provenance():
    """perfbench's provenance record, less its command-line arguments."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    record = run.provenance(SimpleNamespace(
        workload=None, seed=None, seconds=None, trace=None))
    return {key: record[key] for key in _PROVENANCE}


def row(name, unit, better, values, bar):
    """One gated number from the values its repeats measured."""
    higher = {"higher": True, "lower": False}[better]
    median = round(statistics.median(values), 4)
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "repeats": len(values),
        "best": round(max(values) if higher else min(values), 4),
        "median": median,
        "spread": round(max(values) - min(values), 4),
        "bar": bar,
        "passed": median >= bar if higher else median <= bar,
    }


def median_run(runs, key):
    """The repeat whose ``key`` is the median: the one a descriptive
    table reports."""
    return sorted(runs, key=lambda run: run[key])[len(runs) // 2]


def _describe(r):
    """One report line for a row."""
    verdict = "ok" if r["passed"] else "MISSES ITS BAR"
    return (f"{r['name']}: median {r['median']} {r['unit']} over "
            f"{r['repeats']} (best {r['best']}, spread {r['spread']}), "
            f"bar {r['bar']} ({r['better']} is better): {verdict}")


def write_section(bench, section, rows, **detail):
    """Replace ``section`` of ``BENCH_<bench>.json`` with provenance,
    the rows and the descriptive ``detail``."""
    path = os.path.join(ROOT, f"BENCH_{bench}.json")
    document = {}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document[section] = {"provenance": provenance(), "rows": rows, **detail}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def check(report, rows, broken=()):
    """Report every row, then fail naming every row that misses its bar
    and every ``broken`` invariant, all at once."""
    for r in rows:
        report(_describe(r))
    failures = [*broken, *(_describe(r) for r in rows if not r["passed"])]
    assert not failures, "\n".join(failures)
