"""The committed ``BENCH_*.json`` records stay honest.

CI regenerates the BENCH files but never reads the committed copies, so
this suite checks them: every section carries its provenance, every
gated number is a row of the one shape ``benchmarks/common.py`` writes,
and each row's ``passed`` is its median against its bar in its
``better`` direction.
"""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
ROW_KEYS = ["name", "unit", "better", "repeats", "best", "median",
            "spread", "bar", "passed"]
PROVENANCE_KEYS = {"git_sha", "source_sha256", "python", "numpy", "cpu",
                   "nproc"}


def committed_sections():
    sections = []
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        with open(path) as handle:
            document = json.load(handle)
        sections += [(f"{os.path.basename(path)}:{name}", section)
                     for name, section in document.items()]
    return sections


SECTIONS = committed_sections()


def test_every_bench_file_has_sections():
    files = {name.split(":")[0] for name, _ in SECTIONS}
    assert files == {"BENCH_dse.json", "BENCH_profile.json",
                     "BENCH_rtl.json", "BENCH_sessions.json",
                     "BENCH_sim.json"}


@pytest.mark.parametrize("section", [s for _, s in SECTIONS],
                         ids=[name for name, _ in SECTIONS])
def test_section_carries_provenance(section):
    provenance = section["provenance"]
    assert set(provenance) == PROVENANCE_KEYS
    assert len(provenance["source_sha256"]) == 64
    assert provenance["nproc"] >= 1


@pytest.mark.parametrize("section", [s for _, s in SECTIONS],
                         ids=[name for name, _ in SECTIONS])
def test_rows_share_one_shape_and_honest_verdicts(section):
    rows = section["rows"]
    assert rows
    assert len({r["name"] for r in rows}) == len(rows)
    for r in rows:
        assert list(r) == ROW_KEYS, r
        assert r["better"] in ("higher", "lower"), r
        assert r["repeats"] >= 1 and r["spread"] >= 0, r
        if r["repeats"] == 1:
            assert r["best"] == r["median"] and r["spread"] == 0, r
        if r["better"] == "higher":
            assert r["best"] >= r["median"], r
            assert r["passed"] == (r["median"] >= r["bar"]), r
        else:
            assert r["best"] <= r["median"], r
            assert r["passed"] == (r["median"] <= r["bar"]), r
