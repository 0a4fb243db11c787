"""Project registry + CLI tests."""

import json
import os

import pytest

from repro.cli import main
from repro.core.project import PROJECTS, list_projects, load_project
from repro.core.telemetry import Telemetry
from repro.dse.runner import ALL_CFU_FAMILIES
from repro.tflm.serialize import load_model_file


def test_registry_contents():
    assert {"proj_template", "mnv2_first", "kws_micro_accel"} <= set(PROJECTS)
    descriptions = list_projects()
    assert "Section III-A" in descriptions["mnv2_first"]
    assert "Section III-B" in descriptions["kws_micro_accel"]


def test_unknown_project():
    with pytest.raises(KeyError):
        load_project("bitcoin_miner")


def test_template_project_builds():
    project = load_project("proj_template")
    artifacts = project.build()
    assert artifacts.ok
    assert artifacts.estimate.total_cycles > 0


def test_kws_project_build_artifacts(tmp_path):
    project = load_project("kws_micro_accel")
    artifacts = project.build(output_dir=str(tmp_path))
    assert artifacts.ok
    assert os.path.exists(artifacts.verilog_path)
    with open(artifacts.verilog_path) as handle:
        assert "endmodule" in handle.read()
    restored = load_model_file(artifacts.model_path)
    assert restored.name == "dscnn_kws"
    with open(artifacts.report_path) as handle:
        assert "fit on fomu" in handle.read()


def test_kws_project_fits_and_is_fast():
    project = load_project("kws_micro_accel")
    artifacts = project.build()
    assert artifacts.ok
    seconds = artifacts.estimate.seconds
    assert seconds < 5  # the optimized endpoint, not the 209 s baseline


def test_mnv2_project_golden():
    load_project("mnv2_first").golden_test()


def test_projects_are_fresh_instances():
    a = load_project("proj_template")
    b = load_project("proj_template")
    assert a.playground is not b.playground


# --- CLI ------------------------------------------------------------------------------

def test_cli_projects(capsys):
    assert main(["projects"]) == 0
    out = capsys.readouterr().out
    assert "mnv2_first" in out


def test_cli_profile(capsys):
    assert main(["profile", "proj_template"]) == 0
    out = capsys.readouterr().out
    assert "CONV_2D" in out


def test_cli_golden(capsys):
    assert main(["golden", "kws_micro_accel"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_cli_ladder_fig6(capsys):
    assert main(["ladder", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "quadspi" in out and "sw-spec" in out


def test_cli_build_with_artifacts(tmp_path, capsys):
    assert main(["build", "kws_micro_accel", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cfu.v").exists()


def test_cli_dse(capsys):
    assert main(["dse", "--trials", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "93,312" in out
    assert "Pareto-optimal" in out


def test_cli_exhaustive_rejects_unknown_families_before_sweeping(
        capsys, monkeypatch):
    import repro.dse

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before --families was checked")

    monkeypatch.setattr(repro.dse, "sweep", no_sweep)
    with pytest.raises(SystemExit) as exit_info:
        main(["dse", "exhaustive", "--families", "none,bogus"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--families" in err and "'bogus'" in err
    assert all(family in err for family in ALL_CFU_FAMILIES)


def test_cli_exhaustive_reports_regret_only_for_searched_families(
        capsys, monkeypatch):
    import repro.dse

    def no_search(*args, **kwargs):
        raise AssertionError("searched although no family is searchable")

    with monkeypatch.context() as patch:
        patch.setattr(repro.dse, "run_fig7", no_search)
        assert main(["dse", "exhaustive", "--families", "winograd",
                     "--regret-trials", "6"]) == 0
    out = capsys.readouterr().out
    assert "winograd: no regret" in out
    assert "hypervolume regret" not in out

    assert main(["dse", "exhaustive", "--families", "cfu1,winograd",
                 "--regret-trials", "6"]) == 0
    out = capsys.readouterr().out
    assert "cfu1: RegularizedEvolution@6 hypervolume regret" in out
    assert "winograd: no regret" in out
    assert "winograd: RegularizedEvolution" not in out


def test_cli_exports_are_json_lines(tmp_path, capsys):
    """``dse --trace-out`` and ``profile --simulate --metrics-out`` write
    one format: a header carrying the series, then spans and events."""
    trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.jsonl"
    assert main(["dse", "--trials", "6", "--trace-out", str(trace)]) == 0
    assert main(["profile", "mnv2_first", "--simulate",
                 "--metrics-out", str(metrics)]) == 0
    exports = {}
    for path in (trace, metrics):
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        header, body = records[0], records[1:]
        assert header["type"] == "trace"
        assert {record["type"] for record in body} <= {"span", "event"}
        assert header["spans"] + header["events"] == len(body)
        exports[path] = (Telemetry.from_snapshot(header), body)

    dse, dse_body = exports[trace]
    assert dse.value("dse_cache_misses") > 0
    assert sum(r["name"] == "trial" for r in dse_body) == 18
    profile, profile_body = exports[metrics]
    assert "simprofile_simulated_cycles" in profile
    assert profile.value("playground_profiles") == 1
    assert {"profile", "simprofile_class"} <= {r["name"] for r in profile_body}


def test_cli_menu(capsys):
    assert main(["menu", "proj_template", "--select", "1", "g"]) == 0
    out = capsys.readouterr().out
    assert "golden test OK" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_report(tmp_path, capsys):
    out = tmp_path / "REPORT.md"
    assert main(["report", "--out", str(out)]) == 0
    text = out.read_text()
    assert "Figure 4" in text and "Figure 6" in text
    assert "CMSIS-NN" in text and "Energy per inference" in text
    assert "| sw-spec |" in text
