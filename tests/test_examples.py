"""Smoke tests: the fast examples must run end to end (no rot)."""

import os
import re
import runpy
import shutil
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, capsys):
    path = os.path.join(EXAMPLES, name)
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_custom_cfu_tutorial(capsys):
    paths = []
    try:
        for _ in range(2):
            out = run_example("custom_cfu_tutorial.py", capsys)
            assert "PASS: 200 operations" in out
            assert "program exit value: 9" in out
            paths.append(re.search(r"VCD written to (\S+) ", out).group(1))
            with open(paths[-1]) as handle:
                vcd = handle.read()
            assert vcd.startswith("$timescale")
            assert "$enddefinitions $end" in vcd
        # Each run writes its own file, so concurrent runs cannot collide.
        assert "/tmp/simd_sad.vcd" not in paths
        assert paths[0] != paths[1]
    finally:
        for path in paths:
            shutil.rmtree(os.path.dirname(path), ignore_errors=True)


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "golden test PASSED" in out
    assert "cfu" in out


def test_image_classification_walkthrough(capsys):
    out = run_example("image_classification_arty.py", capsys)
    assert "overlap-input" in out
    assert "1x1 CONV_2D" in out


def test_keyword_spotting_walkthrough(capsys):
    out = run_example("keyword_spotting_fomu.py", capsys)
    assert "LinkError (expected)" in out
    assert "sw-spec" in out
    assert "8/8 DSP" in out or "DSP tiles" in out


def test_end_to_end_audio(capsys):
    out = run_example("end_to_end_audio.py", capsys)
    assert "MFCC: (49, 10)" in out
    assert "sw-spec" in out and "pre-processing is the emerging hotspot" in out


def test_energy_exploration(capsys):
    out = run_example("energy_exploration.py", capsys)
    assert "energy along the Fig. 6 ladder" in out
    assert "less energy per inference" in out
    assert "energy-optimal:" in out and "latency-optimal:" in out


def test_design_space_exploration(capsys):
    out = run_example("design_space_exploration.py", capsys)
    assert "cfu1:" in out and "cfu2:" in out
    assert "fastest design overall:" in out
