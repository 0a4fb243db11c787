"""Documentation anti-rot: every file, module, bench and CLI flag the
docs cite must exist."""

import argparse
import importlib
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def read(name):
    with open(os.path.join(ROOT, name)) as handle:
        return handle.read()


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/ARCHITECTURE.md", "docs/CFU_GUIDE.md"):
        assert os.path.exists(os.path.join(ROOT, name)), name


def test_design_bench_references_exist():
    text = read("DESIGN.md") + read("EXPERIMENTS.md")
    for match in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
        assert os.path.exists(os.path.join(ROOT, "benchmarks", match)), match


def read_docs():
    """The docs a reader follows, the verification runbook included."""
    return (read("README.md") + read("DESIGN.md") + read("EXPERIMENTS.md")
            + read("docs/ARCHITECTURE.md") + read("docs/CFU_GUIDE.md")
            + read(".claude/skills/verify/SKILL.md"))


def test_docs_module_references_import():
    text = read_docs()
    modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
    assert modules  # the docs do name modules
    for name in sorted(modules):
        # Some references are attributes (repro.rtl.lint the function);
        # importing the parent module is the existence check.
        parts = name.split(".")
        for depth in range(len(parts), 1, -1):
            try:
                module = importlib.import_module(".".join(parts[:depth]))
                break
            except ModuleNotFoundError:
                continue
        else:
            raise AssertionError(f"doc references unimportable {name}")
        for attr in parts[depth:]:
            assert hasattr(module, attr), f"{name}: missing {attr}"


def test_readme_examples_exist():
    text = read("README.md")
    for match in set(re.findall(r"- `(\w+\.py)` —", text)):
        assert os.path.exists(os.path.join(ROOT, "examples", match)), match


def test_experiments_covers_every_figure():
    text = read("EXPERIMENTS.md")
    for figure in ("Figure 4", "Figure 5", "Figure 6", "Figure 7"):
        assert figure in text


def test_readme_cli_commands_exist():
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions
               if hasattr(a, "choices") and a.choices)
    commands = set(sub.choices)
    for command in ("projects", "build", "profile", "golden", "ladder",
                    "dse", "report", "menu"):
        assert command in commands


#: A ``--flag`` as the docs and ``--help`` texts spell one.
FLAG = r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*"

#: Flags of third-party tools the docs cite (``json.tool``, ``pip``).
THIRD_PARTY_FLAGS = {"--json-lines", "--no-build-isolation"}


def parser_options(parser):
    """Every option string of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= parser_options(subparser)
    return options


def test_docs_cite_only_real_cli_flags():
    from repro.cli import build_parser

    perfbench_help = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--help"],
        capture_output=True, text=True, check=True).stdout
    known = (parser_options(build_parser()) | THIRD_PARTY_FLAGS
             | set(re.findall(FLAG, perfbench_help)))
    cited = set(re.findall(FLAG, read_docs()))
    assert cited  # the docs do cite flags
    assert sorted(cited - known) == []
