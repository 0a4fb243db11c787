"""Each flow imports only what it runs.

No package imports its submodules: every public name resolves on first
use (``repro.lazy_exports``).  The closure cases run in a child
interpreter, so what an earlier test imported cannot hide a load.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src")

#: Every package that re-exports names from its submodules.
PACKAGES = [
    "repro", "repro.accel", "repro.accel.winograd", "repro.boards",
    "repro.cfu", "repro.core", "repro.cpu", "repro.dse", "repro.emu",
    "repro.kernels", "repro.perf", "repro.rtl", "repro.soc", "repro.tflm",
]

#: The HTTP stack, process pools, and the serving layers built on them.
SERVING = [
    "asyncio", "ssl", "http.client", "multiprocessing", "repro.core.wire",
    "repro.emu.sessions", "repro.dse.service", "repro.dse.pool",
]


def run_child(code):
    """Run ``code`` in a fresh interpreter; return the JSON it prints
    on its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(code):
    """The modules a fresh interpreter holds after running ``code``."""
    return set(run_child(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def repro_modules(modules):
    return sorted(name for name in modules if name.startswith("repro."))


def test_import_repro_loads_no_submodule():
    assert repro_modules(loaded_after("import repro")) == []


@pytest.mark.parametrize("flow", [
    'from repro.core.project import load_project\n'
    'load_project("mnv2_first").profile(simulate=True)',
    "from repro.dse import ExhaustiveSweeper, sweep\n"
    "sweep(sweeper=ExhaustiveSweeper())",
], ids=["profile-simulate", "exhaustive-sweep"])
def test_flow_loads_no_serving_stack(flow):
    assert sorted(loaded_after(flow) & set(SERVING)) == []


#: The gateware behind the last Fig-4 rung's fit report: a full-size
#: ``Cfu1Rtl`` netlist and the RTL layers it is elaborated in.
MNV2_GATEWARE = {"repro.accel.common", "repro.accel.mnv2.rtl",
                 "repro.cfu.rtl", "repro.rtl.dsl", "repro.rtl.fsm",
                 "repro.rtl.sim"}


def test_analytic_profile_elaborates_no_gateware():
    modules = loaded_after('from repro.core.project import load_project\n'
                           'load_project("mnv2_first").profile()')
    assert sorted(modules & MNV2_GATEWARE) == []


def test_simulated_profile_elaborates_no_mnv2_gateware():
    modules = loaded_after('from repro.core.project import load_project\n'
                           'load_project("mnv2_first").profile(simulate=True)')
    assert sorted(modules & {"repro.accel.mnv2.rtl",
                             "repro.accel.common"}) == []
    assert "repro.cfu.rtl" in modules  # the emulator drives RTL CFUs too


def test_emulator_import_leaves_sessions_unloaded():
    assert "repro.emu.sessions" not in loaded_after(
        "from repro.emu import Emulator")


def test_projects_command_loads_no_dse():
    modules = loaded_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'projects']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code")
    assert "repro.cli" in modules
    assert [name for name in repro_modules(modules)
            if name == "repro.dse" or name.startswith("repro.dse.")] == []
    # The registry names the gateware without elaborating or importing it.
    assert sorted(modules & {"repro.accel.mnv2.rtl", "repro.accel.kws.rtl",
                             "repro.cfu.rtl", "repro.rtl.sim"}) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_owners_object(name):
    # In a fresh interpreter, each owner is imported before its name is
    # read: importing a submodule binds the submodule's name on the
    # package, so an export that shares it would read as the module.
    assert run_child(
        "import importlib, json\n"
        f"package = importlib.import_module({name!r})\n"
        "owners = package.__getattr__.owners\n"
        "wrong = [len(package.__all__) - len(set(package.__all__)),\n"
        "         sorted((set(package.__all__) - {'__version__'}) ^ set(owners))]\n"
        "for export, (module, attribute) in owners.items():\n"
        "    owner = importlib.import_module(module)\n"
        "    expected = owner if attribute is None else getattr(owner, attribute)\n"
        "    if getattr(package, export) is not expected:\n"
        "        wrong.append(export)\n"
        "print(json.dumps(wrong))") == [0, []]


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_lint_is_the_function_after_its_submodule_was_imported():
    assert run_child(
        "import json, repro.rtl.compile\n"
        "from types import FunctionType\n"
        "from repro.rtl import lint\n"
        "print(json.dumps(isinstance(lint, FunctionType)))")


def source_modules():
    """Every module under ``src/repro`` but ``repro.__main__``."""
    names = []
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        package = os.path.relpath(directory, SRC).replace(os.sep, ".")
        for file in sorted(files):
            if file == "__init__.py":
                names.append(package)
            elif file.endswith(".py") and file != "__main__.py":
                names.append(f"{package}.{file[:-3]}")
    return names


def test_every_module_imports_from_a_clean_start():
    """One module at a time, each with no ``repro`` module loaded, so an
    import cycle cannot hide behind an order that happens to work."""
    modules = source_modules()
    assert "repro.rtl.fsm" in modules and "repro.accel.kws.rtl" in modules
    failures = run_child(
        "import importlib, json, sys, traceback\n"
        "failures = {}\n"
        f"for name in {modules!r}:\n"
        "    for loaded in [m for m in sys.modules\n"
        "                   if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc(limit=-3)\n"
        "print(json.dumps(failures))")
    assert failures == {}


def test_fsm_syntax_needs_no_fsm_import():
    assert run_child(
        "from repro.rtl.dsl import Module\n"
        "import json\n"
        "m = Module()\n"
        "with m.FSM() as fsm:\n"
        "    with m.State('IDLE'):\n"
        "        m.next = 'RUN'\n"
        "print(json.dumps(fsm.encodings == {'IDLE': 0, 'RUN': 1}))")


def test_lazy_names_are_cached_on_the_package():
    import repro.boards

    board = repro.boards.ARTY_A7_35T
    assert vars(repro.boards)["ARTY_A7_35T"] is board
