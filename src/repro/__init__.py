"""CFU Playground reproduction: full-stack HW/SW co-design for TinyML.

A faithful, laptop-scale reproduction of "CFU Playground: Full-Stack
Open-Source Framework for TinyML Acceleration on FPGAs" (ISPASS 2023):
an nMigen-style RTL toolkit, an RV32IM soft CPU with a VexRiscv-style
configuration space, a LiteX-style SoC builder with board models, a
TFLite-Micro-compatible int8 inference stack, the Custom Function Unit
abstraction with software emulation and golden testing, a mechanistic
performance model, the paper's two optimization ladders, and a
Vizier-style design-space explorer.

Entry points:

- :class:`repro.core.Playground` — the deploy-profile-optimize loop.
- :mod:`repro.models` — the bundled MLPerf-Tiny-style model zoo.
- :mod:`repro.core.ladders` — the Fig. 4 / Fig. 6 ladders.
- :mod:`repro.dse` — the Fig. 7 design-space exploration.

A package that re-exports its submodules' names does not import them:
it declares which submodule owns each name, and :func:`lazy_exports`
imports the owner on first use, so a flow loads only the code it runs.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package, table, modules=()):
    """Resolve a package's public names on first use (PEP 562).

    ``table`` maps each submodule of ``package`` (its name relative to
    the package) to the names the package re-exports from it; an entry
    ``"emit as emit_verilog"`` exports the submodule's ``emit`` under
    another name.  ``modules`` lists submodules exported as themselves.
    Returns ``(__all__, __getattr__, __dir__)`` for the package to
    bind.  A resolved name is stored in the package namespace, so its
    ``__getattr__`` runs once per name; an unknown name raises
    :class:`AttributeError`, so ``hasattr`` works.
    ``__getattr__.owners`` maps each name to ``(module, attribute)``,
    or to ``(module, None)`` for a submodule exported as itself.
    """
    owners = {}
    for module, entries in table.items():
        for entry in entries:
            attribute, _, name = entry.rpartition(" as ")
            owners[name] = (f"{package}.{module}", attribute or name)
    owners.update((name, (f"{package}.{name}", None)) for name in modules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module, attribute = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | owners.keys())

    __getattr__.owners = owners
    return list(owners), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"core": ["Playground"]},
    modules=["boards", "cfu", "core", "cpu", "dse", "emu", "kernels",
             "models", "perf", "rtl", "soc", "tflm"])
__all__.append("__version__")
