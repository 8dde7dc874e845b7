"""ECOSCALE reproduction: reconfigurable computing + runtime for exascale.

A complete, simulation-backed implementation of the system described in
Mavroidis et al., "ECOSCALE: Reconfigurable Computing and Runtime System
for Future Exascale Systems", DATE 2016.  See README.md for the tour,
DESIGN.md for the system inventory, EXPERIMENTS.md for paper-vs-measured
results, and ``python -m repro info`` for the package map.
"""

import importlib.util
import sys

__version__ = "1.0.0"


def lazy_exports(package, table):
    """PEP 562 re-exports for the package named ``package``.

    ``table`` maps each defining module to the whitespace-separated
    public names it defines; a module is named relative to the package,
    as in ``from .module import`` without the first dot.  A name's module
    is imported on its first access, so importing a package loads none
    of its submodules and a run loads only the modules it uses.  Returns
    the package's ``(__getattr__, __dir__, __all__)``.
    """
    origin = {
        name: importlib.util.resolve_name(f".{module}", package)
        for module, names in table.items()
        for name in names.split()
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(origin[name]), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, list(origin)
