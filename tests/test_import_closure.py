"""A process loads only the modules its run executes.

Package ``__init__``s re-export lazily (``repro.lazy_exports``) and
opt-in features (telemetry wiring, request tracing, burn-rate alerts,
the multi-node machine) are imported where they are switched on.  So a
fresh process that runs one workload must leave unloaded every module
no workload enters: each one costs start-up time in every CLI command,
e2e worker and daemon, most of it source compilation when no bytecode
is cached.
"""

import importlib
import sys
from pathlib import Path

import pytest

from tests.test_startup_imports import _modules_after

#: modules that no item of any e2e workload enters
NEVER_ENTERED = {
    "repro.hls.frontend", "repro.serving.tracing", "repro.serving.alerts",
    "repro.core.runtime.models",
    "repro.telemetry.tracing", "repro.telemetry.exporters",
    "repro.telemetry.wiring", "repro.telemetry.hub", "repro.telemetry.events",
    "repro.sim.stats", "repro.mpi.comm", "repro.mpi.topology",
    "repro.mpi.placement", "repro.core.machine", "repro.core.sync",
    "repro.fabric.scrubber", "repro.memory.ssd", "repro.memory.translation",
    "repro.interconnect.dma", "repro.pgas.migration", "repro.energy.exascale",
    "repro.shard.checkpoint",
}

_SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(_SRC).parts)
    for init in _SRC.glob("repro/**/__init__.py")
    if init.parent.name != "repro"
)


def test_kernel_import_loads_only_the_kernel():
    loaded = _modules_after("from repro.sim import Simulator, Timeout, Resource")
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro.sim",
        "repro.sim.engine", "repro.sim.process", "repro.sim.resources",
    }


def test_jobs_run_loads_no_other_workload():
    loaded = _modules_after(
        "from repro.experiments import run_jobs_experiment\n"
        "run_jobs_experiment('mini', seed=0)"
    )
    assert NEVER_ENTERED & loaded == set()
    prefixes = ("repro.serving", "repro.chaos", "repro.shard")
    assert {m for m in loaded if m.startswith(prefixes)} == set()


def test_serving_run_loads_only_the_quantiles_of_telemetry():
    loaded = _modules_after(
        "from repro.serving import run_serving_experiment\n"
        "run_serving_experiment('steady', seed=0)"
    )
    assert NEVER_ENTERED & loaded == set()
    telemetry = {m for m in loaded if m.startswith("repro.telemetry.")}
    assert telemetry == {"repro.telemetry.quantiles"}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        homes = {
            module_name
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro.") and module_name != name
            and vars(module).get(export) is value
        }
        assert homes, export
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            assert home in homes, export
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
