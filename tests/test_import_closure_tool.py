"""tools/import_closure.py lists the repro modules a workload loads and
names those that no call entered."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "import_closure.py"
_spec = importlib.util.spec_from_file_location("import_closure", _PATH)
import_closure = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_closure)


def test_one_jobs_item(capsys):
    loaded, entered = import_closure.import_closure("jobs-dag", 0, 1)
    assert entered <= set(loaded)
    assert {"repro.sim.engine", "repro.core.runtime.scheduler"} <= entered
    # the workload module imports the serving harness, which a jobs
    # item never calls
    assert "repro.serving.gateway" in set(loaded) - entered
    assert all(lines > 0 for lines in loaded.values())
    assert import_closure.main(["--items", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("jobs-dag, seed 0, items 0-0: ")
    idle = out[out.index("") + 1:]
    assert idle[0].startswith("not entered by any call: ")
    assert any(line.endswith("  repro.serving.gateway") for line in idle)
