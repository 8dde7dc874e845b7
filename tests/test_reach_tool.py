"""tools/reach.py matches profiler dumps against ast definitions: the
key it derives from the source must be the one a code object carries."""

import importlib.util
from pathlib import Path

from repro.core import compute_node
from repro.core.runtime.jobs import JobManager
from repro.sim.stats import Histogram

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _key(code):
    return (code.co_filename, code.co_firstlineno, code.co_name)


def test_definition_keys_match_code_objects():
    defs = {(f.path, f.first_line, f.name): f for f in reach.definitions()}
    codes = {
        "JobManager._retrain": JobManager._retrain.__code__,
        "Histogram.count": Histogram.count.fget.__code__,  # decorated
        "_node_shape": compute_node._node_shape.__wrapped__.__code__,
    }
    for qualname, code in codes.items():
        assert defs[_key(code)].qualname == qualname


def test_classify_and_render(tmp_path):
    fn = reach.Function(str(reach.PACKAGE / "m.py"), 3, "f", "f", 4)
    nested = reach.Function(str(reach.PACKAGE / "m.py"), 5, "g", "f.<locals>.g", 2)
    other = reach.Function(str(reach.PACKAGE / "n.py"), 1, "h", "h", 7)
    dump = tmp_path / "reach-1-1.txt"
    dump.write_text(f"{fn.path}\t3\tf\n")
    product = reach.entered(tmp_path)
    tier1 = {(nested.path, nested.first_line, nested.name)}
    result = reach.classify([fn, nested, other], product, tier1)
    assert result == {fn: "product", nested: "tier-1 only", other: "never"}
    text = reach.render(result, modules=False, find=["g"])
    assert "3 functions (13 lines)" in text
    assert "1 modules with no product reach:\n  repro/n.py" in text
    assert "tier-1 only  repro/m.py:5 f.<locals>.g" in text
