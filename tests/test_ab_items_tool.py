"""tools/ab_items.py loads two source trees into one process, runs the
same e2e items under each, and leaves the caller's own modules alone."""

import importlib.util
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_items", ROOT / "tools" / "ab_items.py")
ab_items = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_items)


def test_tree_against_itself(capsys):
    before = {name: mod for name, mod in sys.modules.items() if ab_items._owned(name)}
    result = ab_items.compare(ROOT, ROOT, "jobs-dag", seed=0, items=2, rounds=1)
    assert result["digest_mismatches"] == []
    q1, median, q3 = result["ratio_quartiles"]
    assert 0 < q1 <= median <= q3
    assert result["a_median_ms"] > 0 and result["b_median_ms"] > 0
    # the caller's repro is back, and nothing of the trees is left
    after = {name: mod for name, mod in sys.modules.items() if ab_items._owned(name)}
    assert after == before
    assert sys.modules["repro"] is repro

    assert ab_items.main([str(ROOT), str(ROOT), "--items", "1", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "report digests identical on every item" in out
