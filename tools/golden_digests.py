"""Check the golden report digests on any Python, without pytest.

Run from the repository root with the interpreter to check::

    python tools/golden_digests.py            # e.g. python3.12 tools/...

Imports ``tests/test_report_digests.py`` (with a stand-in for its
``pytest`` import when pytest is missing), runs each of its ``GOLDEN``
reports and prints one line per digest, then ``<version>: M/N match``.
Exits 1 if any digest differs.  The digests must match on every Python
the CI matrix runs; float sums that reach a report go through
``repro.telemetry.fold_sum`` for that reason.
"""

from __future__ import annotations

import hashlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _stand_in_pytest() -> None:
    """A ``pytest`` module whose ``mark.*`` decorators do nothing."""
    try:
        import pytest  # noqa: F401
    except ImportError:
        fake = types.ModuleType("pytest")

        class _Mark:
            def __getattr__(self, name):
                return lambda *args, **kwargs: (lambda fn: fn)

        fake.mark = _Mark()
        sys.modules["pytest"] = fake


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    _stand_in_pytest()
    import test_report_digests

    golden = test_report_digests.GOLDEN
    bad = 0
    for name in sorted(golden):
        run, expected = golden[name]
        ok = hashlib.sha256(run().encode("utf-8")).hexdigest() == expected
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}")
    version = sys.version.split()[0]
    print(f"{version}: {len(golden) - bad}/{len(golden)} match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
