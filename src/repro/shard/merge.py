"""Deterministic merging of per-node report fragments.

Fragments arrive from partitions as plain dicts (picklable across the
process backend).  Everything order-sensitive -- float accumulation,
event streams, node listings -- is folded strictly in ascending node-id
order, never in partition or completion order, so the merged canonical
JSON is byte-identical at any partition count and on any backend.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Optional


def sum_field(fragments: Dict[int, dict], *path: str) -> float:
    """Sum a (possibly nested) numeric field in node-id order.

    Float addition is not associative-in-practice across orderings, so
    the fold order is part of the byte-identity contract.
    """
    total = 0.0
    for node_id in sorted(fragments):
        value: Any = fragments[node_id]
        for key in path:
            value = value[key]
        total += value
    return total


def max_field(fragments: Dict[int, dict], *path: str) -> float:
    best = None
    for node_id in sorted(fragments):
        value: Any = fragments[node_id]
        for key in path:
            value = value[key]
        if best is None or value > best:
            best = value
    return 0.0 if best is None else best


def merged_report(
    schema: str,
    header: Dict[str, Any],
    fragments: Dict[int, dict],
    sync: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """The canonical merged report dict.

    Node fragments are keyed by the *string* node id (JSON object keys);
    consumers that need node order must sort numerically, and the
    serialized form is deterministic because json.dumps(sort_keys=True)
    is.  The partition count and backend are deliberately absent: they
    must not influence a single byte of this structure.
    """
    report: Dict[str, Any] = {"schema": schema}
    report.update(header)
    if sync is not None:
        report["sync"] = dict(sync)
    report["nodes"] = {
        str(node_id): fragments[node_id] for node_id in sorted(fragments)
    }
    return report


def report_json(report: Dict[str, Any], indent: Optional[int] = None) -> str:
    """Canonical serialized form (sorted keys, trailing newline)."""
    return json.dumps(report, indent=indent, sort_keys=True) + "\n"
