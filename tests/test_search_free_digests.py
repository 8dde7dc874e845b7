"""Seed-0 reports do not depend on networkx path search.

Every Compute Node and inter-node network comes from ``build_tree``,
which indexes the tree, so routes, NUMA distances and diameters resolve
by LCA walks.  With the networkx shortest-path searches made to raise,
the harnesses must still produce their pinned canonical reports.
"""

import hashlib

import networkx
import pytest

from tests.test_report_digests import GOLDEN


def _no_graph_search(*args, **kwargs):
    raise AssertionError("networkx path search on a tree-indexed network")


@pytest.mark.parametrize("name", ["jobs", "chaos"])
def test_pinned_digest_without_graph_search(name, monkeypatch):
    for search in ("shortest_path", "single_source_dijkstra", "bidirectional_dijkstra"):
        monkeypatch.setattr(networkx, search, _no_graph_search)
    run, expected = GOLDEN[name]
    assert hashlib.sha256(run().encode("utf-8")).hexdigest() == expected
