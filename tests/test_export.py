"""Hierarchy JSON round-trips and DOT exports."""

import pytest
from hypothesis import given, settings

from repro.core.decomposition import nucleus_decomposition
from repro.errors import GraphFormatError
from repro.examples_graphs import figure2_graph, figure5_graph
from repro.export import (
    hierarchy_from_json,
    hierarchy_to_json,
    load_hierarchy,
    save_hierarchy,
    skeleton_to_dot,
    tree_to_dot,
)

from _graphs import small_graphs


class TestJsonRoundTrip:
    def test_identity(self):
        h = nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd").hierarchy
        restored = hierarchy_from_json(hierarchy_to_json(h))
        assert restored.lam == h.lam
        assert restored.node_lambda == h.node_lambda
        assert restored.parent == h.parent
        assert restored.comp == h.comp
        assert restored.root == h.root
        assert restored.algorithm == h.algorithm
        assert restored.canonical_nuclei() == h.canonical_nuclei()

    def test_file_round_trip(self, tmp_path):
        h = nucleus_decomposition(figure5_graph(), 1, 2, algorithm="dft").hierarchy
        path = tmp_path / "h.json"
        save_hierarchy(h, path)
        restored = load_hierarchy(path)
        restored.validate()
        assert restored.canonical_nuclei() == h.canonical_nuclei()

    def test_malformed_raises(self):
        with pytest.raises(GraphFormatError):
            hierarchy_from_json("{}")
        with pytest.raises(GraphFormatError):
            hierarchy_from_json("not json at all")

    def test_23_hierarchy_round_trip(self):
        h = nucleus_decomposition(figure2_graph(), 2, 3, algorithm="fnd").hierarchy
        restored = hierarchy_from_json(hierarchy_to_json(h))
        assert (restored.r, restored.s) == (2, 3)
        assert restored.canonical_nuclei() == h.canonical_nuclei()


class TestDot:
    def test_tree_dot_structure(self):
        result = nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd")
        dot = tree_to_dot(result.hierarchy.condense())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == len(result.hierarchy.condense()) - 1
        assert "root" in dot

    def test_skeleton_dot_edge_styles(self):
        # figure4: two equal-lambda sub-cores merged => at least one dashed edge
        from repro.examples_graphs import figure4_graph
        h = nucleus_decomposition(figure4_graph(), 1, 2, algorithm="dft").hierarchy
        dot = skeleton_to_dot(h)
        assert "dashed" in dot
        assert "solid" in dot

    def test_dot_on_empty_graph(self):
        from repro.graph.adjacency import Graph
        h = nucleus_decomposition(Graph.empty(3), 1, 2, algorithm="fnd").hierarchy
        dot = tree_to_dot(h.condense())
        assert "digraph" in dot


@given(small_graphs(max_n=10))
@settings(max_examples=25, deadline=None)
def test_round_trip_random(g):
    h = nucleus_decomposition(g, 1, 2, algorithm="fnd").hierarchy
    restored = hierarchy_from_json(hierarchy_to_json(h))
    restored.validate()
    assert restored.canonical_nuclei() == h.canonical_nuclei()


class TestNpzDispatch:
    def test_save_hierarchy_dispatches_on_suffix(self, tmp_path):
        h = nucleus_decomposition(figure2_graph(), 1, 2,
                                  algorithm="fnd").hierarchy
        path = tmp_path / "h.npz"
        save_hierarchy(h, path)
        restored = load_hierarchy(path)
        restored.validate()
        assert restored.lam == h.lam
        assert restored.canonical_nuclei() == h.canonical_nuclei()

    def test_json_path_still_json(self, tmp_path):
        h = nucleus_decomposition(figure2_graph(), 1, 2,
                                  algorithm="fnd").hierarchy
        path = tmp_path / "h.json"
        save_hierarchy(h, path)
        assert path.read_text().startswith("{")
