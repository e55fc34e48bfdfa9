"""Coverage for remaining paths: LCPS skeleton export, (3,4) queries,
disk directory placement, dataset export via CLI, generic API dispatch."""

import pytest

from repro.core.decomposition import nucleus_decomposition
from repro.export import skeleton_to_dot, tree_to_dot
from repro.external.diskcsr import as_diskcsr
from repro.graph import generators
from repro.queries import HierarchyIndex


class TestLcpsSkeletonExport:
    def test_chain_nodes_render(self):
        # K5: LCPS opens bracket chains at levels 1..4 and splices the empty
        # ones back out; the exported skeleton must stay consistent
        g = generators.complete_graph(5)
        h = nucleus_decomposition(g, 1, 2, algorithm="lcps").hierarchy
        dot = skeleton_to_dot(h)
        assert dot.count("->") == h.num_nodes - 1
        tree_dot = tree_to_dot(h.condense())
        assert "digraph" in tree_dot

    def test_condense_contracts_chains_to_canonical(self):
        g = generators.complete_graph(5)
        h = nucleus_decomposition(g, 1, 2, algorithm="lcps").hierarchy
        assert h.canonical_nuclei() == {(4, frozenset(range(5)))}


class TestQueriesOn34:
    def test_max_nucleus_of_triangle(self):
        g = generators.planted_cliques(2, 6, bridge_edges=0, seed=1)
        result = nucleus_decomposition(g, 3, 4, algorithm="fnd")
        index = HierarchyIndex(result)
        cells = index.max_nucleus(0)
        vertices = result.view.vertices_of_cells(cells)
        assert len(vertices) == 6  # one planted clique

    def test_vertex_communities_34(self):
        g = generators.planted_cliques(2, 6, bridge_edges=0, seed=1)
        result = nucleus_decomposition(g, 3, 4, algorithm="fnd")
        index = HierarchyIndex(result)
        communities = index.communities_of_vertex(0, 1)
        assert len(communities) == 1


class TestDiskDirectory:
    def test_custom_directory(self, tmp_path, k4):
        target = tmp_path / "k4.diskcsr"
        with as_diskcsr(k4, directory=target) as disk:
            assert disk.neighbors(0) == [1, 2, 3]
            assert list(tmp_path.iterdir()) == [target]
            assert (target / "meta.json").exists()


class TestGenericApiDispatch:
    @pytest.mark.parametrize("rs", [(1, 3), (2, 4), (1, 4)])
    def test_top_level_api_runs_generic(self, rs):
        r, s = rs
        g = generators.complete_graph(6)
        result = nucleus_decomposition(g, r, s, algorithm="fnd")
        result.hierarchy.validate()
        assert result.max_lambda > 0

    def test_k6_13_lambda_values(self):
        # (1,3) on K6: every vertex is in C(5,2) = 10 triangles, and the
        # nucleus peels like a 3-uniform hypergraph core
        g = generators.complete_graph(6)
        result = nucleus_decomposition(g, 1, 3, algorithm="fnd")
        assert result.lam == [10] * 6


class TestDecompositionRepr:
    def test_hierarchy_repr_and_tree_format(self):
        g = generators.ring_of_cliques(3, 4)
        result = nucleus_decomposition(g, 1, 2, algorithm="fnd")
        assert "fnd" in repr(result.hierarchy)
        text = result.hierarchy.condense().format(
            label=lambda n: f"#{n.id}")
        assert "#" in text
