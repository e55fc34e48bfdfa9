"""FlatHierarchyIndex: parity with HierarchyIndex, batch queries, and the
persisted build-once/serve-many path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.density import NucleusReport, densest_nuclei, edge_density
from repro.backends import (
    as_backend, build_query_index, decompose, load_query_index)
from repro.core.decomposition import nucleus_decomposition
from repro.errors import GraphFormatError, InvalidParameterError
from repro.examples_graphs import bowtie, figure2_graph
from repro.export import load_hierarchy_npz, save_hierarchy_npz
from repro.flatindex import FlatHierarchyIndex
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.queries import HierarchyIndex

RS_PAIRS = [(1, 2), (2, 3), (3, 4)]


@pytest.fixture(scope="module")
def parity_graph():
    return generators.powerlaw_cluster(120, 5, 0.5, seed=9)


def _decompose(graph, backend, r, s):
    converted = as_backend(graph, "csr" if backend != "object" else "object")
    workers = 2 if backend == "csr-parallel" else None
    return decompose(converted, r, s, algorithm="fnd", backend=backend,
                     workers=workers)


def _assert_parity(decomposition, graph):
    legacy = HierarchyIndex(decomposition)
    flat = FlatHierarchyIndex(decomposition)
    num_cells = flat.num_cells
    for cell in range(num_cells):
        assert flat.node_of_cell(cell) == legacy.node_of_cell(cell)
        assert flat.max_nucleus(cell) == sorted(legacy.max_nucleus(cell))
    for cell in range(0, num_cells, 5):
        for k in range(decomposition.lam[cell] + 1):
            assert flat.nucleus_at(cell, k) == \
                sorted(legacy.nucleus_at(cell, k))
    for k in (1, 2, 3):
        for vertex in range(graph.n):
            ours = flat.communities_of_vertex(vertex, k)
            theirs = [sorted(c)
                      for c in legacy.communities_of_vertex(vertex, k)]
            assert ours == theirs
    for vertex in range(graph.n):
        assert flat.profile(vertex) == legacy.profile(vertex)


class TestParity:
    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_matches_legacy_index(self, parity_graph, backend, rs):
        decomposition = _decompose(parity_graph, backend, *rs)
        _assert_parity(decomposition, parity_graph)

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_matches_legacy_index_parallel(self, parity_graph, rs):
        decomposition = _decompose(parity_graph, "csr-parallel", *rs)
        _assert_parity(decomposition, parity_graph)

    @pytest.mark.parametrize("algorithm", ["naive", "dft", "lcps"])
    def test_other_algorithms_index_too(self, parity_graph, algorithm):
        decomposition = nucleus_decomposition(parity_graph, 1, 2,
                                              algorithm=algorithm)
        _assert_parity(decomposition, parity_graph)


class TestBatchVariants:
    @pytest.fixture(scope="class")
    def flat(self, parity_graph):
        return FlatHierarchyIndex(
            decompose(parity_graph, 2, 3, algorithm="fnd", backend="csr"))

    def test_max_nucleus_batch(self, flat):
        cells = np.arange(flat.num_cells)
        batch = flat.max_nucleus_batch(cells)
        assert len(batch) == flat.num_cells
        for cell, answer in zip(cells.tolist(), batch):
            assert answer.tolist() == flat.max_nucleus(cell)

    def test_nucleus_at_batch(self, flat):
        cells = [c for c in range(flat.num_cells) if flat.lam[c] >= 1]
        for answer, cell in zip(flat.nucleus_at_batch(cells, 1), cells):
            assert answer.tolist() == flat.nucleus_at(cell, 1)

    def test_nucleus_at_batch_rejects_shallow_cells(self, flat):
        shallow = int(np.argmin(flat.lam))
        with pytest.raises(InvalidParameterError):
            flat.nucleus_at_batch([shallow], int(flat.lam[shallow]) + 1)

    def test_communities_batch(self, flat, parity_graph):
        vertices = list(range(parity_graph.n))
        batch = flat.communities_of_vertex_batch(vertices, 2)
        for vertex, communities in zip(vertices, batch):
            assert [c.tolist() for c in communities] == \
                flat.communities_of_vertex(vertex, 2)

    def test_profile_batch(self, flat, parity_graph):
        vertices = list(range(parity_graph.n))
        batch = flat.profile_batch(vertices)
        for vertex, levels in zip(vertices, batch):
            assert levels == flat.profile(vertex)

    def test_out_of_range_vertices_are_empty(self, flat):
        batch = flat.communities_of_vertex_batch([-3, 10 ** 6], 1)
        assert batch == [[], []]
        assert flat.profile_batch([10 ** 6]) == [[]]

    def test_rejects_non_flat_input(self, flat):
        with pytest.raises(InvalidParameterError):
            flat.communities_of_vertex_batch([[0, 1], [2, 3]], 1)


class TestStructure:
    def test_is_ancestor_matches_tree(self, parity_graph):
        decomposition = decompose(parity_graph, 2, 3, algorithm="fnd",
                                  backend="csr")
        flat = FlatHierarchyIndex(decomposition)
        tree = decomposition.hierarchy.condense()
        for node in tree.nodes:
            for other in tree.nodes:
                # interval test vs an explicit parent walk
                current, found = other.id, False
                while current is not None:
                    if current == node.id:
                        found = True
                        break
                    current = tree[current].parent
                assert flat.is_ancestor(node.id, other.id) == found

    def test_rejects_hypo(self, parity_graph):
        decomposition = nucleus_decomposition(parity_graph, 1, 2,
                                              algorithm="hypo")
        with pytest.raises(InvalidParameterError):
            FlatHierarchyIndex(decomposition)

    def test_nucleus_at_too_deep_raises(self):
        flat = FlatHierarchyIndex(
            nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd"))
        with pytest.raises(InvalidParameterError):
            flat.nucleus_at(10, 3)

    def test_figure2_answers(self):
        flat = FlatHierarchyIndex(
            nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd"))
        assert flat.max_nucleus(0) == [0, 1, 2, 3]
        assert flat.nucleus_at(0, 2) == list(range(10))
        assert flat.nucleus_at(0, 1) == list(range(11))

    def test_bowtie_center_two_communities(self):
        flat = FlatHierarchyIndex(
            nucleus_decomposition(bowtie(), 2, 3, algorithm="fnd"))
        communities = flat.communities_of_vertex(0, 1)
        assert len(communities) == 2
        assert all(len(c) == 3 for c in communities)


def _oracle_stats(flat, decomposition):
    """Per node: the induced subgraph of its cells, materialised."""
    graph, view = decomposition.graph, decomposition.view
    out = []
    for node in range(flat.num_nodes):
        sub = graph.subgraph(view.vertices_of_cells(
            flat.community_cells(node).tolist()))
        out.append((sub.n, sub.m, edge_density(sub)))
    return out


def _kernel_stats(flat):
    nv, ne, density = flat.precompute_stats()
    return [(int(a), int(b), float(c))
            for a, b, c in zip(nv, ne, density)]


def _vertex_node_pairs(flat, vertex):
    """(ancestor-related, unrelated) pair counts among a vertex's nodes."""
    nodes = flat.nodes_of_vertex(vertex).tolist()
    related = unrelated = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if flat.is_ancestor(a, b) or flat.is_ancestor(b, a):
                related += 1
            else:
                unrelated += 1
    return related, unrelated


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _windmill(blades):
    """``blades`` triangles sharing only the hub vertex 0."""
    edges = []
    for blade in range(blades):
        a, b = 2 * blade + 1, 2 * blade + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * blades + 1, edges)


#: small graphs that reach the corners of the statistics kernel
EDGE_CASE_GRAPHS = {
    "empty": Graph(0, []),
    "single-vertex": Graph(1, []),
    "edgeless": Graph(4, []),
    "k4-tail": Graph(7, _K4 + [(3, 4), (4, 5), (5, 6)]),
    "chain": Graph(5, _K4 + [(0, 4)]),
    "siblings": bowtie(),
    "windmill": _windmill(6),
}


class TestNodeStatistics:
    """The one-pass kernel equals the per-node subgraph, exactly."""

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_matches_subgraph_oracle(self, parity_graph, backend, rs):
        decomposition = _decompose(parity_graph, backend, *rs)
        flat = FlatHierarchyIndex(decomposition)
        assert _kernel_stats(flat) == _oracle_stats(flat, decomposition)

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    @pytest.mark.parametrize("name", sorted(EDGE_CASE_GRAPHS))
    def test_edge_cases_match_oracle(self, name, backend, rs):
        decomposition = _decompose(EDGE_CASE_GRAPHS[name], backend, *rs)
        flat = FlatHierarchyIndex(decomposition)
        assert _kernel_stats(flat) == _oracle_stats(flat, decomposition)

    def test_edge_cases_reach_every_corner(self):
        def build(name, rs):
            return FlatHierarchyIndex(
                _decompose(EDGE_CASE_GRAPHS[name], "object", *rs))

        assert build("empty", (1, 2)).num_nodes == 1
        assert build("edgeless", (2, 3)).num_nodes == 1  # a one-node tree
        assert build("single-vertex", (1, 2)).precompute_stats()[0][0] == 1
        assert build("edgeless", (2, 3)).precompute_stats()[0][0] == 0
        tail = build("k4-tail", (3, 4))
        assert len(tail.nodes_of_vertex(5)) == 0  # in no triangle
        assert tail.precompute_stats()[0][tail.root] == 4
        # vertex 0's nodes form one chain (the K4 nucleus inside the
        # pendant edge's level), so pruning drops the outer one
        assert _vertex_node_pairs(build("chain", (2, 3)), 0) == (1, 0)
        # the bowtie centre sits in two sibling nuclei
        assert _vertex_node_pairs(build("siblings", (2, 3)), 0) == (0, 1)
        # the windmill hub sits in one sibling nucleus per blade
        assert _vertex_node_pairs(build("windmill", (2, 3)), 0) == (0, 15)

    def test_hub_in_many_siblings_scales(self):
        """A hub in thousands of sibling nuclei: each hub edge inserts
        the leaf's one node into the hub's node list, so the pass stays
        near-linear instead of growing with blades x edges."""
        blades = 3000
        graph = as_backend(_windmill(blades), "csr")
        flat = FlatHierarchyIndex(decompose(graph, 2, 3, algorithm="fnd",
                                            backend="csr"))
        assert len(flat.nodes_of_vertex(0)) == blades
        nv, ne, density = flat.precompute_stats()
        assert (int(nv[flat.root]), int(ne[flat.root])) == \
            (2 * blades + 1, 3 * blades)
        blade_nodes = flat.nodes_of_vertex(0)
        assert np.all(nv[blade_nodes] == 3) and np.all(ne[blade_nodes] == 3)
        assert np.all(density[blade_nodes] == 1.0)

    def test_parity_graph_has_chains_and_siblings(self, parity_graph):
        flat = FlatHierarchyIndex(_decompose(parity_graph, "csr", 2, 3))
        pairs = [_vertex_node_pairs(flat, v) for v in range(flat.n)]
        assert any(related for related, _ in pairs)
        assert any(unrelated for _, unrelated in pairs)

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_loaded_index_recomputes_identical_arrays(
            self, parity_graph, rs, mmap_mode, tmp_path):
        decomposition = _decompose(parity_graph, "csr", *rs)
        built = FlatHierarchyIndex(decomposition)
        path = tmp_path / "lean.npz"
        built.save(path, stats=False)
        loaded = FlatHierarchyIndex.load(path, graph=decomposition.graph,
                                         mmap_mode=mmap_mode)
        for ours, theirs in zip(loaded.precompute_stats(),
                                built.precompute_stats()):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_load_view_argument_is_deprecated(self, parity_graph,
                                               tmp_path):
        decomposition = _decompose(parity_graph, "csr", 2, 3)
        built = FlatHierarchyIndex(decomposition)
        path = tmp_path / "lean.npz"
        built.save(path, stats=False)
        with pytest.warns(DeprecationWarning, match="view"):
            loaded = FlatHierarchyIndex.load(path, decomposition.graph,
                                             decomposition.view)
        with pytest.warns(DeprecationWarning, match="view"):
            via_backends = load_query_index(path, graph=decomposition.graph,
                                            view=decomposition.view)
        for index in (loaded, via_backends):
            assert np.array_equal(index.precompute_stats()[1],
                                  built.precompute_stats()[1])

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_densest_nuclei_matches_per_node_loop(self, parity_graph,
                                                  backend, rs):
        decomposition = _decompose(parity_graph, backend, *rs)
        for min_vertices, limit in ((4, 20), (2, 1000), (10, 3)):
            assert densest_nuclei(decomposition, min_vertices, limit) == \
                _densest_reference(decomposition, min_vertices, limit)


def _densest_reference(decomposition, min_vertices, limit):
    """``densest_nuclei`` as a per-node subgraph loop (the old code)."""
    tree = decomposition.hierarchy.condense()
    reports = []
    for node in tree.nodes:
        if node.id == tree.root:
            continue
        vertices = decomposition.view.vertices_of_cells(
            tree.subtree_cells(node.id))
        if len(vertices) < min_vertices:
            continue
        sub = decomposition.graph.subgraph(vertices)
        reports.append(NucleusReport(
            node_id=node.id, k=node.k, num_vertices=sub.n, num_edges=sub.m,
            density=edge_density(sub)))
    reports.sort(key=lambda rep: (-rep.density, -rep.num_vertices))
    return reports[:limit]


class TestPersistence:
    @pytest.fixture(scope="class")
    def built(self, parity_graph):
        return FlatHierarchyIndex(
            decompose(parity_graph, 2, 3, algorithm="fnd", backend="csr"))

    def test_round_trip(self, built, parity_graph, tmp_path):
        path = tmp_path / "index.npz"
        built.save(path)
        loaded = FlatHierarchyIndex.load(path)
        assert loaded.r == built.r and loaded.s == built.s
        assert loaded.algorithm == built.algorithm
        vertices = list(range(parity_graph.n))
        fresh = built.communities_of_vertex_batch(vertices, 2)
        again = loaded.communities_of_vertex_batch(vertices, 2)
        for row_a, row_b in zip(fresh, again):
            assert [c.tolist() for c in row_a] == [c.tolist() for c in row_b]
        # stats were persisted: profiles answer with no graph attached
        assert loaded.graph is None
        assert loaded.profile_batch(vertices) == \
            built.profile_batch(vertices)

    def test_stats_false_profile_needs_graph(self, built, parity_graph,
                                             tmp_path):
        path = tmp_path / "lean.npz"
        built.save(path, stats=False)
        loaded = FlatHierarchyIndex.load(path)
        assert loaded.communities_of_vertex(0, 1) == \
            built.communities_of_vertex(0, 1)
        with pytest.raises(InvalidParameterError):
            loaded.profile(0)
        attached = FlatHierarchyIndex.load(path, graph=parity_graph)
        assert attached.profile(0) == built.profile(0)

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(GraphFormatError):
            FlatHierarchyIndex.load(path)

    def test_wrong_payload_raises(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(GraphFormatError):
            FlatHierarchyIndex.load(path)

    def test_fresh_process_round_trip(self, built, parity_graph, tmp_path):
        """save → load → query in a brand-new interpreter."""
        path = tmp_path / "served.npz"
        built.save(path)
        vertices = list(range(0, parity_graph.n, 3))
        script = (
            "import json, sys\n"
            "from repro.flatindex import FlatHierarchyIndex\n"
            "index = FlatHierarchyIndex.load(sys.argv[1])\n"
            "vertices = json.loads(sys.argv[2])\n"
            "answers = [[c.tolist() for c in row] for row in\n"
            "           index.communities_of_vertex_batch(vertices, 2)]\n"
            "profiles = [[(lvl.k, lvl.node_id, lvl.num_vertices,\n"
            "              lvl.num_edges, lvl.density) for lvl in row]\n"
            "            for row in index.profile_batch(vertices)]\n"
            "print(json.dumps({'answers': answers, 'profiles': profiles}))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        out = subprocess.run(
            [sys.executable, "-c", script, str(path), json.dumps(vertices)],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        served = json.loads(out.stdout)
        expected = [[c.tolist() for c in row] for row in
                    built.communities_of_vertex_batch(vertices, 2)]
        assert served["answers"] == expected
        expected_profiles = [
            [(lvl.k, lvl.node_id, lvl.num_vertices, lvl.num_edges,
              lvl.density) for lvl in row]
            for row in built.profile_batch(vertices)]
        assert [[tuple(lvl) for lvl in row] for row in served["profiles"]] \
            == expected_profiles


class TestHierarchyNpz:
    def test_round_trip(self, parity_graph, tmp_path):
        hierarchy = decompose(parity_graph, 2, 3, algorithm="fnd",
                              backend="csr").hierarchy
        path = tmp_path / "h.npz"
        save_hierarchy_npz(hierarchy, path)
        restored = load_hierarchy_npz(path)
        restored.validate()
        assert restored.lam == hierarchy.lam
        assert restored.node_lambda == hierarchy.node_lambda
        assert restored.parent == hierarchy.parent
        assert restored.comp == hierarchy.comp
        assert restored.root == hierarchy.root
        assert restored.algorithm == hierarchy.algorithm

    def test_index_from_persisted_hierarchy(self, parity_graph, tmp_path):
        """hierarchy .npz + graph → index, no re-peeling, same answers."""
        decomposition = decompose(parity_graph, 2, 3, algorithm="fnd",
                                  backend="csr")
        path = tmp_path / "h.npz"
        save_hierarchy_npz(decomposition.hierarchy, path)
        rebuilt = FlatHierarchyIndex(hierarchy=load_hierarchy_npz(path),
                                     graph=decomposition.graph)
        direct = FlatHierarchyIndex(decomposition)
        for vertex in range(0, parity_graph.n, 7):
            assert rebuilt.communities_of_vertex(vertex, 2) == \
                direct.communities_of_vertex(vertex, 2)

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"nope")
        with pytest.raises(GraphFormatError):
            load_hierarchy_npz(path)


class TestWiring:
    def test_build_query_index(self, parity_graph):
        index = build_query_index(parity_graph, 2, 3, backend="csr")
        assert isinstance(index, FlatHierarchyIndex)
        assert (index.r, index.s) == (2, 3)
        assert index.num_cells == parity_graph.m

    def test_flat_index_requires_graph_with_bare_hierarchy(self,
                                                           parity_graph):
        hierarchy = decompose(parity_graph, 1, 2).hierarchy
        with pytest.raises(InvalidParameterError):
            FlatHierarchyIndex(hierarchy=hierarchy)

    def test_lazy_legacy_index_builds_nothing_up_front(self, parity_graph):
        decomposition = decompose(parity_graph, 2, 3, algorithm="fnd",
                                  backend="csr")
        index = HierarchyIndex(decomposition)
        assert index._tree is None
        assert index._vertex_map is None
        index.communities_of_vertex(0, 1)
        assert index._vertex_map is not None
