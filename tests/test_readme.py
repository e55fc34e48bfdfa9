"""The README's code blocks, executed — documentation rot protection."""

import repro


class TestQuickstartSnippet:
    def test_verbatim_quickstart(self):
        graph = repro.generators.powerlaw_cluster(300, 8, 0.6, seed=7)
        result = repro.nucleus_decomposition(graph, r=2, s=3, algorithm="fnd")
        assert result.max_lambda > 0
        tree = result.hierarchy.condense()
        assert "k=0" in tree.format(max_nodes=20)
        reports = repro.densest_nuclei(result, min_vertices=5)
        assert all(r.num_vertices >= 5 for r in reports)


class TestHelperSnippet:
    def test_all_advertised_helpers(self):
        graph = repro.generators.powerlaw_cluster(80, 5, 0.6, seed=1)
        assert len(repro.core_numbers(graph)) == graph.n
        assert isinstance(repro.k_core(graph, 3), list)
        assert repro.k_core_subgraph(graph, 3).n == graph.n
        assert len(repro.truss_numbers(graph)) == graph.m
        assert isinstance(repro.truss_communities(graph, 4), list)
        assert repro.k_dense(graph, 4).n == graph.n
        index = repro.build_tcp_index(graph)
        assert isinstance(index.communities_of(0, 3), list)


class TestBeyondPaperSnippet:
    def test_all_advertised_extensions(self):
        g = repro.generators.powerlaw_cluster(60, 4, 0.5, seed=2)
        maintainer = repro.IncrementalCoreMaintainer(g)
        assert maintainer.core_numbers() == repro.core_numbers(g)

        semi = repro.semi_external_core_decomposition(g)
        assert semi.post_reads == 0  # fnd default

        merged = repro.decompose_by_components(g)
        assert merged.hierarchy is not None

        weights = [1.0] * g.m
        assert repro.weighted_core_numbers(g, weights) == \
            [float(x) for x in repro.core_numbers(g)]
        assert isinstance(repro.weighted_k_core(g, 2.0, weights), list)

        dg = repro.DirectedGraph(g.n, list(g.edges()))
        in_core, out_core = repro.directed_core_numbers(dg)
        assert len(in_core) == len(out_core) == g.n

        lam = repro.uncertain_core_numbers(g, [1.0] * g.m, eta=0.9)
        assert lam == repro.core_numbers(g)
        assert isinstance(repro.uncertain_k_core(g, 1, [1.0] * g.m), list)

        tg = repro.TemporalGraph(g.n, [(u, v, 0) for u, v in g.edges()])
        assert repro.temporal_core_numbers(tg, h=1) == repro.core_numbers(g)
        assert isinstance(repro.temporal_k_core(tg, 2, h=1), list)

        assert repro.decompose(g, variant="weighted", weights=weights) == \
            repro.weighted_core_numbers(g, weights)

        result = repro.nucleus_decomposition(g, 1, 2, algorithm="fnd")
        hub = max(g.vertices(), key=g.degree)
        profile = repro.HierarchyIndex(result).profile(hub)
        assert profile

        report = repro.skeleton_report(result.hierarchy)
        assert report.num_subnuclei == result.hierarchy.num_subnuclei

        text = repro.hierarchy_to_json(result.hierarchy)
        assert repro.hierarchy_from_json(text).canonical_nuclei() == \
            result.hierarchy.canonical_nuclei()
        assert repro.tree_to_dot(result.hierarchy.condense()).startswith("digraph")
        assert "digraph" in repro.skeleton_to_dot(result.hierarchy)


class TestServingSnippet:
    def test_build_persist_serve(self, tmp_path):
        graph = repro.generators.powerlaw_cluster(150, 5, 0.5, seed=4)
        index = repro.build_query_index(graph, 2, 3, backend="csr")
        answers = index.communities_of_vertex_batch(range(graph.n), 2)
        assert len(answers) == graph.n
        assert len(index.profile_batch([0, 17, 93])) == 3
        path = tmp_path / "graph.npz"
        index.save(path)
        served = repro.FlatHierarchyIndex.load(path)
        again = served.communities_of_vertex_batch(range(graph.n), 2)
        for row_a, row_b in zip(answers, again):
            assert [c.tolist() for c in row_a] == [c.tolist() for c in row_b]
