"""Semi-external substrate: correctness on disk + the paper's IO claim."""

import pytest
from hypothesis import given, settings

from repro.core.decomposition import nucleus_decomposition
from repro.errors import UnknownAlgorithmError
from repro.external import (
    semi_external_core_decomposition,
    semi_external_decomposition,
)
from repro.external.diskcsr import as_diskcsr
from repro.external.engine import disk_core_peel
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.kcore import core_numbers

from _graphs import small_graphs


class TestIOStats:
    def test_snapshot_phases(self, k4):
        with as_diskcsr(k4) as disk:
            disk.io.snapshot("a")
            assert disk.degree(2) == 3  # the O(|V|) indptr is in memory
            disk.io.snapshot("b")
            assert disk.neighbors(0) == [1, 2, 3]
            disk.io.snapshot("c")
            assert disk.io.phase_delta("a", "b") == (0, 0)
            assert disk.io.phase_delta("b", "c") == (1, 3)


class TestSemiExternalCorrectness:
    @pytest.mark.parametrize("algorithm", ["naive", "dft", "fnd", "lcps"])
    def test_matches_in_memory(self, algorithm):
        g = generators.powerlaw_cluster(80, 4, 0.5, seed=6)
        thinned = generators.edge_dropout(g, 0.3, seed=7)
        result = semi_external_core_decomposition(thinned, algorithm)
        assert result.lam == core_numbers(thinned)
        expected = nucleus_decomposition(thinned, 1, 2, algorithm=algorithm) \
            .hierarchy.canonical_nuclei()
        assert result.hierarchy.canonical_nuclei() == expected

    def test_hypo_builds_nothing(self, social):
        result = semi_external_core_decomposition(social, "hypo")
        assert result.hierarchy is None

    def test_unknown_algorithm(self, social):
        with pytest.raises(UnknownAlgorithmError):
            semi_external_core_decomposition(social, "magic")


class TestPaperIoClaim:
    """§3.1: traversal IO is at least peeling-scale; FND avoids it."""

    def graph(self):
        g = generators.powerlaw_cluster(150, 5, 0.6, seed=11)
        return generators.edge_dropout(g, 0.3, seed=12)

    def test_dft_traversal_costs_another_pass(self):
        g = self.graph()
        result = semi_external_core_decomposition(g, "dft")
        # DFT's traversal re-reads essentially the whole adjacency
        assert result.post_ints >= 0.9 * result.peel_ints

    def test_naive_costs_many_passes(self):
        g = self.graph()
        naive = semi_external_core_decomposition(g, "naive")
        dft = semi_external_core_decomposition(g, "dft")
        assert naive.post_ints > 1.5 * dft.post_ints

    def test_fnd_needs_no_post_io(self):
        g = self.graph()
        result = semi_external_core_decomposition(g, "fnd")
        assert result.post_ints == 0
        assert result.post_reads == 0

    def test_passes_helper(self):
        g = self.graph()
        result = semi_external_core_decomposition(g, "dft")
        peel_passes, post_passes = result.passes(2 * g.m)
        assert peel_passes >= 0.9
        assert post_passes >= 0.9

    def test_zero_ints_per_pass(self):
        result = semi_external_core_decomposition(Graph(2, []), "fnd")
        assert result.passes(0) == (0.0, 0.0)


class TestHigherOrderIoClaim:
    """§3.1 extended: FND's zero post-peel IO holds for (2,3)/(3,4) too,
    where the disk engine spools the incidence during the peel phase."""

    def graph(self):
        g = generators.powerlaw_cluster(120, 5, 0.6, seed=21)
        return generators.edge_dropout(g, 0.3, seed=22)

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_fnd_post_io_is_zero(self, rs):
        r, s = rs
        result = semi_external_decomposition(self.graph(), r, s, "fnd")
        assert (result.r, result.s) == (r, s)
        assert result.post_ints == 0
        assert result.post_reads == 0
        assert result.peel_ints > 0

    @pytest.mark.parametrize("rs", [(2, 3), (3, 4)])
    def test_matches_in_memory_engine(self, rs):
        from repro.backends import decompose

        r, s = rs
        g = self.graph()
        result = semi_external_decomposition(g, r, s, "fnd")
        ref = decompose(g, r, s, algorithm="fnd", backend="csr")
        assert result.lam == ref.lam
        assert result.hierarchy.canonical_nuclei() == \
            ref.hierarchy.canonical_nuclei()

    def test_core_wrapper_is_12(self):
        g = self.graph()
        via_wrapper = semi_external_core_decomposition(g, "fnd")
        direct = semi_external_decomposition(g, 1, 2, "fnd")
        assert (via_wrapper.r, via_wrapper.s) == (1, 2)
        assert via_wrapper.lam == direct.lam

    def test_traversal_rejected_beyond_12(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            semi_external_decomposition(self.graph(), 2, 3, "dft")

    def test_persistent_directory(self, tmp_path):
        target = tmp_path / "semi.diskcsr"
        result = semi_external_decomposition(self.graph(), 2, 3, "fnd",
                                             directory=target)
        assert result.post_ints == 0
        assert (target / "meta.json").exists()  # kept for later runs


@given(small_graphs(max_n=10))
@settings(max_examples=25, deadline=None)
def test_disk_view_equivalence_random(g):
    with as_diskcsr(g) as disk:
        assert disk_core_peel(disk).lam == core_numbers(g)
