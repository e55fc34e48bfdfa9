"""Density measures and dense-subgraph reports.

The motivation for nucleus decompositions is dense subgraph *discovery*:
given the hierarchy, walk its nuclei and report the densest ones.  These
helpers turn a :class:`~repro.core.decomposition.Decomposition` into the
kind of density report the nucleus papers print (size vs edge density of
each nucleus), which the examples use on the social-network scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decomposition import Decomposition
from repro.graph.adjacency import Graph

__all__ = ["edge_density", "average_degree", "NucleusReport", "densest_nuclei"]


def edge_density(graph: Graph) -> float:
    """2|E| / (|V|·(|V|-1)) — 1.0 for a clique, 0.0 for an empty graph."""
    if graph.n < 2:
        return 0.0
    return 2.0 * graph.m / (graph.n * (graph.n - 1))


def average_degree(graph: Graph) -> float:
    """2|E| / |V|."""
    return 2.0 * graph.m / graph.n if graph.n else 0.0


@dataclass
class NucleusReport:
    """One nucleus in a density report."""

    node_id: int
    k: int
    num_vertices: int
    num_edges: int
    density: float

    def __str__(self) -> str:
        return (f"nucleus[{self.node_id}] k={self.k} |V|={self.num_vertices} "
                f"|E|={self.num_edges} density={self.density:.3f}")


def densest_nuclei(decomposition: Decomposition, min_vertices: int = 4,
                   limit: int = 20) -> list[NucleusReport]:
    """The densest nuclei in a hierarchy, largest density first.

    Only nuclei with at least ``min_vertices`` vertices are reported (tiny
    cliques are trivially dense and uninteresting).  Sizes, edge counts
    and densities come from the flat index's one-pass node statistics.
    """
    if decomposition.hierarchy is None:
        raise ValueError(f"{decomposition.algorithm} produced no hierarchy")
    from repro.flatindex import FlatHierarchyIndex

    index = FlatHierarchyIndex(decomposition)
    nv, ne, density = index.precompute_stats()
    reports = [
        NucleusReport(node_id=node, k=int(index.node_k[node]),
                      num_vertices=int(nv[node]),
                      num_edges=int(ne[node]),
                      density=float(density[node]))
        for node in range(index.num_nodes)
        if node != index.root and nv[node] >= min_vertices]
    reports.sort(key=lambda rep: (-rep.density, -rep.num_vertices))
    return reports[:limit]

