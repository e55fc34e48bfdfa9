"""Seeded inputs, the object-engine oracle and request lists, cached by
(workload, seed, scale and the scale's parameters).

Everything here runs before any timing starts.  Inputs depend only on the
seed; the oracle (λ and canonical hierarchy hashes from the object engine,
which is the paper-faithful reference and never timed) and the query
request lists are derived from the inputs, so the program under test
never chooses its own questions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

from repro import backends
from repro.graph import generators
from repro.graph.io import load_edge_list, save_edge_list

#: generator parameters per scale; "full" is what BENCHMARK.json runs,
#: sized so that every run of every workload fits the benchmark's time
#: budget; "large" is the size of the seed-commit phase split in
#: README.md; "toy" is the self-test size
SCALES = {
    "full": {"hier23": (8000, 10, 0.6), "chung_lu": (30000, 2.3, 12.0),
             "tiny_graphs": 400, "tiny_n": (10, 200), "queries": 2000,
             "serve_requests": 4096},
    "large": {"hier23": (20000, 10, 0.6), "chung_lu": (100000, 2.3, 12.0),
              "tiny_graphs": 1000, "tiny_n": (10, 200), "queries": 2000,
              "serve_requests": 8192},
    "toy": {"hier23": (600, 4, 0.6), "chung_lu": (3000, 2.3, 8.0),
            "tiny_graphs": 24, "tiny_n": (10, 60), "queries": 200,
            "serve_requests": 512},
}

TINY_RS = ((1, 2), (2, 3), (3, 4))

#: the query mix as a fixed cycle of 20: one large answer (L, a low-k
#: community), 7 ``max_nucleus`` (M) and 12 high-k community (C)
#: queries.  Evenly spaced large answers make p99 measure the large
#: answers themselves rather than how they happen to cluster, and an
#: unequal M/C split keeps p50 inside one mode instead of between two.
MIX = "MCCMCCMCCMCCMCCMCCML"
#: exponent of the Zipf law over the hot set of cells/vertices
ZIPF_S = 0.8


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def lam_hash(lam) -> str:
    return digest(",".join(map(str, lam)))


def tree_hash(hierarchy) -> str:
    """Hash of the canonical condensed hierarchy (equal across engines)."""
    family = sorted((k, sorted(cells))
                    for k, cells in hierarchy.canonical_nuclei())
    return digest(repr(family))


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _picker(rng: random.Random, candidates: list[int], zipf: bool):
    """Draw from ``candidates``: uniformly, or with a Zipf-skewed hot set
    (a seeded permutation decides which candidates are hot)."""
    order = list(candidates)
    if not zipf:
        return lambda: rng.choice(order)
    rng.shuffle(order)
    cum: list[float] = []
    total = 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    return lambda: rng.choices(order, cum_weights=cum)[0]


def make_requests(rng: random.Random, lam: list[int],
                  cell_vertices: list[tuple[int, ...]] | None,
                  n: int, count: int, first: int = 0,
                  zipf: bool = False) -> list[dict]:
    """``count`` queries following :data:`MIX` from position ``first``:
    95 % small answers (``max_nucleus`` on cells with λ ≥ ⅔λmax and
    ``communities_of_vertex`` at k = ⌈⅔λmax⌉), 5 % large answers
    (``communities_of_vertex`` at k ≈ λmax/10).  Cells and vertices are
    drawn uniformly, or from a Zipf-skewed hot set with ``zipf`` (the
    served traffic, where repeats are what the coalescer can share).
    Returns [] when the index has no cell with λ ≥ 1."""
    lam_max = max(lam, default=0)
    if lam_max < 1 or count < 1:
        return []
    k_hi = -(-2 * lam_max // 3)
    k_lo = max(1, lam_max // 10)
    hot_cells = [c for c, value in enumerate(lam) if value >= k_hi]

    def vertices_at(k: int) -> list[int]:
        if cell_vertices is None:
            return list(range(n))
        seen: set[int] = set()
        for c, value in enumerate(lam):
            if value >= k:
                seen.update(cell_vertices[c])
        return sorted(seen)

    pick_cell = _picker(rng, hot_cells, zipf)
    pick_hi = _picker(rng, vertices_at(k_hi), zipf)
    pick_lo = _picker(rng, vertices_at(k_lo), zipf)
    out = []
    for i in range(first, first + count):
        kind = MIX[i % len(MIX)]
        if kind == "L":
            out.append({"op": "communities_of_vertex", "vertex": pick_lo(),
                        "k": k_lo})
        elif kind == "M":
            out.append({"op": "max_nucleus", "cell": pick_cell()})
        else:
            out.append({"op": "communities_of_vertex", "vertex": pick_hi(),
                        "k": k_hi})
    return out


def _cell_vertices(graph, r: int) -> list[tuple[int, ...]] | None:
    """Vertices of each cell id (cells are lexicographic on every engine);
    ``None`` for triangles, whose vertex-addressed queries draw from all
    vertices instead."""
    if r == 1:
        return [(v,) for v in range(graph.n)]
    if r == 2:
        return sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    return None


def _graph_oracle(graph, r: int, s: int) -> dict:
    result = backends.decompose(graph, r, s, backend="object")
    return {"lam_hash": lam_hash(result.lam),
            "tree_hash": tree_hash(result.hierarchy),
            "lam": list(result.lam)}


class Inputs:
    """Cached inputs of one (workload, seed, scale) under ``cache_root``."""

    def __init__(self, cache_root: Path, workload: str, seed: int,
                 scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.params = SCALES[scale]
        # the parameters are in the key, so resizing a scale never
        # reuses inputs or an oracle cached at the old size
        key = digest(json.dumps(self.params, sort_keys=True))[:8]
        self.dir = cache_root / f"{workload}-{seed}-{scale}-{key}"
        self.dir.mkdir(parents=True, exist_ok=True)

    @property
    def edge_file(self) -> Path:
        return self.dir / "edges.txt"

    def single_graph(self, r: int, s: int) -> dict:
        """Edge file plus oracle for the one-graph workloads."""
        oracle_path = self.dir / "oracle.json"
        if oracle_path.exists():
            return json.loads(oracle_path.read_text())
        if self.workload == "hier23-powerlaw":
            n, m, p = self.params["hier23"]
            graph = generators.powerlaw_cluster(n, m, p, seed=self.seed)
        else:
            n, gamma, degree = self.params["chung_lu"]
            graph = generators.chung_lu(n, gamma, degree, seed=self.seed)
        save_edge_list(graph, self.edge_file)
        graph = load_edge_list(self.edge_file)  # the ids the engines see
        oracle = _graph_oracle(graph, r, s)
        rng = random.Random(self.seed * 7919 + r)
        serve = self.workload == "serve-mixed"
        count = self.params["serve_requests" if serve else "queries"]
        oracle["requests"] = make_requests(
            rng, oracle.pop("lam"), _cell_vertices(graph, r), graph.n, count,
            zipf=serve)
        oracle.update(n=graph.n, m=graph.m)
        _write_json(oracle_path, oracle)
        return oracle

    def tiny_batch(self) -> dict:
        """The tiny graphs, their oracle hashes and a query list over
        their indexes."""
        path = self.dir / "tiny.json"
        if path.exists():
            return json.loads(path.read_text())
        rng = random.Random(self.seed * 104729 + 3)
        lo, hi = self.params["tiny_n"]
        graphs, oracle, requests = [], [], []
        for i in range(self.params["tiny_graphs"]):
            n = rng.randint(lo, hi)
            gseed = rng.randrange(1 << 30)
            if i % 2:
                graph = generators.powerlaw_cluster(
                    n, rng.randint(1, min(6, n - 1)), rng.uniform(0.2, 0.9),
                    seed=gseed)
            else:
                graph = generators.erdos_renyi(
                    n, min(1.0, rng.uniform(1.0, 12.0) / n), seed=gseed)
            edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
            graphs.append([graph.n, edges])
            for j, (r, s) in enumerate(TINY_RS):
                entry = _graph_oracle(graph, r, s)
                for request in make_requests(rng, entry.pop("lam"),
                                             _cell_vertices(graph, r),
                                             graph.n, 2, len(requests)):
                    requests.append([i, j, request])
                oracle.append(entry)
        payload = {"graphs": graphs, "oracle": oracle, "requests": requests}
        _write_json(path, payload)
        return payload
