"""One unit of measured work, run in a fresh child process.

Usage: ``python3 perfbench/worker.py < task.json``; the result is printed
as one JSON line.  A fresh process per unit starts every build from a
cold heap and gives each one its own peak RSS.

Tasks:

* ``build``  — edge file → graph (CSR or ``.diskcsr``) → FND → flat
  index → saved ``.npz`` (what ``repro-nucleus build-index`` does).
* ``query``  — load a saved index (mmap) and answer a request list
  in-process, timing each call.
* ``tiny``   — one checked pass over a batch of tiny graphs (CSR,
  decompose at three (r,s), flat index, no save), then queries on its
  indexes.
* ``tiny_pass`` — one more timed pass over the batch, nothing kept.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import TINY_RS, lam_hash, tree_hash  # noqa: E402
from tracing import Recorder, quantile  # noqa: E402

import repro  # noqa: E402
from repro import backends  # noqa: E402
from repro.core.csr_peel import truss_incidence  # noqa: E402
from repro.external.build import build_diskcsr  # noqa: E402
from repro.flatindex import FlatHierarchyIndex  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.io import load_edge_list  # noqa: E402

#: edge count below which the CSR engine runs its pure-python paths
#: (the larger of the two numpy thresholds in ``repro.graph.csr``)
SMALL_GRAPH_EDGES = 512

#: timed passes over a query list
QUERY_PASSES = 3

_PEELS = {(1, 2): backends.core_peel, (2, 3): backends.truss_peel,
          (3, 4): backends.nucleus34_peel}


def peak_rss_of(pid: int | str) -> float:
    """Peak RSS of a process since its exec, from ``VmHWM`` (``ru_maxrss``
    would also count the parent's pages a forked child held before
    exec)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def answer(index, request: dict):
    if request["op"] == "max_nucleus":
        return index.max_nucleus(request["cell"])
    return index.communities_of_vertex(request["vertex"], request["k"])


def answer_cells(result) -> int:
    if result and isinstance(result[0], list):
        return sum(len(cells) for cells in result)
    return len(result)


def task_build(task: dict) -> dict:
    rec = Recorder(task["run"], enabled=task["trace"])
    r, s, backend = task["r"], task["s"], task["backend"]
    with rec.span("build"):
        with rec.span("setup"):
            if backend == "disk":
                with rec.span("external.build"):
                    graph = build_diskcsr(task["edge_file"], task["disk_dir"],
                                          block_ints=task["block_ints"],
                                          cache_blocks=task["cache_blocks"])
            else:
                with rec.span("graph.parse"):
                    loaded = load_edge_list(task["edge_file"])
                with rec.span("graph.csr"):
                    graph = CSRGraph.from_graph(loaded)
                del loaded
        with rec.span("hierarchy"):
            with rec.span("core.fnd"):
                result = backends.decompose(graph, r, s, backend=backend)
        with rec.span("index"):
            if task["trace"]:  # split the work save() and __init__ fuse
                with rec.span("core.condense"):
                    result.hierarchy.condense()
            with rec.span("flatindex.build"):
                index = FlatHierarchyIndex(result)
            if task["trace"]:
                with rec.span("flatindex.stats"):
                    index.precompute_stats()
            with rec.span("flatindex.save"):
                index.save(task["index_path"])
    out = {"rss_mb": peak_rss_of("self"), "totals": rec.totals}
    oracle = task["oracle"]
    mismatches = []
    if lam_hash(result.lam) != oracle["lam_hash"]:
        mismatches.append("lambda differs from the object engine")
    if tree_hash(result.hierarchy) != oracle["tree_hash"]:
        mismatches.append("condensed hierarchy differs from the object engine")
    out["mismatches"] = mismatches
    if task["trace"]:
        rec.count("graph.edges", graph.m)
        rec.count("core.peel_cells", len(result.lam))
        rec.count("core.subnuclei", result.fnd_stats.num_subnuclei)
        rec.count("core.adj_links",
                  result.fnd_stats.num_downward_connections)
        rec.count("core.nodes", index.num_nodes)
        rec.count("flatindex.bytes", Path(task["index_path"]).stat().st_size)
        if backend == "disk":
            rec.count("external.block_reads", graph.io.reads)
            rec.count("external.ints_read", graph.io.ints_read)
        # fused layers, called standalone on the same input
        with rec.span("standalone"):
            with rec.span("core.peel"):
                _PEELS[(r, s)](graph, backend=backend)
            if backend == "csr" and (r, s) == (2, 3):
                with rec.span("core.incidence"):
                    incidence = truss_incidence(graph)
                rec.count("core.incidence_entries", len(incidence[2]))
        out["spans"] = rec.spans
        out["counters"] = rec.counters
    if backend == "disk":
        graph.close()
        shutil.rmtree(task["disk_dir"], ignore_errors=True)
    return out


def run_queries(requests, index_of) -> dict:
    """Answer ``requests`` one call at a time, closed loop: one untimed
    pass that warms the mapped index pages (a serving index is warm),
    then :data:`QUERY_PASSES` timed passes pooled.  CPU speed on a shared
    host drifts by ±20 % from one second to the next, so a sub-second
    timed window would make p50 jump between runs."""
    latencies, failures, cells = [], 0, 0
    for timed in [False] + [True] * QUERY_PASSES:
        for index_key, request in requests:
            began = time.perf_counter()
            try:
                result = answer(index_of(index_key), request)
            except Exception:  # a failed operation, not fatal
                failures += timed
                continue
            if timed:
                latencies.append(time.perf_counter() - began)
                cells += answer_cells(result)
    return {"latencies": latencies, "failures": failures, "cells": cells,
            "attempted": len(requests) * QUERY_PASSES}


def task_query(task: dict) -> dict:
    rec = Recorder(task["run"], enabled=task["trace"])
    with rec.span("flatindex.load"):
        index = backends.load_query_index(task["index_path"])
    out = run_queries([(None, q) for q in task["requests"]],
                      lambda _key: index)
    out.update(rss_mb=peak_rss_of("self"), totals=rec.totals)
    return out


def _tiny_pass(graphs, rec: Recorder, keep: bool):
    """One pass over the batch; returns per-graph seconds and, with
    ``keep``, every decomposition and index."""
    per_graph, kept = [], []
    for n, edges in graphs:
        began = time.perf_counter()
        with rec.span("graph"):
            with rec.span("graph.csr"):
                csr = CSRGraph.from_edges(edges, n=n)
            for r, s in TINY_RS:
                with rec.span("core.fnd"):
                    result = repro.decompose(csr, r, s)
                with rec.span("flatindex.build"):
                    index = FlatHierarchyIndex(result)
                if keep:
                    kept.append((result, index))
        per_graph.append(time.perf_counter() - began)
    return per_graph, kept


def task_tiny(task: dict) -> dict:
    payload = json.loads(Path(task["tiny_file"]).read_text())
    graphs, oracle = payload["graphs"], payload["oracle"]
    out: dict = {"graphs": len(graphs),
                 "edges": sum(len(edges) for _n, edges in graphs),
                 "decompositions": len(graphs) * len(TINY_RS)}
    if task["trace"]:  # untraced reference pass for the tracing overhead
        began = time.perf_counter()
        _tiny_pass(graphs, Recorder(enabled=False), keep=False)
        out["plain_wall"] = time.perf_counter() - began
    # the pass keeps its results: checked against the oracle, and its
    # indexes answer the query list
    first = Recorder("pass-0", enabled=task["trace"])
    began = time.perf_counter()
    per_graph, kept = _tiny_pass(graphs, first, keep=True)
    passes = [{"wall": time.perf_counter() - began, "totals": first.totals}]
    mismatches = []
    for i, ((result, _index), expected) in enumerate(zip(kept, oracle)):
        if (lam_hash(result.lam) != expected["lam_hash"]
                or tree_hash(result.hierarchy) != expected["tree_hash"]):
            graph, which = divmod(i, len(TINY_RS))
            mismatches.append(f"graph {graph} at (r,s)={TINY_RS[which]} "
                              f"differs from the object engine")
    indexes = [index for _result, index in kept]
    out["queries"] = run_queries(
        [((i, j), q) for i, j, q in payload["requests"]],
        lambda key: indexes[key[0] * len(TINY_RS) + key[1]])
    out.update(
        passes=passes, mismatches=mismatches, rss_mb=peak_rss_of("self"),
        per_graph_us_p50=quantile(per_graph, 0.5) * 1e6,
        per_graph_us_p99=quantile(per_graph, 0.99) * 1e6,
        below_threshold_share=sum(len(edges) < SMALL_GRAPH_EDGES
                                  for _n, edges in graphs) / len(graphs))
    if task["trace"]:
        out["spans"] = first.spans
    return out


def task_tiny_pass(task: dict) -> dict:
    graphs = json.loads(Path(task["tiny_file"]).read_text())["graphs"]
    rec = Recorder(enabled=False)
    began = time.perf_counter()
    _tiny_pass(graphs, rec, keep=False)
    return {"wall": time.perf_counter() - began, "totals": rec.totals}


TASKS = {"build": task_build, "query": task_query, "tiny": task_tiny,
         "tiny_pass": task_tiny_pass}


def main() -> int:
    task = json.loads(sys.stdin.read())
    try:
        out = TASKS[task["kind"]](task)
    except Exception:  # reported to the parent, which counts the failure
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
