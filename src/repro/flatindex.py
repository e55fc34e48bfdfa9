"""Flat-array serving index over the condensed nucleus hierarchy.

The paper's promise is *build once, query forever*: after the hierarchy is
constructed, community-search queries are tree walks.  The object-based
:class:`~repro.queries.HierarchyIndex` answers those walks through Python
dicts-of-sets, which is fine for a handful of look-ups but not for serving
traffic.  :class:`FlatHierarchyIndex` lowers the condensed tree to numpy
arrays instead:

* ``node_k`` / ``node_parent`` — the condensed tree itself (node ids are
  exactly the :class:`~repro.core.hierarchy.NucleusTree` ids);
* ``tin`` / ``tout`` — Euler-tour (preorder interval) labels, so
  "is ``x`` inside nucleus ``a``" is two comparisons and a nucleus's cell
  set is one slice of the tour-ordered cell array;
* ``cell_node`` plus a tour-sorted cell permutation — ``subtree_cells`` by
  ``searchsorted`` instead of a tree walk;
* a CSR ``vertex → condensed nodes`` map — the TCP-style vertex queries
  batch over plain array gathers;
* per-``k`` *top* pointers (shallowest ancestor still at level ``>= k``),
  computed for all nodes at once by pointer doubling and cached.

Every query of :class:`~repro.queries.HierarchyIndex` has a scalar
equivalent here with identical answers (cell lists are returned sorted
ascending), plus a vectorised **batch** variant over arrays of vertices or
cells.  :meth:`FlatHierarchyIndex.save` persists the whole index as an
uncompressed ``.npz`` (one flat binary blob per array, loadable lazily), so
``decompose → save`` runs once and a fresh process serves queries with
:meth:`FlatHierarchyIndex.load` — no re-peeling, no graph needed.
"""

from __future__ import annotations

import struct
import warnings
import zipfile
from pathlib import Path
from typing import Any, Iterable, Sequence
from zipfile import BadZipFile

import numpy as np

from repro.core.decomposition import Decomposition
from repro.core.hierarchy import Hierarchy
from repro.errors import GraphFormatError, InvalidParameterError
from repro.queries import CommunityLevel

__all__ = ["FlatHierarchyIndex", "FLAT_INDEX_FORMAT", "mmap_npz"]

#: on-disk schema version of the ``.npz`` payload
FLAT_INDEX_FORMAT = 1

#: arrays every persisted index must carry
_REQUIRED_KEYS = (
    "format", "r", "s", "n", "root", "algorithm",
    "node_k", "node_parent", "tin", "tout",
    "cell_node", "lam", "cells_in_tour", "cell_tin_sorted",
    "vert_indptr", "vert_nodes",
)

#: optional per-node profile statistics (written by ``save(stats=True)``)
_STAT_KEYS = ("node_nv", "node_ne", "node_density")


def _read_npy_header(handle: Any, version: tuple[int, int]) -> Any:
    """(shape, fortran_order, dtype) of the ``.npy`` stream at ``handle``."""
    reader = getattr(np.lib.format,
                     f"read_array_header_{version[0]}_{version[1]}", None)
    if reader is not None:
        return reader(handle)
    return np.lib.format._read_array_header(  # type: ignore[attr-defined]
        handle, version)


def mmap_npz(path: str | Path) -> dict | None:
    """Memory-map every array member of an **uncompressed** ``.npz``.

    ``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for
    zipped files, so this maps each member by hand: ``np.savez`` stores
    members with ``ZIP_STORED`` (no compression), which means every
    embedded ``.npy`` sits verbatim in the archive and can be handed to
    :class:`numpy.memmap` at its data offset.  The returned arrays are
    **read-only views of the page cache** — N processes mapping the same
    index share one physical copy, the serving analogue of
    :mod:`repro.parallel.shm`.

    Returns ``None`` when the archive cannot be mapped (a compressed or
    object-dtype member) — callers fall back to an eager load.  Raises
    :class:`GraphFormatError` on a structurally broken archive, matching
    :meth:`FlatHierarchyIndex.load`.
    """
    arrays: dict = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                return None  # compressed member: not mappable
            key = info.filename
            if key.endswith(".npy"):
                key = key[:-4]
            # the local header's name/extra lengths can differ from the
            # central directory's, so read it from the file itself
            raw.seek(info.header_offset)
            header = raw.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                raise GraphFormatError(
                    f"{path}: malformed zip local header for {info.filename}")
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            try:
                version = np.lib.format.read_magic(raw)
                shape, fortran, dtype = _read_npy_header(raw, version)
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}: member {info.filename} is not a valid .npy: "
                    f"{exc}") from exc
            if dtype.hasobject:
                return None  # pickled payload: not mappable
            count = 1
            for dim in shape:
                count *= dim
            if count == 0:
                arrays[key] = np.empty(shape, dtype=dtype)
            elif shape == ():
                # np.memmap treats an empty shape as "map the whole
                # file"; scalars are a handful of bytes — read them
                arrays[key] = np.frombuffer(
                    raw.read(dtype.itemsize), dtype=dtype).reshape(())
            else:
                arrays[key] = np.memmap(
                    path, dtype=dtype, mode="r", offset=raw.tell(),
                    shape=shape, order="F" if fortran else "C")
    return arrays


def _multi_range(starts: Any, counts: Any) -> Any:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all i."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    before = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - before, counts) + np.arange(total, dtype=np.int64)


#: edges per block, and node entries per sub-block, of the induced-edge
#: pass; together they bound its scratch memory
_BLOCK = 1 << 16


class _TourLCA:
    """O(1) lowest common ancestors of preorder positions.

    For positions ``p < q`` the shallowest node in the preorder window
    ``(p, q]`` is a child of ``lca(p, q)``, so a sparse table of
    range-minimum-depth positions answers every query with two lookups.
    """

    def __init__(self, node_parent: Any, tin: Any, tout: Any) -> None:
        num_nodes = len(tin)
        tin = np.asarray(tin, dtype=np.int64)
        pre = np.empty(num_nodes, dtype=np.int64)
        pre[tin] = np.arange(num_nodes, dtype=np.int64)
        parent = np.asarray(node_parent, dtype=np.int64)[pre]
        self.up = np.where(parent >= 0, tin[np.maximum(parent, 0)], 0)
        #: one past the last preorder position of each position's subtree
        self.end = np.asarray(tout, dtype=np.int64)[pre]
        # depth = positions opened so far minus subtrees already closed
        closed = np.bincount(self.end, minlength=num_nodes + 1)[:num_nodes]
        depth = np.arange(num_nodes, dtype=np.int64) - np.cumsum(closed)
        self.depth = depth
        levels = max(1, (num_nodes - 1).bit_length())
        table = np.empty((levels, num_nodes), dtype=np.int64)
        table[0] = np.arange(num_nodes, dtype=np.int64)
        for level in range(1, levels):
            half = 1 << (level - 1)
            prev = table[level - 1]
            left, right = prev[:num_nodes - half], prev[half:]
            table[level, :num_nodes - half] = np.where(
                depth[right] < depth[left], right, left)
            table[level, num_nodes - half:] = prev[num_nodes - half:]
        self.table = table

    def __call__(self, p: Any, q: Any) -> Any:
        """Preorder position of ``lca(p[i], q[i])`` for every i."""
        lo = np.minimum(p, q)
        hi = np.maximum(p, q)
        span = np.maximum(hi - lo, 1)
        level = np.frexp(span.astype(np.float64))[1].astype(np.int64) - 1
        first = self.table[level, np.minimum(lo + 1, len(self.up) - 1)]
        last = self.table[level, hi - (np.int64(1) << level) + 1]
        depth = self.depth
        shallow = np.where(depth[last] < depth[first], last, first)
        return np.where(lo == hi, lo, self.up[shallow])


def _edge_mass(lca: _TourLCA, keys: Any, pos: Any, start: Any, size: Any,
               big: Any, small: Any) -> tuple:
    """(+1, -1) preorder positions of the edges ``(big[i], small[i])``,
    each T(small) inserted into the larger T(big) (see
    :func:`_node_statistics`)."""
    num_nodes = len(lca.up)
    count = size[small]
    edge = np.repeat(np.arange(len(small), dtype=np.int64), count)
    at = _multi_range(start[small], count)
    x = pos[at]
    first_j = at == np.repeat(start[small], count)
    last_j = at == np.repeat(start[small] + count - 1, count)
    a_start = start[big][edge]
    a_size = size[big][edge]
    # gap of T(big) that x falls into: ``gap`` members of T(big) precede it
    gap = np.searchsorted(keys, big[edge] * num_nodes + x) - a_start
    # x opens (closes) a run when no T(small) member shares its gap before
    # (after) it
    first = first_j.copy()
    first[1:] |= gap[1:] != gap[:-1]
    last = last_j.copy()
    last[:-1] |= gap[:-1] != gap[1:]
    has_pred = first & (gap > 0)
    has_succ = last & (gap < a_size)
    split = first & (gap > 0) & (gap < a_size)
    across = first & ~first_j
    pred = pos[a_start + gap - 1]
    succ = pos[np.minimum(a_start + gap, len(pos) - 1)]
    plus = np.concatenate((lca(pred[has_pred], x[has_pred]),
                           lca(x[has_succ], succ[has_succ])))
    minus = np.concatenate((lca(pred[split], succ[split]),
                            lca(pos[at[across] - 1], x[across])))
    return plus, minus


def _node_statistics(node_parent: Any, tin: Any, tout: Any,
                     vert_indptr: Any, vert_nodes: Any,
                     src: Any, tgt: Any) -> tuple:
    """``(nv, ne, density)`` of every condensed node's induced subgraph.

    Let T(v) be the nodes whose own cells touch vertex v.  Vertex v lies
    in node a exactly when a is an ancestor-or-self of some node of T(v),
    so ``nv[a]`` counts the sets T(v) whose ancestor closure contains a.
    Over a set sorted by preorder, "+1 at every member, -1 at the LCA of
    every consecutive pair" puts exactly one unit into the subtree of each
    node of the closure, so prefix sums over ``[tin, tout)`` count it.
    Each T(v) is first pruned to its deepest nodes (same closure, fewer
    pairs).

    Edge (u, w) lies in a exactly when a is in the closures of both T(u)
    and T(w); by inclusion-exclusion that is closure(T(u)) + closure(T(w))
    - closure(T(u) + T(w)).  In unit masses the members cancel, and so do
    the consecutive pairs the merged order keeps.  Inserting the smaller
    set B into the larger A, what is left per run of B members x1..xk
    that falls between the consecutive members p, q of A is +lca(p, x1)
    + lca(xk, q) - lca(p, q) (dropping the terms with no p or no q),
    and -lca(y, x1) where y is the B member before x1 in another run.
    An edge whose endpoints have one node each reduces to the LCA of the
    two, taken directly.  Cost: O(n log N) for the vertex sets plus
    O(sum over edges of min(|T(u)|, |T(w)|) log N) for the edges, N
    nodes; edges run in blocks of at most :data:`_BLOCK` edges and about
    as many inserted set members, so the scratch memory stays bounded.
    The density is the float :func:`~repro.analysis.density.edge_density`
    computes from the same counts.
    """
    num_nodes = len(tin)
    num_vertices = len(vert_indptr) - 1
    lca = _TourLCA(node_parent, tin, tout)
    # T(v) as sorted (vertex, preorder position) keys, pruned to the
    # deepest nodes: drop x when the next node of T(v) is inside x
    tin64 = np.asarray(tin, dtype=np.int64)
    owner = np.repeat(np.arange(num_vertices, dtype=np.int64),
                      np.diff(vert_indptr))
    keys = np.sort(owner * num_nodes
                   + tin64[np.asarray(vert_nodes, dtype=np.int64)])
    owner = keys // num_nodes
    pos = keys - owner * num_nodes
    deeper = (owner[1:] == owner[:-1]) & (pos[1:] < lca.end[pos[:-1]])
    keep = np.ones(len(pos), dtype=bool)
    keep[:-1] = ~deeper
    keys, owner, pos = keys[keep], owner[keep], pos[keep]
    size = np.bincount(owner, minlength=num_vertices)
    start = np.concatenate(([0], np.cumsum(size)[:-1]))
    chained = np.nonzero(owner[1:] == owner[:-1])[0]
    # unit masses at preorder positions
    nv_mass = np.bincount(pos, minlength=num_nodes) - np.bincount(
        lca(pos[chained], pos[chained + 1]), minlength=num_nodes)
    ne_mass = np.zeros(num_nodes, dtype=np.int64)
    for lo in range(0, len(src), _BLOCK):
        u = np.asarray(src[lo:lo + _BLOCK], dtype=np.int64)
        w = np.asarray(tgt[lo:lo + _BLOCK], dtype=np.int64)
        size_u, size_w = size[u], size[w]
        single = (size_u == 1) & (size_w == 1)
        ne_mass += np.bincount(lca(pos[start[u[single]]],
                                   pos[start[w[single]]]),
                               minlength=num_nodes)
        multi = ~single & (size_u > 0) & (size_w > 0)
        swap = (size_w > size_u)[multi]
        u, w = u[multi], w[multi]
        big, small = np.where(swap, w, u), np.where(swap, u, w)
        # sub-blocks of about _BLOCK members of the smaller sets
        offset = np.cumsum(size[small]) - size[small]
        cuts = np.flatnonzero(np.diff(offset // _BLOCK)) + 1
        for part in np.split(np.arange(len(small)), cuts):
            plus, minus = _edge_mass(lca, keys, pos, start, size,
                                     big[part], small[part])
            ne_mass += np.bincount(plus, minlength=num_nodes)
            ne_mass -= np.bincount(minus, minlength=num_nodes)
    tout64 = np.asarray(tout, dtype=np.int64)
    nv_prefix = np.concatenate(([0], np.cumsum(nv_mass)))
    ne_prefix = np.concatenate(([0], np.cumsum(ne_mass)))
    nv = nv_prefix[tout64] - nv_prefix[tin64]
    ne = ne_prefix[tout64] - ne_prefix[tin64]
    density = np.zeros(num_nodes, dtype=np.float64)
    dense = nv >= 2
    density[dense] = 2.0 * ne[dense] / (nv[dense] * (nv[dense] - 1))
    return nv, ne, density


class FlatHierarchyIndex:
    """Array-backed query index over a decomposition's condensed tree.

    Build from a :class:`~repro.core.decomposition.Decomposition` (or from a
    ``hierarchy`` plus the ``graph`` it describes), or :meth:`load` a
    persisted one.  Node ids match ``hierarchy.condense()`` node-for-node,
    so answers are directly comparable with
    :class:`~repro.queries.HierarchyIndex`.
    """

    def __init__(self, decomposition: Decomposition | None = None, *,
                 hierarchy: Hierarchy | None = None,
                 graph: Any = None, view: Any = None) -> None:
        if decomposition is not None:
            hierarchy = decomposition.hierarchy
            graph = decomposition.graph
            view = decomposition.view
            algorithm = decomposition.algorithm
        else:
            algorithm = hierarchy.algorithm if hierarchy is not None else ""
        if hierarchy is None:
            raise InvalidParameterError(
                "no hierarchy to index (hypo builds none; pass a "
                "decomposition or hierarchy that has one)")
        if graph is None:
            raise InvalidParameterError(
                "FlatHierarchyIndex needs the graph to map vertices to "
                "cells (load a persisted index to serve without one)")
        if view is None:
            from repro.core.views import build_view

            view = build_view(graph, hierarchy.r, hierarchy.s)
        self.r = hierarchy.r
        self.s = hierarchy.s
        self.algorithm = algorithm
        self.graph = graph
        self.n = graph.n
        tree = hierarchy.condense()
        self.root = tree.root
        num_nodes = len(tree)
        self.node_k = np.fromiter((node.k for node in tree.nodes),
                                  dtype=np.int32, count=num_nodes)
        self.node_parent = np.fromiter(
            (-1 if node.parent is None else node.parent
             for node in tree.nodes), dtype=np.int32, count=num_nodes)
        self._label_tour(tree)
        self.cell_node = np.asarray(tree.cell_nodes(), dtype=np.int32)
        self.lam = np.asarray(hierarchy.lam, dtype=np.int32)
        self._sort_cells_by_tour()
        self._build_vertex_map(view)
        self._tops_cache: dict[int, "np.ndarray"] = {}
        self._stat_arrays: tuple | None = None
        self.mmapped = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _label_tour(self, tree: Any) -> None:
        """Preorder interval labels: subtree(a) == [tin[a], tout[a])."""
        num_nodes = len(tree)
        tin = np.zeros(num_nodes, dtype=np.int32)
        tout = np.zeros(num_nodes, dtype=np.int32)
        timer = 0
        stack: list[tuple[int, bool]] = [(tree.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                tout[node] = timer
                continue
            tin[node] = timer
            timer += 1
            stack.append((node, True))
            for child in tree[node].children:
                stack.append((child, False))
        self.tin = tin
        self.tout = tout

    def _sort_cells_by_tour(self) -> None:
        cell_tin = self.tin[self.cell_node]
        order = np.argsort(cell_tin, kind="stable")
        self.cells_in_tour = order.astype(np.int32)
        self.cell_tin_sorted = cell_tin[order]

    def _build_vertex_map(self, view: Any) -> None:
        """CSR ``vertex → sorted unique condensed nodes`` map."""
        num_cells = len(self.cell_node)
        r = self.r
        if num_cells == 0:
            verts = np.empty(0, dtype=np.int64)
        elif r == 1:
            verts = np.arange(num_cells, dtype=np.int64)
        else:
            triples = getattr(view, "_vertices", None)
            if triples is not None:  # (3,4) views keep the triple list
                verts = np.asarray(triples, dtype=np.int64).reshape(-1)
            elif r == 2 and hasattr(self.graph, "esrc"):
                verts = np.column_stack([
                    np.frombuffer(self.graph.esrc, dtype=np.int32),
                    np.frombuffer(self.graph.etgt, dtype=np.int32),
                ]).astype(np.int64).reshape(-1)
            else:
                verts = np.empty(num_cells * r, dtype=np.int64)
                cell_vertices = view.cell_vertices
                for cell in range(num_cells):
                    verts[cell * r:(cell + 1) * r] = cell_vertices(cell)
        nodes = np.repeat(self.cell_node.astype(np.int64), r)
        num_nodes = len(self.node_k)
        pairs = np.unique(verts * num_nodes + nodes)
        owners = pairs // num_nodes
        self.vert_nodes = (pairs % num_nodes).astype(np.int32)
        counts = np.bincount(owners, minlength=self.n).astype(np.int64)
        self.vert_indptr = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)

    # ------------------------------------------------------------------
    # core primitives
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cell_node)

    @property
    def num_nodes(self) -> int:
        return len(self.node_k)

    def _tops_at(self, k: int) -> Any:
        """Per node: shallowest ancestor-or-self with level >= k (-1 when
        the node itself is below k).  Pointer doubling, cached per k."""
        cached = self._tops_cache.get(k)
        if cached is not None:
            return cached
        node_ids = np.arange(self.num_nodes, dtype=np.int32)
        parent = self.node_parent
        safe_parent = np.where(parent >= 0, parent, 0)
        climb = (parent >= 0) & (self.node_k[safe_parent] >= k)
        step = np.where(climb, parent, node_ids)
        while True:
            jumped = step[step]
            if np.array_equal(jumped, step):
                break
            step = jumped
        tops = np.where(self.node_k >= k, step, np.int32(-1))
        self._tops_cache[k] = tops
        return tops

    def _subtree_slice(self, node: int) -> tuple[int, int]:
        lo = int(np.searchsorted(self.cell_tin_sorted, self.tin[node], "left"))
        hi = int(np.searchsorted(self.cell_tin_sorted, self.tout[node], "left"))
        return lo, hi

    def community_cells(self, node: int) -> Any:
        """All cells of condensed node ``node`` (sorted ascending)."""
        lo, hi = self._subtree_slice(node)
        return np.sort(self.cells_in_tour[lo:hi])

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """O(1) interval test: is ``node`` inside ``ancestor``'s subtree?"""
        return bool(self.tin[ancestor] <= self.tin[node]) and \
            bool(self.tin[node] < self.tout[ancestor])

    def nodes_of_vertex(self, vertex: int) -> Any:
        """Sorted condensed node ids whose own cells touch ``vertex``."""
        if not 0 <= vertex < self.n:
            return np.empty(0, dtype=np.int32)
        lo, hi = self.vert_indptr[vertex], self.vert_indptr[vertex + 1]
        return self.vert_nodes[lo:hi]

    # ------------------------------------------------------------------
    # scalar queries (answers identical to HierarchyIndex, cells sorted)
    # ------------------------------------------------------------------
    def node_of_cell(self, cell: int) -> int:
        """Condensed-tree node holding the cell directly."""
        return int(self.cell_node[cell])

    def max_nucleus(self, cell: int) -> list[int]:
        """Cells of the maximum nucleus of ``cell`` (Definition 3)."""
        return self.community_cells(int(self.cell_node[cell])).tolist()

    def nucleus_at(self, cell: int, k: int) -> list[int]:
        """Cells of the k-nucleus containing ``cell`` (k <= λ(cell))."""
        if k > self.lam[cell]:
            raise InvalidParameterError(
                f"cell {cell} has lambda {self.lam[cell]} < k={k}")
        top = int(self._tops_at(k)[self.cell_node[cell]])
        return self.community_cells(top).tolist()

    def communities_of_vertex(self, vertex: int, k: int) -> list[list[int]]:
        """All maximal k-level nuclei touching ``vertex`` (cell lists)."""
        return [cells.tolist()
                for cells in self.communities_of_vertex_batch([vertex], k)[0]]

    def profile(self, vertex: int) -> list[CommunityLevel]:
        """Root-to-densest chain of communities containing ``vertex``."""
        return self.profile_batch([vertex])[0]

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    def _as_vertex_array(
            self, vertices: Sequence[int] | Iterable[int]) -> Any:
        out = np.asarray(vertices, dtype=np.int64)
        if out.ndim != 1:
            raise InvalidParameterError(
                f"expected a flat array of vertices, got shape {out.shape}")
        return out

    def max_nucleus_batch(self, cells: Any) -> list["np.ndarray"]:
        """:meth:`max_nucleus` for an array of cells."""
        cache: dict[int, np.ndarray] = {}
        out: list[np.ndarray] = []
        for node in self.cell_node[np.asarray(cells, dtype=np.int64)].tolist():
            hit = cache.get(node)
            if hit is None:
                hit = cache.setdefault(node, self.community_cells(node))
            out.append(hit)
        return out

    def nucleus_at_batch(self, cells: Any, k: int) -> list["np.ndarray"]:
        """:meth:`nucleus_at` for an array of cells (k <= λ of each)."""
        cells = np.asarray(cells, dtype=np.int64)
        bad = np.nonzero(self.lam[cells] < k)[0]
        if len(bad):
            cell = int(cells[bad[0]])
            raise InvalidParameterError(
                f"cell {cell} has lambda {self.lam[cell]} < k={k}")
        tops = self._tops_at(k)[self.cell_node[cells]]
        cache: dict[int, np.ndarray] = {}
        out: list[np.ndarray] = []
        for top in tops.tolist():
            hit = cache.get(top)
            if hit is None:
                hit = cache.setdefault(top, self.community_cells(top))
            out.append(hit)
        return out

    def communities_of_vertex_batch(self, vertices: Any, k: int) \
            -> list[list["np.ndarray"]]:
        """:meth:`communities_of_vertex` for an array of vertices.

        Returns, per input vertex, the maximal k-level nuclei touching it
        (each a sorted cell array, ordered by condensed node id — the same
        order :class:`~repro.queries.HierarchyIndex` yields).  Identical
        nuclei are materialised once per call.
        """
        vertices = self._as_vertex_array(vertices)
        inside = (vertices >= 0) & (vertices < self.n)
        safe = np.where(inside, vertices, 0)
        starts = self.vert_indptr[safe]
        counts = np.where(inside, self.vert_indptr[safe + 1] - starts, 0)
        gather = _multi_range(starts, counts)
        nodes = self.vert_nodes[gather].astype(np.int64)
        owner = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
        tops = self._tops_at(k)[nodes]
        keep = tops >= 0
        owner = owner[keep]
        tops = tops[keep].astype(np.int64)
        pairs = np.unique(owner * self.num_nodes + tops)
        out: list[list[np.ndarray]] = [[] for _ in range(len(vertices))]
        cache: dict[int, np.ndarray] = {}
        for pair in pairs.tolist():
            which, top = divmod(pair, self.num_nodes)
            cells = cache.get(top)
            if cells is None:
                cells = cache.setdefault(top, self.community_cells(top))
            out[which].append(cells)
        return out

    def profile_batch(self, vertices: Any) -> list[list[CommunityLevel]]:
        """:meth:`profile` for an array of vertices.

        Node statistics (size, edges, density) are computed for every
        node at once on first use — persisted indexes saved with
        ``stats=True`` serve profiles without any graph at all.
        """
        vertices = self._as_vertex_array(vertices)
        node_k = self.node_k
        parent = self.node_parent
        out: list[list[CommunityLevel]] = []
        for vertex in vertices.tolist():
            nodes = self.nodes_of_vertex(vertex)
            if len(nodes) == 0:
                out.append([])
                continue
            ks = node_k[nodes]
            deepest = int(nodes[int(np.argmax(ks))])  # ties: smallest id
            chain: list[int] = []
            current = deepest
            while current >= 0:
                chain.append(current)
                current = int(parent[current])
            chain.reverse()
            levels: list[CommunityLevel] = []
            for node in chain:
                if node == self.root:
                    continue
                nv, ne, density = self._node_stats(node)
                levels.append(CommunityLevel(
                    k=int(node_k[node]), node_id=node, num_vertices=nv,
                    num_edges=ne, density=density))
            out.append(levels)
        return out

    # ------------------------------------------------------------------
    # profile statistics
    # ------------------------------------------------------------------
    def _edge_endpoint_arrays(self) -> tuple:
        """Endpoint arrays of every graph edge (for induced-edge counts)."""
        graph = self.graph
        if hasattr(graph, "esrc"):  # CSR: already flat
            return (np.frombuffer(graph.esrc, dtype=np.int32),
                    np.frombuffer(graph.etgt, dtype=np.int32))
        index = graph.edge_index
        return (np.asarray(index.source, dtype=np.int64),
                np.asarray(index.target, dtype=np.int64))

    def _node_stats(self, node: int) -> tuple[int, int, float]:
        """(num_vertices, num_edges, density) of a node's induced subgraph
        — the counts ``graph.subgraph`` +
        :func:`~repro.analysis.density.edge_density` give."""
        nv, ne, density = self.precompute_stats()
        return int(nv[node]), int(ne[node]), float(density[node])

    def precompute_stats(self) -> tuple:
        """The ``(nv, ne, density)`` arrays over every node (what
        :meth:`save` persists with ``stats=True``), from the graph in one
        vectorised pass the first time."""
        if self._stat_arrays is None:
            if self.graph is None:
                raise InvalidParameterError(
                    "this persisted index was saved without node statistics "
                    "(stats=False); re-save with stats=True or load it with "
                    "its graph attached to answer profile queries")
            self._stat_arrays = _node_statistics(
                self.node_parent, self.tin, self.tout,
                self.vert_indptr, self.vert_nodes,
                *self._edge_endpoint_arrays())
        return self._stat_arrays

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path, stats: bool = True) -> None:
        """Persist the index as an uncompressed ``.npz``.

        ``stats=True`` (default) additionally materialises the per-node
        profile statistics so a fresh process can answer *every* query
        without the graph; ``stats=False`` skips that work and the loaded
        index answers everything except :meth:`profile`.
        """
        payload = {
            "format": np.int64(FLAT_INDEX_FORMAT),
            "r": np.int64(self.r),
            "s": np.int64(self.s),
            "n": np.int64(self.n),
            "root": np.int64(self.root),
            "algorithm": np.str_(self.algorithm),
            "node_k": self.node_k,
            "node_parent": self.node_parent,
            "tin": self.tin,
            "tout": self.tout,
            "cell_node": self.cell_node,
            "lam": self.lam,
            "cells_in_tour": self.cells_in_tour,
            "cell_tin_sorted": self.cell_tin_sorted,
            "vert_indptr": self.vert_indptr,
            "vert_nodes": self.vert_nodes,
        }
        if stats:
            nv, ne, density = self.precompute_stats()
            payload.update(node_nv=nv, node_ne=ne, node_density=density)
        with open(path, "wb") as handle:  # savez would append ".npz"
            np.savez(handle, **payload)

    @classmethod
    def load(cls, path: str | Path, graph: Any = None, view: Any = None, *,
             mmap_mode: str | None = None) -> "FlatHierarchyIndex":
        """Rebuild a persisted index; pure array reads, no re-peeling.

        ``graph`` is optional — attach it only to compute profile
        statistics missing from an index saved with ``stats=False``.
        ``view`` is deprecated and ignored: the statistics need only the
        graph's edges and the persisted vertex map.

        ``mmap_mode="r"`` memory-maps the arrays read-only instead of
        copying them into the process (:func:`mmap_npz` — ``np.load``
        ignores ``mmap_mode`` for ``.npz`` archives).  Pages are shared
        through the OS page cache, so any number of serving processes
        hold **one** physical copy of the index; an archive that cannot
        be mapped falls back to an eager load.  ``mmap_mode=None`` (the
        default) loads eagerly.
        """
        if view is not None:
            warnings.warn(
                "FlatHierarchyIndex.load(view=...) is deprecated and ignored; "
                "attach only the graph", DeprecationWarning, stacklevel=2)
        if mmap_mode not in (None, "r"):
            raise InvalidParameterError(
                f"mmap_mode must be None or 'r', got {mmap_mode!r} "
                f"(the index arrays are immutable once persisted)")
        try:
            arrays = mmap_npz(path) if mmap_mode == "r" else None
            mapped = arrays is not None
            if not mapped:
                with np.load(path, allow_pickle=False) as payload:
                    arrays = {key: payload[key] for key in payload.files}
        except (OSError, ValueError, BadZipFile) as exc:
            raise GraphFormatError(
                f"{path}: malformed flat index file: {exc}") from exc
        missing = [key for key in _REQUIRED_KEYS if key not in arrays]
        if missing:
            raise GraphFormatError(
                f"{path}: not a flat hierarchy index "
                f"(missing {', '.join(missing)})")
        version = int(arrays["format"])
        if version != FLAT_INDEX_FORMAT:
            raise GraphFormatError(
                f"{path}: unsupported index format {version} "
                f"(this build reads {FLAT_INDEX_FORMAT})")
        index = cls.__new__(cls)
        index.r = int(arrays["r"])
        index.s = int(arrays["s"])
        index.n = int(arrays["n"])
        index.root = int(arrays["root"])
        index.algorithm = str(arrays["algorithm"])
        for key in ("node_k", "node_parent", "tin", "tout",
                    "cell_node", "lam", "cells_in_tour",
                    "cell_tin_sorted", "vert_indptr", "vert_nodes"):
            setattr(index, key, arrays[key])
        index._stat_arrays = None
        if all(key in arrays for key in _STAT_KEYS):
            index._stat_arrays = tuple(arrays[key] for key in _STAT_KEYS)
        index.mmapped = mapped
        index.graph = graph
        index._tops_cache = {}
        return index

    def __repr__(self) -> str:
        return (f"<FlatHierarchyIndex ({self.r},{self.s}) "
                f"algorithm={self.algorithm!r} cells={self.num_cells} "
                f"nodes={self.num_nodes} vertices={self.n}>")
