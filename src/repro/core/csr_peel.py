"""Direct peels over the CSR layout: the hot paths, fully inlined.

The generic :func:`repro.core.peeling.peel` is shaped around a
``CellView`` — per-cell generator calls, tuple allocations, a queue object
per decrement.  For the two workloads every benchmark and most callers
actually run, (1,2) k-core and (2,3) k-truss, these functions run the same
Set-λ algorithm straight over the flat arrays of a
:class:`~repro.graph.csr.CSRGraph`:

* :func:`csr_core_peel` is Batagelj–Zaversnik verbatim: one counting sort,
  then one swap per degree decrement, zero allocations in the loop;
* :func:`csr_truss_peel` peels edges against a materialised
  edge→triangle incidence (:func:`truss_incidence`) — the two companion
  edge ids of every triangle sit in flat arrays, no hash lookups;
* :func:`csr_nucleus34_peel` peels triangles against a materialised
  triangle→K₄ incidence (:func:`nucleus34_incidence`), replacing the
  dict-of-triples object path for (3,4).

All return the same :class:`~repro.core.peeling.PeelingResult` as the
generic peel, with identical λ (λ is unique; only tie order differs).
The incidence builders here are shared with the traversal-free hierarchy
construction in :mod:`repro.core.csr_fnd`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.peeling import PeelingResult
from repro.graph.csr import (
    CSRGraph,
    _k4_numpy,
    _k4_triangle_ids_python,
    _vectorised_listing,
    csr_triangle_edge_ids,
    fill_incidence,
)

__all__ = ["bucket_order", "csr_core_peel", "csr_nucleus34_peel",
           "csr_truss_peel", "nucleus34_incidence",
           "nucleus34_incidence_arrays", "truss_incidence",
           "truss_incidence_arrays"]


def bucket_order(priorities: list[int]) -> tuple[list[int], list[int],
                                                 list[int]]:
    """Counting-sort state shared by every direct peel: ``(bins, vert,
    pos)``.

    ``vert`` holds the items ordered by priority, ``pos`` inverts it, and
    ``bins[p]`` is the first slot of the priority-``p`` block (sized
    ``top + 2`` so ``bins[p + 1]`` is always in range).  The peel loops
    mutate all three in place with the O(1) block-swap decrement.
    """
    n = len(priorities)
    top = max(priorities, default=0)
    bins = [0] * (top + 2)
    for p in priorities:
        bins[p + 1] += 1
    for p in range(top + 1):
        bins[p + 1] += bins[p]
    vert = [0] * n
    pos = [0] * n
    cursor = bins[:top + 1]
    for item in range(n):
        slot = cursor[priorities[item]]
        vert[slot] = item
        pos[item] = slot
        cursor[priorities[item]] = slot + 1
    return bins, vert, pos


def csr_core_peel(csr: CSRGraph) -> PeelingResult:
    """(1,2) peel: core number λ₂ of every vertex, in degeneracy order."""
    n = csr.n
    indptr, indices, _ = csr.hot_arrays()
    deg = csr.degrees()
    bins, vert, pos = bucket_order(deg)

    max_lambda = 0
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        if dv > max_lambda:
            max_lambda = dv
        for p in range(indptr[v], indptr[v + 1]):
            w = indices[p]
            dw = deg[w]
            if dw > dv:
                first = bins[dw]
                other = vert[first]
                if other != w:
                    slot = pos[w]
                    vert[first] = w
                    vert[slot] = other
                    pos[w] = first
                    pos[other] = slot
                bins[dw] = first + 1
                deg[w] = dw - 1
    # vert is now the processing order and deg has settled into λ
    return PeelingResult(lam=deg, max_lambda=max_lambda, order=vert)


def csr_truss_peel(csr: CSRGraph) -> PeelingResult:
    """(2,3) peel: triangle level λ₃ of every edge, by edge id.

    Lists every triangle once (:func:`truss_incidence`), lays the two
    companion edge ids of every (edge, triangle) incidence into flat
    arrays, and peels by replaying that incidence — the inner loop is a
    pair of list reads and a couple of compares.
    """
    m = csr.m
    sup, ptr, comp1, comp2 = truss_incidence(csr)

    bins, vert, pos = bucket_order(sup)

    processed = bytearray(m)
    max_lambda = 0
    for i in range(m):
        e = vert[i]
        k = sup[e]
        if k > max_lambda:
            max_lambda = k
        for slot in range(ptr[e], ptr[e + 1]):
            ea = comp1[slot]
            eb = comp2[slot]
            # a triangle is spent once any of its edges is peeled
            if processed[ea] or processed[eb]:
                continue
            if sup[ea] > k:
                d = sup[ea]
                first = bins[d]
                other = vert[first]
                if other != ea:
                    swap = pos[ea]
                    vert[first] = ea
                    vert[swap] = other
                    pos[ea] = first
                    pos[other] = swap
                bins[d] = first + 1
                sup[ea] = d - 1
            if sup[eb] > k:
                d = sup[eb]
                first = bins[d]
                other = vert[first]
                if other != eb:
                    swap = pos[eb]
                    vert[first] = eb
                    vert[swap] = other
                    pos[eb] = first
                    pos[other] = swap
                bins[d] = first + 1
                sup[eb] = d - 1
        processed[e] = 1
    return PeelingResult(lam=sup, max_lambda=max_lambda, order=vert)


def truss_incidence(
        csr: CSRGraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """Materialised edge→triangle incidence: ``(sup, ptr, comp1, comp2)``.

    ``sup[e]`` is the triangle count of edge ``e`` (initial ω₃); incidence
    slots ``ptr[e] .. ptr[e+1]`` hold, in the two aligned companion arrays,
    the other two edge ids of each triangle through ``e``.  Shared by the
    truss peel and the direct (2,3) hierarchy construction.  Both bodies
    list the same triangles per edge; only their slot order differs.
    """
    if _vectorised_listing(csr):
        sup, ptr, (comp1, comp2) = _truss_incidence_numpy(csr)
        return sup.tolist(), ptr.tolist(), comp1.tolist(), comp2.tolist()
    return _truss_incidence_python(csr)


def _truss_incidence_python(
        csr: CSRGraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """:func:`truss_incidence` by merge scans, counting-sorted into place."""
    m = csr.m
    indptr, indices, eids = csr.hot_arrays()
    bisect = bisect_left
    triples: list[tuple[int, int, int]] = []
    sup = [0] * m
    for u in range(csr.n):
        u_end = indptr[u + 1]
        pu = bisect(indices, u, indptr[u], u_end)
        while pu < u_end:
            v = indices[pu]
            e_uv = eids[pu]
            i = pu + 1
            j = bisect(indices, v, indptr[v], indptr[v + 1])
            j_end = indptr[v + 1]
            while i < u_end and j < j_end:
                a = indices[i]
                b = indices[j]
                if a < b:
                    i += 1
                elif b < a:
                    j += 1
                else:
                    ea = eids[i]
                    eb = eids[j]
                    triples.append((e_uv, ea, eb))
                    sup[e_uv] += 1
                    sup[ea] += 1
                    sup[eb] += 1
                    i += 1
                    j += 1
            pu += 1
    ptr = [0] * (m + 1)
    for e in range(m):
        ptr[e + 1] = ptr[e] + sup[e]
    total = ptr[m]
    comp1 = [0] * total
    comp2 = [0] * total
    cursor = ptr[:m]
    for ea, eb, ec in triples:
        slot = cursor[ea]
        comp1[slot] = eb
        comp2[slot] = ec
        cursor[ea] = slot + 1
        slot = cursor[eb]
        comp1[slot] = ea
        comp2[slot] = ec
        cursor[eb] = slot + 1
        slot = cursor[ec]
        comp1[slot] = ea
        comp2[slot] = eb
        cursor[ec] = slot + 1
    return sup, ptr, comp1, comp2


def _truss_incidence_numpy(csr: CSRGraph):
    """Vectorised edge→triangle incidence as numpy arrays:
    ``(sup, ptr, (comp1, comp2))``."""
    e1, e2, e3 = csr_triangle_edge_ids(csr)
    return fill_incidence([e1, e2, e3], [(e2, e3), (e1, e3), (e1, e2)],
                          csr.m)


def truss_incidence_arrays(csr: CSRGraph):
    """:func:`truss_incidence` as int64 numpy arrays: ``(sup, ptr,
    (comp1, comp2))`` — what the bulk peel consumes, without the list
    round-trip."""
    if _vectorised_listing(csr):
        return _truss_incidence_numpy(csr)
    sup, ptr, comp1, comp2 = _truss_incidence_python(csr)
    return (np.asarray(sup, dtype=np.int64),
            np.asarray(ptr, dtype=np.int64),
            (np.asarray(comp1, dtype=np.int64),
             np.asarray(comp2, dtype=np.int64)))


def _nucleus34_incidence_numpy(csr: CSRGraph):
    """Vectorised triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``
    with numpy arrays (callers guard ``n < _MAX_KEYED_N``)."""
    tu, tv, tw, q1, q2, q3, q4 = _k4_numpy(csr)
    triangles = list(zip(tu.tolist(), tv.tolist(), tw.tolist(), strict=True))
    # quad-major occurrence order + stable argsort lays each triangle's
    # slots out exactly as the python cursor fill does
    sup, ptr, comps = fill_incidence(
        [q1, q2, q3, q4],
        [(q2, q3, q4), (q1, q3, q4), (q1, q2, q4), (q1, q2, q3)],
        len(triangles))
    return triangles, sup, ptr, comps


def nucleus34_incidence_arrays(csr: CSRGraph):
    """:func:`nucleus34_incidence` as int64 numpy arrays:
    ``(triangles, sup, ptr, (c1, c2, c3))``."""
    if _vectorised_listing(csr, keyed=True):
        return _nucleus34_incidence_numpy(csr)
    triangles, sup, ptr, comps = _nucleus34_incidence_python(csr)
    return (triangles, np.asarray(sup, dtype=np.int64),
            np.asarray(ptr, dtype=np.int64),
            tuple(np.asarray(c, dtype=np.int64) for c in comps))


def nucleus34_incidence(
        csr: CSRGraph,
) -> tuple[list[tuple[int, int, int]], list[int], list[int],
           tuple[list[int], list[int], list[int]]]:
    """Materialised triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``.

    ``triangles`` is the lex-ordered triple list (index = triangle id, the
    ids both backends' (3,4) views use); ``sup[t]`` the K₄ count of triangle
    ``t`` (initial ω₄); slots ``ptr[t] .. ptr[t+1]`` of the three aligned
    companion arrays hold the other three triangle ids of each K₄ through
    ``t``.  Shared by the direct (3,4) peel and hierarchy construction.

    The numpy body lists K₄s and fills the incidence vectorised
    (quad-major stable sort reproduces the cursor fill slot for slot); the
    python body is the reference layout.
    """
    if _vectorised_listing(csr, keyed=True):
        triangles, sup, ptr, comps = _nucleus34_incidence_numpy(csr)
        return (triangles, sup.tolist(), ptr.tolist(),
                tuple(c.tolist() for c in comps))
    return _nucleus34_incidence_python(csr)


def _nucleus34_incidence_python(
        csr: CSRGraph,
) -> tuple[list[tuple[int, int, int]], list[int], list[int],
           tuple[list[int], list[int], list[int]]]:
    """:func:`nucleus34_incidence` by a cursor fill over the python K₄
    listing."""
    triangles, quads = _k4_triangle_ids_python(csr)
    t = len(triangles)
    sup = [0] * t
    for quad in quads:
        for tid in quad:
            sup[tid] += 1
    ptr = [0] * (t + 1)
    for tid in range(t):
        ptr[tid + 1] = ptr[tid] + sup[tid]
    total = ptr[t]
    c1 = [0] * total
    c2 = [0] * total
    c3 = [0] * total
    cursor = ptr[:t]
    q1, q2, q3, q4 = quads
    for i in range(len(q1)):
        a = q1[i]
        b = q2[i]
        c = q3[i]
        d = q4[i]
        slot = cursor[a]
        c1[slot] = b
        c2[slot] = c
        c3[slot] = d
        cursor[a] = slot + 1
        slot = cursor[b]
        c1[slot] = a
        c2[slot] = c
        c3[slot] = d
        cursor[b] = slot + 1
        slot = cursor[c]
        c1[slot] = a
        c2[slot] = b
        c3[slot] = d
        cursor[c] = slot + 1
        slot = cursor[d]
        c1[slot] = a
        c2[slot] = b
        c3[slot] = c
        cursor[d] = slot + 1
    return triangles, sup, ptr, (c1, c2, c3)


def csr_nucleus34_peel(csr: CSRGraph) -> PeelingResult:
    """(3,4) peel: K₄ level λ₄ of every triangle, by lex triangle id.

    Replays the materialised incidence of :func:`nucleus34_incidence`
    exactly like the replay truss peel, with three companion arrays instead
    of two — no dict lookups or set intersections in the loop.
    """
    _, sup, ptr, (c1, c2, c3) = nucleus34_incidence(csr)
    t = len(sup)
    bins, vert, pos = bucket_order(sup)

    processed = bytearray(t)
    max_lambda = 0
    for i in range(t):
        u = vert[i]
        k = sup[u]
        if k > max_lambda:
            max_lambda = k
        for slot in range(ptr[u], ptr[u + 1]):
            # a K4 is spent once any of its triangles is peeled
            ta = c1[slot]
            if processed[ta]:
                continue
            tb = c2[slot]
            if processed[tb]:
                continue
            tc = c3[slot]
            if processed[tc]:
                continue
            for v in (ta, tb, tc):
                d = sup[v]
                if d > k:
                    first = bins[d]
                    other = vert[first]
                    if other != v:
                        swap = pos[v]
                        vert[first] = v
                        vert[swap] = other
                        pos[v] = first
                        pos[other] = swap
                    bins[d] = first + 1
                    sup[v] = d - 1
        processed[u] = 1
    return PeelingResult(lam=sup, max_lambda=max_lambda, order=vert)
