"""Shared-memory parallel execution layer over the flat CSR arrays.

The ``csr-parallel`` backend (:mod:`repro.backends`) is assembled from
four pieces, each usable on its own:

* :mod:`repro.parallel.shm` — zero-copy export/attach of the CSR arrays
  and the rooted-forest ints via ``multiprocessing.shared_memory``;
* :mod:`repro.parallel.pool` — persistent worker processes executing
  range tasks over attached arrays (plus ``REPRO_WORKERS`` resolution);
* :mod:`repro.parallel.incidence` — triangle / K₄ listing and incidence
  materialisation sharded across workers;
* :mod:`repro.parallel.bulk` — round-synchronous bulk peels for (1,2),
  (2,3) and (3,4), sequential-identical λ at any worker count;
* :mod:`repro.parallel.construct` — level-wise parallel hierarchy
  construction over the settled λ values: workers union-find their
  incidence shards, the parent merges the per-worker forests into the
  shared rooted forest (condensed tree node-for-node identical to the
  sequential FND engine).
"""

from repro.parallel.bulk import (
    bulk_core_peel,
    bulk_nucleus34_peel,
    bulk_truss_peel,
    merge_sparse_decrements,
    parallel_core_peel,
    parallel_nucleus34_peel,
    parallel_truss_peel,
)
from repro.parallel.construct import (
    core_hierarchy_from_lambda,
    hierarchy_from_lambda,
    incidence_hierarchy_from_lambda,
)
from repro.parallel.fnd import parallel_fnd_decomposition
from repro.parallel.incidence import (
    parallel_nucleus34_incidence,
    parallel_triangle_edge_ids,
    parallel_truss_incidence,
)
from repro.parallel.kernels import (
    core_decrement,
    core_level_edges,
    incidence_decrement,
    incidence_level_edges,
    spanning_forest_reduce,
    weighted_cuts,
)
from repro.parallel.pool import WORKERS_ENV, WorkerPool, resolve_workers
from repro.parallel.shm import (
    SharedArrayBundle,
    SharedRootedForest,
    share_forest,
)

__all__ = [
    "SharedArrayBundle",
    "SharedRootedForest",
    "WORKERS_ENV",
    "WorkerPool",
    "bulk_core_peel",
    "bulk_nucleus34_peel",
    "bulk_truss_peel",
    "core_decrement",
    "core_hierarchy_from_lambda",
    "core_level_edges",
    "hierarchy_from_lambda",
    "incidence_decrement",
    "incidence_hierarchy_from_lambda",
    "incidence_level_edges",
    "merge_sparse_decrements",
    "parallel_core_peel",
    "parallel_fnd_decomposition",
    "parallel_nucleus34_incidence",
    "parallel_nucleus34_peel",
    "parallel_triangle_edge_ids",
    "parallel_truss_incidence",
    "parallel_truss_peel",
    "resolve_workers",
    "share_forest",
    "spanning_forest_reduce",
    "weighted_cuts",
]
