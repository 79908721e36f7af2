"""Vectorized search kernels shared across the index zoo (§2.2–2.3).

The tutorial's performance sections keep returning to the same point:
ANN query cost is dominated by a handful of tight loops — graph
traversal, quantized-code scans, and top-k selection — and those loops
must run "as fast as the hardware allows".  In a numpy codebase that
means three things, all centralized here:

* :class:`CSRAdjacency` — a graph's neighbor lists packed into two flat
  int64 arrays (``indices``/``indptr``).  One slice per expansion, no
  per-node Python object dereference, and the whole edge set is a single
  cache-friendly allocation.  Built once per graph (lazily, on first
  use) from the ``list[np.ndarray]`` adjacency the builders produce.
* :func:`topk_indices` — partition-based top-k selection
  (``np.argpartition`` + partial stable sort), O(n + k log k) instead of
  the O(n log n) full ``argsort`` the call sites used to pay.
* :func:`ensure_f32c` — float32 C-contiguous layout enforcement at
  ingest, so every distance kernel sees the layout it vectorizes best
  over (no silent float64 upcasts or strided views on the hot path).

The traversal kernels themselves (round-based beam search) live in
:mod:`repro.index._graph`.
"""

from __future__ import annotations

import numpy as np

#: Dtype for packed neighbor/position arrays.
INDEX_DTYPE = np.int64


def ensure_f32c(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` as float32 C-contiguous, copying only if needed.

    Kernels assume this layout; enforcing it once at ingest keeps every
    per-query gather (``vectors[positions]``) allocation-minimal.
    """
    if (
        isinstance(matrix, np.ndarray)
        and matrix.dtype == np.float32
        and matrix.flags["C_CONTIGUOUS"]
    ):
        return matrix
    return np.ascontiguousarray(matrix, dtype=np.float32)


class CSRAdjacency:
    """Graph adjacency packed in compressed-sparse-row form.

    ``indices[indptr[v]:indptr[v + 1]]`` are node ``v``'s neighbors.
    Supports ``adj[v]``, ``adj(v)`` (callable, so it drops into every
    ``neighbors_of`` slot), ``len``, and iteration, making it a read-only
    drop-in for the ``list[np.ndarray]`` adjacency builders produce.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.asarray(indices, dtype=INDEX_DTYPE)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if self.indptr.shape[0] == 0 or int(self.indptr[-1]) != self.indices.shape[0]:
            raise ValueError("indptr[-1] must equal len(indices)")

    @classmethod
    def from_lists(cls, adjacency) -> "CSRAdjacency":
        """Pack a ``list[np.ndarray]`` (or any sequence of neighbor
        arrays) into CSR form."""
        n = len(adjacency)
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        if n:
            np.cumsum([len(a) for a in adjacency], out=indptr[1:])
        if n and int(indptr[-1]):
            indices = np.concatenate(
                [np.asarray(a, dtype=INDEX_DTYPE) for a in adjacency]
            )
        else:
            indices = np.empty(0, dtype=INDEX_DTYPE)
        return cls(indptr, indices)

    def __getitem__(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    #: Callable form: ``adj(v)`` == ``adj[v]``, so a CSRAdjacency slots
    #: anywhere a ``neighbors_of`` callable is expected.
    __call__ = __getitem__

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __iter__(self):
        for node in range(len(self)):
            yield self[node]

    def to_lists(self) -> list[np.ndarray]:
        return [self[node].copy() for node in range(len(self))]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0]

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes

    def __repr__(self) -> str:
        return f"CSRAdjacency(nodes={len(self)}, edges={self.num_edges})"


def topk_indices(distances: np.ndarray, k: int, sort: bool = True) -> np.ndarray:
    """Indices of the ``k`` smallest distances, ascending.

    Partition-based selection: O(n) to isolate the k smallest, then a
    stable O(k log k) sort of just those — replacing the full
    O(n log n) ``argsort`` at every top-k site.  With ``sort=False``
    the k indices come back in arbitrary order (pure selection).
    """
    distances = np.asarray(distances)
    n = distances.shape[0]
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.intp)
    if k >= n:
        return np.argsort(distances, kind="stable") if sort else np.arange(n)
    part = np.argpartition(distances, k - 1)[:k]
    if not sort:
        return part
    return part[np.argsort(distances[part], kind="stable")]
