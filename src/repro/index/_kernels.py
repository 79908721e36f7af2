"""Vectorized search kernels shared across the index zoo (§2.2–2.3).

The tutorial's performance sections keep returning to the same point:
ANN query cost is dominated by a handful of tight loops — graph
traversal, quantized-code scans, and top-k selection — and those loops
must run "as fast as the hardware allows".  In a numpy codebase that
means two things, both centralized here:

* :func:`topk_indices` — partition-based top-k selection
  (``np.argpartition`` + partial stable sort), O(n + k log k) instead of
  the O(n log n) full ``argsort`` the call sites used to pay.
* :func:`ensure_f32c` — float32 C-contiguous layout enforcement at
  ingest, so every distance kernel sees the layout it vectorizes best
  over (no silent float64 upcasts or strided views on the hot path).

The traversal kernels themselves (round-based beam search over a
graph's slot matrix) live in :mod:`repro.index._graph`.
"""

from __future__ import annotations

import numpy as np


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
