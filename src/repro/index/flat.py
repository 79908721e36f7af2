"""Flat (brute-force) index: exact search by full similarity projection.

The tutorial notes a relational system "can already answer vector queries
via brute-force scan" (SingleStore, §2.4).  Flat search is also the
ground-truth oracle every approximate index is measured against, and the
executor's fallback plan when no index fits a query.
"""

from __future__ import annotations

import numpy as np

from ..core.types import SearchStats, as_vector
from .base import VectorIndex


class FlatIndex(VectorIndex):
    """Exact nearest-neighbor search via a full scan."""

    name = "flat"
    family = "flat"

    def _build(self) -> None:
        # Nothing to construct: the matrix itself is the "index".
        return

    def _probe(self, query, k, allowed, stats, **params):
        if params:
            raise TypeError(f"FlatIndex.search got unknown params {sorted(params)}")
        return None, None, 0  # every row

    def range_search(self, query, radius, allowed=None, stats=None):
        """Exact range query: one scan, threshold filter (no search knobs)."""
        self._require_built()
        stats = stats if stats is not None else SearchStats()
        query = as_vector(query, self._vectors.shape[1])
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
        return self._brute_force(query, None, None, allowed, stats, radius=radius)
