"""Locality-sensitive hashing index (§2.2, table-based).

The classic L-tables-of-K-concatenated-functions scheme: each of L hash
tables buckets vectors by the concatenation of K hash values drawn from a
hash family.  A query is hashed into every table and the union of its
collision buckets is re-ranked exactly.

Two hash families are provided, matching the tutorial's examples:

* ``hyperplane`` — random-hyperplane sign bits (IndexLSH [1] / angular
  distance); K sign bits form a K-bit bucket key.
* ``pstable`` — p-stable projections ``floor((a.x + b) / w)`` of Datar et
  al. [35] (E2LSH), the family with guarantees for Euclidean distance.

Raising L raises recall (more chances to collide); raising K shrinks
buckets (higher precision per bucket, lower per-table recall) — the
bucket-size tradeoff the tutorial describes for all table-based indexes.
**Multi-probe** querying (``num_probes > 1``) recovers recall without
more tables by also visiting the buckets whose keys differ from the
query's in the least-confident positions (hyperplane family: smallest
projection magnitudes; p-stable family: +-1 on the closest boundaries).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from .base import VectorIndex


class LshIndex(VectorIndex):
    """L hash tables of K concatenated hash functions.

    Parameters
    ----------
    num_tables:
        L — number of independent hash tables.
    hashes_per_table:
        K — concatenated hash functions per table.
    family:
        ``"hyperplane"`` or ``"pstable"``.
    bucket_width:
        w for the p-stable family (ignored for hyperplane).
    """

    name = "lsh"
    family = "table"

    def __init__(
        self,
        score: Score | str = "l2",
        num_tables: int = 8,
        hashes_per_table: int = 12,
        hash_family: str = "hyperplane",
        bucket_width: float = 4.0,
        num_probes: int = 1,
        seed: int = 0,
    ):
        super().__init__(score)
        if num_tables <= 0 or hashes_per_table <= 0:
            raise ValueError("num_tables and hashes_per_table must be positive")
        if hash_family not in ("hyperplane", "pstable"):
            raise ValueError(f"unknown hash family {hash_family!r}")
        if num_probes < 1:
            raise ValueError("num_probes must be >= 1")
        self.num_tables = num_tables
        self.hashes_per_table = hashes_per_table
        self.hash_family = hash_family
        self.bucket_width = bucket_width
        self.num_probes = num_probes
        self.seed = seed
        self._projections: np.ndarray | None = None  # (L, K, d)
        self._offsets: np.ndarray | None = None  # (L, K) for pstable
        self._tables: list[dict[tuple, list[int]]] = []

    def _init_functions(self, dim: int) -> None:
        rng = np.random.default_rng(self.seed)
        shape = (self.num_tables, self.hashes_per_table, dim)
        self._projections = rng.standard_normal(shape)
        if self.hash_family == "pstable":
            self._offsets = rng.uniform(
                0, self.bucket_width, size=(self.num_tables, self.hashes_per_table)
            )

    def _hash_keys(self, vectors: np.ndarray) -> np.ndarray:
        """(n, L) array of hashable bucket keys (as tuples via object view)."""
        vectors = np.atleast_2d(vectors)
        # (L, K, n): project every vector through every function.
        proj = np.einsum("lkd,nd->lkn", self._projections, vectors)
        if self.hash_family == "hyperplane":
            codes = (proj >= 0).astype(np.int64)
        else:
            codes = np.floor(
                (proj + self._offsets[:, :, None]) / self.bucket_width
            ).astype(np.int64)
        # -> (n, L, K) then tuple per (n, L)
        return codes.transpose(2, 0, 1)

    def _build(self) -> None:
        self._init_functions(self._vectors.shape[1])
        self._tables = [{} for _ in range(self.num_tables)]
        keys = self._hash_keys(self._vectors)
        for pos in range(self._vectors.shape[0]):
            for t in range(self.num_tables):
                key = tuple(keys[pos, t])
                self._tables[t].setdefault(key, []).append(pos)

    def _probe_keys(self, query: np.ndarray, num_probes: int) -> list[list[tuple]]:
        """Per table: the query's bucket key plus its most likely
        perturbations (multi-probe LSH), ordered by confidence."""
        proj = np.einsum("lkd,d->lk", self._projections, query)
        if self.hash_family == "hyperplane":
            base_codes = (proj >= 0).astype(np.int64, copy=False)
            confidence = np.abs(proj)  # distance to each hyperplane
        else:
            shifted = (proj + self._offsets) / self.bucket_width
            base_codes = np.floor(shifted).astype(np.int64, copy=False)
            frac = shifted - base_codes
            # Distance to the nearer bucket boundary.
            confidence = np.minimum(frac, 1.0 - frac)
        per_table: list[list[tuple]] = []
        for t in range(self.num_tables):
            keys = [tuple(base_codes[t])]
            if num_probes > 1:
                order = np.argsort(confidence[t])  # least confident first
                for slot in order[: num_probes - 1]:
                    perturbed = base_codes[t].copy()
                    if self.hash_family == "hyperplane":
                        perturbed[slot] ^= 1
                    else:
                        frac_val = (proj[t, slot] + self._offsets[t, slot]) / \
                            self.bucket_width - base_codes[t, slot]
                        perturbed[slot] += 1 if frac_val >= 0.5 else -1
                    keys.append(tuple(perturbed))
            per_table.append(keys)
        return per_table

    def _candidates(self, query: np.ndarray, num_probes: int) -> np.ndarray:
        found: set[int] = set()
        for t, keys in enumerate(self._probe_keys(query, num_probes)):
            table = self._tables[t]
            for key in keys:
                found.update(table.get(key, ()))
        return np.fromiter(found, dtype=np.int64, count=len(found))

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        num_probes: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(f"LshIndex.search got unknown params {sorted(params)}")
        probes = max(1, num_probes if num_probes is not None else self.num_probes)
        candidates = self._candidates(query, probes)
        stats.nodes_visited += self.num_tables * probes
        return self._brute_force(query, k, candidates, allowed, stats)

    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for the E3 tradeoff bench)."""
        return [len(b) for table in self._tables for b in table.values()]

    def memory_bytes(self) -> int:
        proj = 0 if self._projections is None else self._projections.nbytes
        entries = sum(len(b) for t in self._tables for b in t.values())
        return proj + entries * 8
