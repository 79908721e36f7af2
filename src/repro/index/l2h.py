"""Learning-to-hash (L2H) indexes (§2.2, table-based).

L2H replaces LSH's random functions with *learned* ones.  The tutorial
names three families: k-means bucketing (SPANN's coarse layer — see
:class:`repro.index.spann.SpannIndex` and :class:`repro.index.ivf.IvfFlatIndex`
for that lineage), spectral hashing [85], and neural approaches [71].
This module implements the binary-code family:

* :class:`SpectralHashIndex` — Weiss et al.'s analytic solution: PCA the
  data, then threshold the smallest-eigenvalue sinusoidal eigenfunctions
  along each principal direction.
* :class:`ItqHashIndex` — iterative quantization: PCA, then *learn* an
  orthogonal rotation minimizing the binarization error (the same
  alternating Procrustes machinery as OPQ, with binary targets) — a
  stand-in for the data-dependent neural hashes at laptop scale.

Both are data-dependent, reproducing the tutorial's caveat that L2H
"cannot easily handle out-of-distribution updates"
(tests/test_data_dependence.py makes the caveat measurable).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from .base import VectorIndex

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """(n, nbits) {0,1} -> (n, ceil(nbits/8)) packed uint8 codes."""
    return np.packbits(np.atleast_2d(bits).astype(np.uint8, copy=False), axis=1)


def hamming_to_all(query_code: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Hamming distances from one packed code to many (popcount LUT)."""
    xor = np.bitwise_xor(codes, query_code[None, :])
    return _POPCOUNT[xor].sum(axis=1).astype(np.int64, copy=False)


class BinaryHashIndex(VectorIndex):
    """Shared scaffolding: learn bits, rank by Hamming, re-rank exactly.

    Subclasses implement :meth:`_fit` (learn the hash from data) and
    :meth:`_bits` (map vectors to a {0,1} bit matrix).
    """

    family = "table"

    def __init__(self, score: Score | str = "l2", nbits: int = 32, rerank: int = 100):
        super().__init__(score)
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        self.nbits = nbits
        self.rerank = rerank
        self._codes: np.ndarray | None = None

    def _fit(self, data: np.ndarray) -> None:
        raise NotImplementedError

    def _bits(self, vectors: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        self._fit(data)
        self._codes = pack_bits(self._bits(data))

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Packed binary codes for arbitrary vectors."""
        self._require_built()
        return pack_bits(self._bits(np.atleast_2d(np.asarray(vectors, np.float64))))

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        rerank: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(
                f"{type(self).__name__}.search got unknown params {sorted(params)}"
            )
        budget = max(k, rerank if rerank is not None else self.rerank)
        qcode = self.encode(query)[0]

        def hamming(pick) -> np.ndarray:
            hd = hamming_to_all(qcode, self._codes[pick])
            # Counted when Hamming examines them, and the shortlist
            # again when the exact pass does.
            stats.candidates_examined += hd.shape[0] + min(budget, hd.shape[0])
            return hd

        return self._brute_force(
            query, k, None, allowed, stats, approx=hamming, rerank=budget
        )

    def memory_bytes(self) -> int:
        return 0 if self._codes is None else self._codes.nbytes


class SpectralHashIndex(BinaryHashIndex):
    """Spectral hashing: thresholded PCA-direction sinusoids."""

    name = "spectral_hash"

    def _fit(self, data: np.ndarray) -> None:
        self._mean = data.mean(axis=0)
        centered = data - self._mean
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        top = min(self.nbits, vt.shape[0])
        self._axes = vt[:top].T  # (d, top)
        proj = centered @ self._axes
        lo = proj.min(axis=0)
        hi = proj.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        # Enumerate eigenfunctions Phi_m(x) = sin(pi/2 + m*pi*x/span) per
        # direction with eigenvalue ~ (m/span)^2; keep the nbits smallest.
        max_modes = int(np.ceil(self.nbits / top)) + 1
        entries = []
        for axis in range(top):
            for mode in range(1, max_modes + 1):
                entries.append(((mode / span[axis]) ** 2, axis, mode))
        entries.sort()
        self._modes = entries[: self.nbits]
        self._lo = lo
        self._span = span

    def _bits(self, vectors: np.ndarray) -> np.ndarray:
        proj = (vectors - self._mean) @ self._axes
        bits = np.empty((vectors.shape[0], len(self._modes)), dtype=np.uint8)
        for out, (_, axis, mode) in enumerate(self._modes):
            phase = np.pi / 2 + mode * np.pi * (
                (proj[:, axis] - self._lo[axis]) / self._span[axis]
            )
            bits[:, out] = (np.sin(phase) >= 0).astype(np.uint8, copy=False)
        return bits


class ItqHashIndex(BinaryHashIndex):
    """Iterative quantization: PCA + learned rotation, sign binarization."""

    name = "itq_hash"

    def __init__(
        self,
        score: Score | str = "l2",
        nbits: int = 32,
        rerank: int = 100,
        iterations: int = 25,
        seed: int = 0,
    ):
        super().__init__(score, nbits=nbits, rerank=rerank)
        self.iterations = iterations
        self.seed = seed

    def _fit(self, data: np.ndarray) -> None:
        self._mean = data.mean(axis=0)
        centered = data - self._mean
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        top = min(self.nbits, vt.shape[0])
        self._axes = vt[:top].T
        v = centered @ self._axes  # (n, top)
        rng = np.random.default_rng(self.seed)
        # Random orthogonal init.
        q, _ = np.linalg.qr(rng.standard_normal((top, top)))
        rotation = q
        for _ in range(self.iterations):
            b = np.sign(v @ rotation)
            b[b == 0] = 1.0
            # Procrustes: argmin_R ||B - V R||_F.
            u, _, wt = np.linalg.svd(v.T @ b)
            rotation = u @ wt
        self._rotation = rotation

    def _bits(self, vectors: np.ndarray) -> np.ndarray:
        proj = (vectors - self._mean) @ self._axes @ self._rotation
        return (proj >= 0).astype(np.uint8, copy=False)
