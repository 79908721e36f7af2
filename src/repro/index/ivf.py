"""Inverted-file (IVF) indexes: IVF-Flat, IVFSQ, IVFADC (§2.2).

An IVF index partitions the collection into ``nlist`` k-means cells
("learned partitioning" in the tutorial's terms) and searches only the
``nprobe`` cells nearest the query.  Variants differ in what each posting
list stores:

* :class:`IvfFlatIndex` — full float vectors; exact re-rank inside cells.
* :class:`IvfSqIndex` — scalar-quantized codes (the tutorial's IVFSQ).
* :class:`IvfAdcIndex` — PQ codes of residuals with ADC scoring (IVFADC
  [49]), wrapping :class:`repro.quantization.ivfadc.IvfAdc`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import SearchStats
from ..quantization.kmeans import CoarseQuantizer
from ..quantization.ivfadc import IvfAdc
from ..quantization.scalar import ScalarQuantizer
from ..scores import Score
from .base import VectorIndex


class IvfFlatIndex(VectorIndex):
    """k-means cells with full-precision posting lists.

    Parameters
    ----------
    nlist:
        Number of coarse cells (k-means centroids).
    nprobe:
        Default number of cells scanned per query (override per search).
    """

    name = "ivf_flat"
    family = "table"

    def __init__(
        self,
        score: Score | str = "l2",
        nlist: int = 64,
        nprobe: int = 8,
        seed: int = 0,
    ):
        super().__init__(score)
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self._coarse = CoarseQuantizer(nlist, seed=seed)

    @property
    def centroids(self) -> np.ndarray | None:
        return self._coarse.centroids

    @property
    def _cells(self) -> list[np.ndarray]:
        """Row positions per cell."""
        return self._coarse.lists

    def _build(self) -> None:
        cells = self._coarse.train(self._vectors)
        self._coarse.append(cells, np.arange(cells.shape[0], dtype=np.int64))

    def _probe_cells(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        return self._coarse.probe(query, nprobe)

    def _approx(self, query: np.ndarray, positions: np.ndarray, stats: SearchStats):
        """The approximate stage the candidates pass through: none."""
        return None

    def _exact_probe(self, params):
        return True

    def _probe(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        nprobe: int | None = None,
        **params: Any,
    ):
        if params:
            raise TypeError(
                f"{type(self).__name__}.search got unknown params {sorted(params)}"
            )
        cells = self._probe_cells(query, nprobe if nprobe is not None else self.nprobe)
        stats.nodes_visited += len(cells)
        stats.distance_computations += len(self._cells)  # centroid ranking
        positions = self._coarse.entries(cells)
        return positions, self._approx(query, positions, stats), 0

    def cell_sizes(self) -> list[int]:
        return [len(c) for c in self._cells]

    def memory_bytes(self) -> int:
        centroid = 0 if self.centroids is None else self.centroids.nbytes
        return centroid + sum(c.nbytes for c in self._cells)


class IvfSqIndex(IvfFlatIndex):
    """IVF cells whose rows are ranked by scalar-quantized codes (IVFSQ).

    The cells are IVF-Flat's; search decodes only the probed cells'
    codes — the compression saves memory at a small recall cost measured
    in bench E4.
    """

    name = "ivf_sq"

    def __init__(
        self,
        score: Score | str = "l2",
        nlist: int = 64,
        nprobe: int = 8,
        bits: int = 8,
        seed: int = 0,
    ):
        super().__init__(score, nlist=nlist, nprobe=nprobe, seed=seed)
        self.sq = ScalarQuantizer(bits=bits)
        self._codes: np.ndarray | None = None  # row-aligned

    def _build(self) -> None:
        super()._build()
        data = self._vectors.astype(np.float64)
        self._codes = self.sq.train(data).encode(data)

    def _approx(self, query: np.ndarray, positions: np.ndarray, stats: SearchStats):
        """SQ distances of the candidates' codes; never re-ranked."""

        def sq_distances(pick) -> np.ndarray:
            codes = self._codes[positions[pick]]
            stats.distance_computations += codes.shape[0]
            stats.candidates_examined += codes.shape[0]
            return self.sq.squared_distances(query.astype(np.float64), codes)

        return sq_distances

    def _exact_probe(self, params):
        return False

    def candidates(self, query, k, allowed=None, stats=None, **params):
        """None: the SQ distances are the answer, no exact scan of rows."""
        return None

    def memory_bytes(self) -> int:
        codes = 0 if self._codes is None else self._codes.nbytes
        return super().memory_bytes() + codes


class IvfAdcIndex(VectorIndex):
    """IVFADC [49] wrapped as a :class:`VectorIndex`.

    Optionally re-ranks the ADC top candidates with exact distances
    (``rerank`` > 0), the standard recall-recovery trick.
    """

    name = "ivf_adc"
    family = "table"

    def __init__(
        self,
        score: Score | str = "l2",
        nlist: int = 64,
        nprobe: int = 8,
        m: int = 8,
        ks: int = 256,
        rerank: int = 0,
        seed: int = 0,
        layout: str = "flat",
    ):
        super().__init__(score)
        self.core = IvfAdc(nlist=nlist, m=m, ks=ks, seed=seed, layout=layout)
        self.nlist = nlist
        self.nprobe = nprobe
        self.rerank = rerank

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        # A tiny collection trains fewer cells / codewords than asked
        # for; the request itself stays put for the next build.
        self.core.train(data)
        # Positions double as ids inside the core; translate on the way out.
        self.core.add(np.arange(data.shape[0], dtype=np.int64), data)

    def _probe(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        nprobe: int | None = None,
        rerank: int | None = None,
        **params: Any,
    ):
        if params:
            raise TypeError(f"IvfAdcIndex.search got unknown params {sorted(params)}")
        rerank = rerank if rerank is not None else self.rerank
        cells, positions = self.core.probe(
            query, nprobe if nprobe is not None else self.nprobe
        )
        stats.nodes_visited += len(cells)

        def adc(pick) -> np.ndarray:
            # Every probed code the mask kept is ranked, so a masked
            # search is never short of candidates the cells hold.
            dists = self.core.adc(query, cells, pick, k=max(k, rerank))
            stats.distance_computations += dists.shape[0]
            stats.candidates_examined += dists.shape[0]
            return dists

        return positions, adc, rerank

    def candidates(self, query, k, allowed=None, stats=None, rerank=None, **params):
        """None without a re-rank (the ADC distances are the answer),
        before the probe charges anything."""
        if not (rerank if rerank is not None else self.rerank):
            return None
        return super().candidates(query, k, allowed, stats, rerank=rerank, **params)

    def memory_bytes(self) -> int:
        return self.core.memory_bytes() if self.core.is_trained else 0
