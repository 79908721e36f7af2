"""Index registry: resolve names (Figure 1's index zoo) to classes."""

from __future__ import annotations

from typing import Any, Type

from ..core.errors import UnknownIndexError
from .annoy import AnnoyIndex
from .base import VectorIndex
from .diskann import DiskAnnIndex
from .fanng import FanngIndex
from .filtered_graph import FilteredHnswIndex
from .flat import FlatIndex
from .hnsw import HnswIndex
from .ivf import IvfAdcIndex, IvfFlatIndex, IvfSqIndex
from .kdtree import KdTreeIndex
from .knng import KnngIndex
from .l2h import ItqHashIndex, SpectralHashIndex
from .lsh import LshIndex
from .ngt import NgtIndex
from .nndescent import NnDescentIndex
from .nsg import NsgIndex
from .nsw import NswIndex
from .pcatree import PcaTreeIndex
from .quantized import PqIndex, SqIndex
from .randkd import RandomizedKdForestIndex
from .rptree import RpTreeIndex
from .spann import SpannIndex
from .vamana import VamanaIndex

_REGISTRY: dict[str, Type[VectorIndex]] = {
    cls.name: cls
    for cls in (
        AnnoyIndex,
        DiskAnnIndex,
        FanngIndex,
        FilteredHnswIndex,
        FlatIndex,
        HnswIndex,
        ItqHashIndex,
        IvfAdcIndex,
        IvfFlatIndex,
        IvfSqIndex,
        KdTreeIndex,
        KnngIndex,
        LshIndex,
        NgtIndex,
        NnDescentIndex,
        NsgIndex,
        NswIndex,
        PcaTreeIndex,
        PqIndex,
        RandomizedKdForestIndex,
        RpTreeIndex,
        SpannIndex,
        SpectralHashIndex,
        SqIndex,
        VamanaIndex,
    )
}
_REGISTRY["opq"] = PqIndex  # created with optimized=True via make_index


def register_index(name: str, cls: Type[VectorIndex]) -> None:
    """Register a custom index class under ``name``."""
    _REGISTRY[name.lower()] = cls


def available_indexes() -> list[str]:
    return sorted(_REGISTRY)


def index_families() -> dict[str, list[str]]:
    """Indexes grouped by the tutorial's structural taxonomy."""
    families: dict[str, list[str]] = {}
    for name, cls in _REGISTRY.items():
        families.setdefault(cls.family, []).append(name)
    return {fam: sorted(names) for fam, names in sorted(families.items())}


def make_index(name: str, **kwargs: Any) -> VectorIndex:
    """Instantiate an index by registry name with constructor kwargs,
    stamped with that definition for whoever must recreate it."""
    key = name.lower()
    if key == "opq":
        kwargs.setdefault("optimized", True)
    try:
        cls = _REGISTRY[key]
    except KeyError:
        raise UnknownIndexError(
            f"unknown index {name!r}; available: {', '.join(available_indexes())}"
        ) from None
    index = cls(**kwargs)
    index.definition = (key, kwargs)
    return index
