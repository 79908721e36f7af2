"""Search indexes: table-, tree-, and graph-based (§2.2 of the paper)."""

from ._kernels import ensure_f32c, topk_indices
from .annoy import AnnoyIndex
from .base import VectorIndex
from .diskann import DiskAnnIndex
from .fanng import FanngIndex
from .filtered_graph import FilteredHnswIndex
from .flat import FlatIndex
from .graph_base import GraphIndex
from .hnsw import HnswIndex
from .ivf import IvfAdcIndex, IvfFlatIndex, IvfSqIndex
from .kdtree import KdTreeIndex
from .knng import KnngIndex, brute_force_knng
from .l2h import BinaryHashIndex, ItqHashIndex, SpectralHashIndex
from .lsh import LshIndex
from .ngt import NgtIndex
from .nndescent import NnDescentIndex, knng_recall, nn_descent
from .nsg import NsgIndex
from .nsw import NswIndex
from .pcatree import PcaTreeIndex
from .quantized import PqIndex, SqIndex
from .randkd import RandomizedKdForestIndex
from .registry import available_indexes, index_families, make_index, register_index
from .rptree import RpTreeIndex
from .spann import SpannIndex
from .vamana import VamanaIndex, build_vamana_graph

__all__ = [
    "AnnoyIndex",
    "BinaryHashIndex",
    "DiskAnnIndex",
    "FanngIndex",
    "FilteredHnswIndex",
    "FlatIndex",
    "GraphIndex",
    "HnswIndex",
    "ItqHashIndex",
    "IvfAdcIndex",
    "IvfFlatIndex",
    "IvfSqIndex",
    "KdTreeIndex",
    "KnngIndex",
    "LshIndex",
    "NgtIndex",
    "NnDescentIndex",
    "NsgIndex",
    "NswIndex",
    "PcaTreeIndex",
    "PqIndex",
    "RandomizedKdForestIndex",
    "RpTreeIndex",
    "SpannIndex",
    "SpectralHashIndex",
    "SqIndex",
    "VamanaIndex",
    "VectorIndex",
    "available_indexes",
    "brute_force_knng",
    "build_vamana_graph",
    "ensure_f32c",
    "index_families",
    "knng_recall",
    "make_index",
    "nn_descent",
    "register_index",
    "topk_indices",
]
