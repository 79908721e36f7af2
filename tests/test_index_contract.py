"""Contract tests every index must satisfy, parametrized over the zoo.

These are the invariants the rest of the system (executor, hybrid
operators, distributed nodes) relies on:

* results are sorted ascending by distance, at most k of them;
* an ``allowed`` mask is never violated (block-first scan correctness);
* external ids round-trip;
* recall on an easy clustered workload clears a per-family floor;
* unknown search params raise TypeError;
* searching an unbuilt index raises IndexNotBuiltError.
"""

import numpy as np
import pytest
from oracles import doubling_range_reference

from repro.core.errors import IndexNotBuiltError
from repro.core.types import SearchStats
from repro.index import available_indexes, make_index

# Constructor overrides that keep slow builders fast at n=300.
FAST_KWARGS = {
    "lsh": {"num_tables": 12, "hashes_per_table": 4},
    "ivf_flat": {"nlist": 12, "nprobe": 4},
    "ivf_sq": {"nlist": 12, "nprobe": 4},
    "ivf_adc": {"nlist": 12, "nprobe": 6, "m": 4, "ks": 32, "rerank": 40},
    "pq": {"m": 4, "ks": 32, "rerank": 40},
    "opq": {"m": 4, "ks": 32, "rerank": 40, "opq_iterations": 2},
    "sq": {"rerank": 40},
    "spann": {"num_postings": 12, "nprobe": 4},
    "nndescent": {"graph_k": 10, "max_iterations": 4},
    "nsg": {"max_degree": 10, "knng_k": 10},
    "vamana": {"max_degree": 10, "beam_width": 32},
    "fanng": {"num_trials": 600, "init_knng_k": 6},
    "diskann": {"max_degree": 10, "build_beam_width": 32, "pq_m": 4, "pq_ks": 32},
    "hnsw": {"m": 8, "ef_construction": 48},
    "filtered_hnsw": {"m": 8, "ef_construction": 48, "label_k": 4},
    "nsw": {"connections": 8},
    "ngt": {"edge_size": 8, "ef_construction": 32},
    "knng": {"graph_k": 10},
    "annoy": {"num_trees": 6, "search_k": 48},
    "rp_tree": {"num_trees": 4, "max_leaves": 48},
    "randkd_forest": {"num_trees": 4, "max_leaves": 48},
    "pca_tree": {"max_leaves": 48},
    "kdtree": {},
    "flat": {},
    "spectral_hash": {"nbits": 24, "rerank": 60},
    "itq_hash": {"nbits": 24, "rerank": 60},
}

# Minimum acceptable recall@10 on the easy clustered workload.  Table
# indexes without tuning are allowed to be weak; graph indexes must be
# strong.
RECALL_FLOOR = {
    "flat": 1.0,
    "kdtree": 1.0,  # exact mode
    "lsh": 0.15,
    "spectral_hash": 0.5,
    "itq_hash": 0.5,
    "spann": 0.5,
    "ivf_adc": 0.6,
    "pq": 0.6,
    "opq": 0.6,
    "sq": 0.9,
    "ivf_sq": 0.5,
    "ivf_flat": 0.5,
    "annoy": 0.6,
    "rp_tree": 0.6,
    "randkd_forest": 0.6,
    "pca_tree": 0.6,
    "knng": 0.8,
    "nndescent": 0.8,
    "nsw": 0.8,
    "ngt": 0.8,
    "hnsw": 0.9,
    "filtered_hnsw": 0.9,
    "nsg": 0.9,
    "vamana": 0.9,
    "fanng": 0.7,
    "diskann": 0.8,
}

ALL = sorted(available_indexes())


def build(name, data, score="l2", ids=None):
    index = make_index(name, score=score, **FAST_KWARGS.get(name, {}))
    return index.build(data, ids=ids)


@pytest.fixture(scope="module")
def built_indexes(small_data):
    return {name: build(name, small_data) for name in ALL}


@pytest.mark.parametrize("name", ALL)
class TestIndexContract:
    def test_results_sorted_and_bounded(self, name, built_indexes, small_queries):
        hits = built_indexes[name].search(small_queries[0], 10)
        assert len(hits) <= 10
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)

    def test_no_duplicate_ids(self, name, built_indexes, small_queries):
        hits = built_indexes[name].search(small_queries[0], 10)
        ids = [h.id for h in hits]
        assert len(ids) == len(set(ids))

    def test_recall_floor(self, name, built_indexes, small_queries, ground_truth_10):
        index = built_indexes[name]
        recalls = []
        for qi, q in enumerate(small_queries):
            hits = index.search(q, 10)
            truth = set(int(t) for t in ground_truth_10[qi])
            recalls.append(len(truth.intersection(h.id for h in hits)) / 10)
        assert float(np.mean(recalls)) >= RECALL_FLOOR[name], (
            f"{name} recall {np.mean(recalls):.2f} below floor"
        )

    def test_allowed_mask_respected(self, name, built_indexes, small_queries,
                                    small_data):
        index = built_indexes[name]
        allowed = np.zeros(small_data.shape[0], dtype=bool)
        allowed[::3] = True
        hits = index.search(small_queries[1], 10, allowed=allowed)
        assert all(h.id % 3 == 0 for h in hits)

    def test_all_blocked_returns_empty(self, name, built_indexes, small_queries,
                                       small_data):
        allowed = np.zeros(small_data.shape[0], dtype=bool)
        hits = built_indexes[name].search(small_queries[0], 5, allowed=allowed)
        assert hits == []

    def test_k_one(self, name, built_indexes, small_queries):
        hits = built_indexes[name].search(small_queries[2], 1)
        assert len(hits) == 1

    def test_k_zero(self, name, built_indexes, small_queries):
        assert built_indexes[name].search(small_queries[0], 0) == []

    def test_member_query_finds_itself(self, name, built_indexes, small_data):
        # Query with a database vector: it must appear in the top few.
        hits = built_indexes[name].search(small_data[42], 10)
        assert 42 in [h.id for h in hits][:5], f"{name} missed the member vector"

    def test_stats_populated(self, name, built_indexes, small_queries):
        stats = SearchStats()
        built_indexes[name].search(small_queries[0], 5, stats=stats)
        work = (
            stats.distance_computations
            + stats.candidates_examined
            + stats.nodes_visited
            + stats.page_reads
        )
        assert work > 0

    def test_unknown_param_rejected(self, name, built_indexes, small_queries):
        with pytest.raises(TypeError):
            built_indexes[name].search(small_queries[0], 5, bogus_param=1)

    def test_unbuilt_search_raises(self, name):
        index = make_index(name, **FAST_KWARGS.get(name, {}))
        with pytest.raises(IndexNotBuiltError):
            index.search(np.zeros(12, dtype=np.float32), 5)

    def test_custom_external_ids(self, name, small_data, small_queries):
        ids = np.arange(small_data.shape[0], dtype=np.int64) * 7 + 1000
        index = make_index(name, **FAST_KWARGS.get(name, {}))
        # Masks index by external id; make them valid array indexes.
        index.build(small_data, ids=ids)
        hits = index.search(small_queries[0], 5)
        assert all((h.id - 1000) % 7 == 0 for h in hits)

    def test_dim_mismatch_rejected(self, name, built_indexes):
        from repro.core.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            built_indexes[name].search(np.zeros(5, dtype=np.float32), 3)

    def test_repr_mentions_state(self, name, built_indexes):
        text = repr(built_indexes[name])
        assert "n=300" in text

    def test_len(self, name, built_indexes):
        assert len(built_indexes[name]) == 300


@pytest.mark.parametrize("name", [n for n in ALL if n not in ("flat",)])
def test_range_search_fallback(name, built_indexes, small_queries):
    """Generic range search returns only hits within the radius."""
    index = built_indexes[name]
    hits = index.range_search(small_queries[0], radius=2.0)
    assert all(h.distance <= 2.0 for h in hits)


#: Indexes whose probe names the same rows at every k, all ranked exactly:
#: a range query is one probe and one exact scan within the radius.
ONE_PROBE_RANGE = {
    "flat", "ivf_flat", "lsh", "annoy", "rp_tree", "randkd_forest", "pca_tree"
}


def _by_distance_then_id(hits):
    order = np.lexsort((hits.ids, hits.distances))
    return hits.ids[order].tolist(), hits.distances.tobytes()


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("name", ALL)
def test_range_search_answers_as_the_doubling_search(
    name, masked, built_indexes, small_data, small_queries
):
    """Every range search returns the hits of ``search`` re-run at
    doubling k (tests/oracles.py) — the distances byte for byte, the ids
    up to the order of rows at equal distance.  Where the probe is exact
    at any k it is run once: the counters are one search's."""
    index = built_indexes[name]
    query = small_queries[1]
    # Past 150 of the 300 rows: the doubling search needs three rounds.
    radius = float(np.sort(np.linalg.norm(small_data - query, axis=1))[150])
    allowed = np.arange(len(small_data)) % 3 != 0 if masked else None
    got, want = SearchStats(), SearchStats()
    hits = index.range_search(query, radius, allowed=allowed, stats=got)
    reference = doubling_range_reference(index, query, radius, allowed, want)
    assert hits.distances.tobytes() == reference.distances.tobytes()
    assert _by_distance_then_id(hits) == _by_distance_then_id(reference)
    assert index._exact_probe({}) == (name in ONE_PROBE_RANGE)
    if name in ONE_PROBE_RANGE:
        one = SearchStats()
        index.search(query, 10, allowed=allowed, stats=one)
        assert got == one


def test_memory_bytes_nonnegative(built_indexes):
    for name, index in built_indexes.items():
        assert index.memory_bytes() >= 0, name


@pytest.mark.parametrize("name", ALL)
def test_memory_bytes_counts_the_structure_not_the_search_caches(
    name, small_data, small_queries
):
    """An index that holds a structure reports it (flat holds none), and
    the figure is the same before and after a search: lazily made search
    caches (row auxiliaries, packed adjacency) are not resident structure."""
    index = make_index(name, **FAST_KWARGS.get(name, {}))
    assert index.memory_bytes() == 0, "unbuilt"
    before = index.build(small_data).memory_bytes()
    assert (before == 0) if name == "flat" else (before > 0)
    index.search(small_queries[0], 5)
    index.range_search(small_queries[0], radius=2.0)
    assert index.memory_bytes() == before


def test_opq_counts_its_rotation(small_data):
    pq, opq = (build(name, small_data).memory_bytes() for name in ("pq", "opq"))
    assert opq == pq + small_data.shape[1] ** 2 * 8


def test_build_seconds_recorded(built_indexes):
    for name, index in built_indexes.items():
        assert index.build_seconds >= 0.0
