"""``load(save(db))`` is the database that was saved: every index comes
back from the definition it was created with, not from attributes
sniffed off the built instance (which silently reset 21 constructor
parameters to their defaults, turned ``opq`` into ``pq`` and dropped
partitioned indexes)."""

import inspect
import json

import numpy as np
import pytest

from repro import Field, SearchQuery, VectorDatabase
from repro.core.planner import QueryPlan
from repro.index import available_indexes, make_index
from repro.quantization.opq import OptimizedProductQuantizer
from repro.scores import Score
from repro.storage import load_database, save_database

N, DIM = 160, 16

#: One non-default value for every JSON-able constructor parameter
#: (``test_every_constructor_parameter_is_exercised`` keeps it complete).
NON_DEFAULT = {
    "annoy": dict(num_trees=3, leaf_size=8, search_k=32, seed=5),
    "diskann": dict(max_degree=8, build_beam_width=24, alpha=1.1, pq_m=4,
                    pq_ks=16, beam_width=12, seed=5),
    "fanng": dict(max_degree=8, num_trials=50, init_knng_k=4, ef_search=32, seed=5),
    "filtered_hnsw": dict(m=6, ef_construction=32, ef_search=32, label_k=4, seed=5),
    "flat": dict(score="cosine"),
    "hnsw": dict(m=6, ef_construction=32, ef_search=32, level_multiplier=0.5, seed=5),
    "itq_hash": dict(nbits=16, rerank=50, iterations=5, seed=5),
    "ivf_adc": dict(nlist=8, nprobe=4, m=4, ks=16, rerank=20, seed=5,
                    layout="blocked"),
    "ivf_flat": dict(nlist=8, nprobe=4, seed=5),
    "ivf_sq": dict(nlist=8, nprobe=4, bits=4, seed=5),
    "kdtree": dict(leaf_size=8, max_leaves=4, seed=5),
    "knng": dict(graph_k=6, ef_search=32, num_entry_points=2, seed=5),
    "lsh": dict(num_tables=4, hashes_per_table=6, hash_family="pstable",
                bucket_width=2.0, num_probes=2, seed=5),
    "ngt": dict(edge_size=5, max_degree=10, ef_construction=24, ef_search=32,
                seed_leaves=3, leaf_size=8, seed=5),
    "nndescent": dict(graph_k=6, max_iterations=4, init="forest", ef_search=32,
                      num_entry_points=2, seed=5),
    "nsg": dict(max_degree=8, candidate_pool=24, knng_k=6, ef_search=32, seed=5),
    "nsw": dict(connections=4, ef_construction=24, ef_search=32,
                num_entry_points=3, seed=5),
    # "opq" is PqIndex with optimized=True supplied by the registry name.
    "opq": dict(m=4, ks=16, opq_iterations=3, rerank=20, seed=5),
    "pq": dict(m=4, ks=16, optimized=True, opq_iterations=3, rerank=20, seed=5),
    "pca_tree": dict(leaf_size=8, num_axes=4, rotate=False, max_leaves=8, seed=5),
    "randkd_forest": dict(num_trees=2, leaf_size=8, top_axes=3, max_leaves=16, seed=5),
    "rp_tree": dict(num_trees=2, leaf_size=8, jitter=0.1, max_leaves=16, seed=5),
    "spann": dict(num_postings=8, closure_epsilon=0.1, max_replicas=2, nprobe=4,
                  prune_epsilon=0.3, seed=5),
    "spectral_hash": dict(nbits=16, rerank=50),
    "sq": dict(bits=4, rerank=20),
    "vamana": dict(max_degree=8, beam_width=24, alpha=1.1, ef_search=32, seed=5),
}
#: Not JSON: a score object falls back to the database's score and a
#: device must be re-supplied (a *string* score is data and survives).
OBJECT_PARAMETERS = {"score", "disk"}


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(4).standard_normal((N, DIM)).astype(np.float32)


def given(index):
    """The definition an index was created with, minus score objects."""
    name, kwargs = index.definition
    return name, {k: v for k, v in kwargs.items() if not isinstance(v, Score)}


def public_scalars(index):
    return {
        key: value for key, value in vars(index).items()
        if not key.startswith("_") and key != "build_seconds"
        and isinstance(value, (int, float, str, bool, type(None)))
    }


@pytest.mark.parametrize("index_type", available_indexes())
def test_every_constructor_parameter_is_exercised(index_type):
    parameters = inspect.signature(type(make_index(index_type)).__init__).parameters
    kwargs = NON_DEFAULT[index_type]
    expected = set(parameters) - {"self"} - OBJECT_PARAMETERS
    if index_type == "opq":
        expected -= {"optimized"}
    assert set(kwargs) - OBJECT_PARAMETERS == expected
    assert all(kwargs[name] != parameters[name].default for name in kwargs)


@pytest.mark.parametrize("index_type", available_indexes())
def test_index_definition_survives_save_load(index_type, rows, tmp_path):
    kwargs = NON_DEFAULT[index_type]
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows)
    db.create_index("x", index_type, **kwargs)
    save_database(db, tmp_path)
    restored = load_database(tmp_path)

    original, reloaded = db.indexes["x"], restored.indexes["x"]
    assert type(reloaded) is type(original)
    assert public_scalars(reloaded) == public_scalars(original)
    expected = dict(kwargs, optimized=True) if index_type == "opq" else kwargs
    assert given(reloaded) == given(original) == (index_type, expected)
    plan = QueryPlan("index_scan", "x")
    for q in rows[:5] + 0.05:
        want, got = db.search(q, k=5, plan=plan), restored.search(q, k=5, plan=plan)
        assert (got.ids, got.distances) == (want.ids, want.distances)


def test_opq_comes_back_optimized(rows, tmp_path):
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows)
    db.create_index("o", "opq", m=4, ks=16, seed=0)
    save_database(db, tmp_path)
    restored = load_database(tmp_path)
    assert type(restored.indexes["o"].quantizer) is OptimizedProductQuantizer
    q = rows[3] + 0.05
    plan = QueryPlan("index_scan", "o")
    assert restored.search(q, k=5, plan=plan).ids == db.search(q, k=5, plan=plan).ids


def test_partitioned_index_survives_and_is_still_planned(rows, tmp_path):
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows, [{"g": i % 4} for i in range(N)])
    db.create_index("ivf", "ivf_flat", nlist=8, seed=3)
    db.create_partitioned_index("byg", "hnsw", "g", m=6, level_multiplier=0.5, seed=2)
    save_database(db, tmp_path)
    restored = load_database(tmp_path)

    part = restored.partitioned["byg"]
    assert part.attribute == "g" and part.partition_values == [0, 1, 2, 3]
    assert {(sub.m, sub.level_multiplier, sub.seed) for sub in part._partitions.values()} == {
        (6, 0.5, 2)
    }
    predicate = Field("g") == 2
    query = SearchQuery(rows[0], 5, predicate=predicate)
    assert "partition" in {p.strategy for p in restored.plan(query)[1]}
    plan = QueryPlan("partition", "byg")
    want = db.search(rows[0], k=5, predicate=predicate, plan=plan)
    got = restored.search(rows[0], k=5, predicate=predicate, plan=plan)
    assert (got.ids, got.distances) == (want.ids, want.distances)
    # A second round trip writes the same definitions.
    save_database(restored, tmp_path / "again")
    first, second = (
        json.loads((path / "manifest.json").read_text())["database"]
        for path in (tmp_path, tmp_path / "again")
    )
    assert first == second


def test_snapshot_without_the_partitioned_field_loads(rows, tmp_path):
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows)
    db.create_index("f", "flat")
    save_database(db, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == 2
    del manifest["database"]["partitioned"]  # as written before this field existed
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    restored = load_database(tmp_path)
    assert set(restored.indexes) == {"f"} and restored.partitioned == {}
