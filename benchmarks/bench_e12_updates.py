"""E12 (§2.3 out-of-place updates): a tail beside the index vs rebuilds.

Regenerates the update-handling claim through ``VectorDatabase``: a
write lands out-of-place — in the tail of the built index, which every
search scans exactly and merges — and ``rebuild_indexes()`` folds it in
in bulk.  That sustains far higher write throughput than rebuilding the
graph every few inserts, while search recall stays high because queries
merge the tail exactly.
"""

import time

import numpy as np
import pytest

from _util import emit, recall_of
from repro import VectorDatabase
from repro.bench.datasets import gaussian_mixture
from repro.bench.metrics import exact_ground_truth
from repro.bench.reporting import format_table
from repro.index import HnswIndex
from repro.scores import EuclideanScore


@pytest.fixture(scope="module")
def update_workload():
    return gaussian_mixture(n=2500, dim=32, num_queries=15, seed=13)


HNSW = dict(m=12, ef_construction=48, seed=0)


def _fresh_index():
    return HnswIndex(**HNSW)


def _database(rows) -> VectorDatabase:
    """``rows`` behind one built HNSW index: later inserts are its tail."""
    db = VectorDatabase(dim=32)
    db.insert_many(rows)
    db.create_index("main", "hnsw", **HNSW)
    return db


@pytest.fixture(scope="module")
def e12_table(update_workload):
    ds = update_workload
    base, updates = ds.train[:1500], ds.train[1500:]
    rows = []

    # Policy 1: out-of-place (inserts join the index's tail), merged by a
    # rebuild at two intervals — a larger interval amortizes the rebuild
    # over more writes (§2.3's "apply in bulk at a more appropriate time").
    buffered_rates = {}
    buffered_by_interval = {}
    merges = {}
    for interval in (500, 1000):
        buffered = _database(base)
        merges[interval] = 0
        start = time.perf_counter()
        for count, v in enumerate(updates, 1):
            buffered.insert(v)
            if count % interval == 0:
                buffered.rebuild_indexes()
                merges[interval] += 1
        buffered_rates[interval] = len(updates) / (time.perf_counter() - start)
        buffered_by_interval[interval] = buffered
    buffered = buffered_by_interval[500]
    buffered_write = buffered_rates[500]

    # Policy 2: periodic full rebuild (every 100 inserts), no tail search.
    rebuild_index = _fresh_index().build(base)
    stored = [base]
    start = time.perf_counter()
    pending = []
    for i, v in enumerate(updates):
        pending.append(v)
        if len(pending) == 100:
            stored.append(np.vstack(pending))
            rebuild_index = _fresh_index().build(np.vstack(stored))
            pending = []
    if pending:
        stored.append(np.vstack(pending))
        rebuild_index = _fresh_index().build(np.vstack(stored))
    rebuild_write = len(updates) / (time.perf_counter() - start)

    # Search quality after all updates (ground truth over the full set).
    truth = exact_ground_truth(ds.train, ds.queries, 10, EuclideanScore())
    buffered_recall = float(np.mean([
        recall_of(buffered.search(q, k=10), truth[i])
        for i, q in enumerate(ds.queries)
    ]))
    rebuilt_recall = float(np.mean([
        recall_of(rebuild_index.search(q, 10), truth[i])
        for i, q in enumerate(ds.queries)
    ]))

    rows.append(
        {
            "policy": "out-of-place (index tail, rebuild@500)",
            "writes/s": round(buffered_write, 0),
            "recall@10_after": round(buffered_recall, 3),
            "merges": merges[500],
        }
    )
    rows.append(
        {
            "policy": "out-of-place (index tail, rebuild@1000)",
            "writes/s": round(buffered_rates[1000], 0),
            "recall@10_after": "(same path)",
            "merges": merges[1000],
        }
    )
    rows.append(
        {
            "policy": "in-place (full rebuild every 100)",
            "writes/s": round(rebuild_write, 0),
            "recall@10_after": round(rebuilt_recall, 3),
            "merges": "-",
        }
    )
    emit("e12_updates", format_table(
        rows, "E12: write throughput, out-of-place vs rebuild (1000 inserts)"
    ))
    return rows


def test_e12_buffered_writes_much_faster(e12_table):
    rebuild = e12_table[-1]["writes/s"]
    assert e12_table[0]["writes/s"] > 3 * rebuild  # merge@500
    assert e12_table[1]["writes/s"] > 6 * rebuild  # merge@1000 amortizes more


def test_e12_throughput_grows_with_merge_interval(e12_table):
    assert e12_table[1]["writes/s"] >= e12_table[0]["writes/s"]


def test_e12_recall_not_sacrificed(e12_table):
    assert e12_table[0]["recall@10_after"] >= e12_table[-1]["recall@10_after"] - 0.05
    assert e12_table[0]["recall@10_after"] >= 0.85


def test_bench_e12_buffered_insert(benchmark, update_workload, e12_table):
    buffered = _database(update_workload.train[:500])
    vectors = iter(np.tile(update_workload.train[500:], (50, 1)))
    benchmark(lambda: buffered.insert(next(vectors)))


def test_bench_e12_buffered_search(benchmark, update_workload):
    buffered = _database(update_workload.train[:1000])
    buffered.insert_many(update_workload.train[1000:1200])  # leave a live tail
    assert buffered.has_stale_indexes
    q = update_workload.queries[0]
    benchmark(lambda: buffered.search(q, k=10))
