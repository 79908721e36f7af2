"""E5 (§2.2 tree-based): logarithmic depth, forests, randomization at
high dimension.

Regenerates:

* tree depth grows ~log2(N) (k-d tree N sweep);
* recall vs leaf budget for each tree index — forests (ANNOY/RP/rand-kd)
  dominate a single deterministic tree at the same budget;
* the high-d failure of bounded-backtrack deterministic k-d search that
  motivated randomized trees.
"""

import math

import numpy as np
import pytest

from _util import emit, recall_of
from repro.bench.datasets import gaussian_mixture
from repro.bench.metrics import exact_ground_truth
from repro.bench.reporting import format_table
from repro.index import (
    AnnoyIndex,
    KdTreeIndex,
    PcaTreeIndex,
    RandomizedKdForestIndex,
    RpTreeIndex,
)
from repro.scores import EuclideanScore


@pytest.fixture(scope="module")
def e5_depth_table():
    rows = []
    for n in (500, 2000, 8000):
        ds = gaussian_mixture(n=n, dim=16, seed=0)
        index = KdTreeIndex(leaf_size=8).build(ds.train)
        [stats] = index.stats()
        rows.append(
            {
                "N": n,
                "max_depth": int(stats["max_depth"]),
                "log2(N/leaf)": round(math.log2(n / 8), 1),
                "num_leaves": int(stats["num_leaves"]),
            }
        )
    emit("e5_depth", format_table(rows, "E5a: k-d tree depth vs N (log growth)"))
    return rows


@pytest.fixture(scope="module")
def e5_budget_table(workload, truth10):
    indexes = {
        "kdtree": (KdTreeIndex(leaf_size=16).build(workload.train), "max_leaves"),
        "pca_tree": (PcaTreeIndex(leaf_size=16, seed=0).build(workload.train),
                     "max_leaves"),
        "rp_tree(x4)": (RpTreeIndex(num_trees=4, seed=0).build(workload.train),
                        "max_leaves"),
        "randkd(x4)": (
            RandomizedKdForestIndex(num_trees=4, seed=0).build(workload.train),
            "max_leaves",
        ),
        "annoy(x8)": (AnnoyIndex(num_trees=8, seed=0).build(workload.train),
                      "search_k"),
    }
    rows = []
    for budget in (4, 16, 64):
        row = {"leaf_budget": budget}
        for name, (index, kw) in indexes.items():
            recalls = [
                recall_of(index.search(q, 10, **{kw: budget}), truth10[i])
                for i, q in enumerate(workload.queries)
            ]
            row[name] = round(float(np.mean(recalls)), 3)
        rows.append(row)
    emit("e5_budget", format_table(
        rows, "E5b: tree-index recall@10 vs leaf budget"
    ))
    return rows


@pytest.fixture(scope="module")
def e5_highdim_table():
    rows = []
    for dim in (8, 64, 256):
        ds = gaussian_mixture(n=2000, dim=dim, num_queries=15, seed=1)
        truth = exact_ground_truth(ds.train, ds.queries, 10, EuclideanScore())
        kd = KdTreeIndex(leaf_size=16).build(ds.train)
        annoy = AnnoyIndex(num_trees=8, seed=0).build(ds.train)
        kd_recall = float(np.mean([
            recall_of(kd.search(q, 10, max_leaves=16), truth[i])
            for i, q in enumerate(ds.queries)
        ]))
        annoy_recall = float(np.mean([
            recall_of(annoy.search(q, 10, search_k=16), truth[i])
            for i, q in enumerate(ds.queries)
        ]))
        rows.append(
            {
                "dim": dim,
                "kdtree@16 leaves": round(kd_recall, 3),
                "annoy@16 leaves": round(annoy_recall, 3),
            }
        )
    emit("e5_highdim", format_table(
        rows, "E5c: deterministic vs randomized trees as dimension grows"
    ))
    return rows


def test_e5_depth_logarithmic(e5_depth_table):
    for row in e5_depth_table:
        assert row["max_depth"] <= 2 * row["log2(N/leaf)"] + 4


def test_e5_budget_monotonic(e5_budget_table):
    for name in ("kdtree", "annoy(x8)", "rp_tree(x4)"):
        series = [row[name] for row in e5_budget_table]
        assert all(b >= a - 0.03 for a, b in zip(series, series[1:])), name


def test_e5_forest_beats_single_tree_at_budget(e5_budget_table):
    mid = e5_budget_table[1]  # budget 16
    forest_best = max(mid["rp_tree(x4)"], mid["randkd(x4)"], mid["annoy(x8)"])
    assert forest_best >= mid["kdtree"] - 0.05


def test_bench_e5_kdtree_exact(benchmark, workload, e5_depth_table,
                               e5_budget_table, e5_highdim_table):
    index = KdTreeIndex(leaf_size=16).build(workload.train)
    q = workload.queries[0]
    benchmark(lambda: index.search(q, 10))


def test_bench_e5_annoy_search(benchmark, workload):
    index = AnnoyIndex(num_trees=8, seed=0).build(workload.train)
    q = workload.queries[0]
    benchmark(lambda: index.search(q, 10, search_k=32))
