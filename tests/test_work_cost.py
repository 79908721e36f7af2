"""The one work→time model: fitted defaults, the fit, and the plans its
prices choose."""

import dataclasses
import json
import pathlib
import time

import numpy as np
import pytest

from repro import VectorDatabase, WorkCostModel
from repro.core.optimizer import CostBasedSelector
from repro.core.planner import QueryPlan
from repro.core.types import SearchStats

ARTIFACT = (
    pathlib.Path(__file__).parent.parent
    / "benchmarks" / "results" / "work_cost.json"
)


def test_defaults_equal_the_committed_fit():
    prices = json.loads(ARTIFACT.read_text())["prices"]
    assert WorkCostModel() == WorkCostModel(**prices)
    assert set(prices) == {f.name for f in dataclasses.fields(WorkCostModel)}


class TestWorkCostModelFit:
    TRUE = dict(distance=1e-7, predicate=3e-9, page_read=5e-5)
    EXECUTION = {"index_scan": 2e-4, "brute_force": 5e-5}

    def _synthetic_samples(self, n=60, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        strategies, stats, seconds = [], [], []
        for i in range(n):
            strategy = ("index_scan", "brute_force")[i % 2]
            s = SearchStats(
                distance_computations=int(rng.integers(100, 10_000)),
                predicate_evaluations=int(rng.integers(0, 5_000)),
                page_reads=int(rng.integers(0, 50)),
            )
            strategies.append(strategy)
            stats.append(s)
            seconds.append(
                self.TRUE["distance"] * s.distance_computations
                + self.TRUE["predicate"] * s.predicate_evaluations
                + self.TRUE["page_read"] * s.page_reads
                + self.EXECUTION[strategy]
                + abs(rng.normal(0, noise))
            )
        return strategies, stats, seconds

    def test_recovers_true_weights(self):
        model = WorkCostModel().fit(*self._synthetic_samples())
        for name, price in self.TRUE.items():
            assert getattr(model, name) == pytest.approx(price, rel=1e-6)
        for strategy, price in self.EXECUTION.items():
            assert model.execution[strategy] == pytest.approx(price, rel=1e-6)
        # No evidence, no change: nodes were never visited, and two
        # strategies never ran.
        default = WorkCostModel()
        assert model.node_visit == default.node_visit
        assert model.execution["partition"] == default.execution["partition"]

    def test_prediction_accuracy(self):
        model = WorkCostModel().fit(*self._synthetic_samples(noise=1e-8))
        stats = SearchStats(distance_computations=5000, page_reads=10)
        expected = 1e-7 * 5000 + 5e-5 * 10 + 5e-5
        assert model.execution_seconds("brute_force", stats) == pytest.approx(
            expected, rel=0.05)

    def test_weights_nonnegative(self):
        model = WorkCostModel().fit(*self._synthetic_samples(noise=1e-3))
        assert min(model.distance, model.predicate, model.page_read) >= 0
        assert min(model.execution.values()) >= 0

    def test_needs_observations(self):
        strategies, stats, seconds = self._synthetic_samples(n=5)  # 3 + 2 prices
        WorkCostModel().fit(strategies, stats, seconds)
        with pytest.raises(ValueError):
            WorkCostModel().fit(strategies[:4], stats[:4], seconds[:4])
        with pytest.raises(ValueError):
            WorkCostModel().fit([], [], [])
        with pytest.raises(ValueError):  # one strategy per execution
            WorkCostModel().fit(strategies[:4], stats, seconds)

    def test_fits_real_executions(self, hybrid_dataset):
        """End to end: time real plan executions, fit, sanity-check."""
        db = VectorDatabase(dim=hybrid_dataset.dim)
        db.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
        db.create_index("ivf", "ivf_flat", nlist=8, seed=0)
        strategies, stats, seconds = [], [], []
        for q in hybrid_dataset.queries:
            for plan in (QueryPlan("brute_force"), QueryPlan("index_scan", "ivf")):
                start = time.perf_counter()
                result = db.search(q, k=10, plan=plan)
                seconds.append(time.perf_counter() - start)
                strategies.append(plan.strategy)
                stats.append(result.stats)
        model = WorkCostModel().fit(strategies, stats, seconds)
        fitted = [model.distance, model.node_visit,
                  model.execution["brute_force"], model.execution["index_scan"]]
        assert all(np.isfinite(fitted)) and min(fitted) >= 0


def _database(n, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    db = VectorDatabase(dim=dim)
    db.insert_many(rng.standard_normal((n, dim)).astype(np.float32))
    return db, rng.standard_normal(dim).astype(np.float32)


@pytest.mark.parametrize("index_type", ["pq", "sq"])
def test_whole_collection_code_scan_plans_brute_force(index_type):
    """A PQ / SQ scan charges one distance per code, so it is never
    cheaper than the exact scan of the same rows."""
    db, query = _database(2_000)
    db.create_index("codes", index_type)
    assert db.search(query, 10).stats.plan_name.startswith("brute_force")


@pytest.mark.parametrize(
    "index_type, n, params", [("ivf_flat", 20_000, dict(nlist=128, seed=0))]
)
def test_indexed_databases_still_plan_index_scan(index_type, n, params):
    db, query = _database(n)
    db.create_index("main", index_type, **params)
    assert db.search(query, 10).stats.plan_name.startswith("index_scan")


def test_small_hnsw_database_plans_the_exact_scan():
    """Priced with its fixed term and its node visits, a 2 000-row beam
    costs more than the exact scan, which answers exactly."""
    db, query = _database(2_000)
    db.create_index("main", "hnsw", m=16, ef_construction=64, seed=0)
    result = db.search(query, 10)
    assert result.stats.plan_name.startswith("brute_force")
    exact = db.search(query, 10, plan=QueryPlan("brute_force"))
    assert result.ids == exact.ids


def test_hnsw_plans_index_scan_above_the_priced_crossover():
    """The built graph's parameters priced at larger n (no 12 000-row
    graph is built): ef_search 32 crosses the exact scan near 10 800."""
    db, _ = _database(2_000)
    db.create_index("main", "hnsw", m=16, ef_construction=64, ef_search=32, seed=0)
    selector = CostBasedSelector()

    def chosen(n):
        plans = [QueryPlan("brute_force"), QueryPlan("index_scan", "main")]
        return selector.select(plans, db.indexes, n, 10, 1.0).strategy

    assert chosen(10_000) == "brute_force"
    assert chosen(12_000) == "index_scan"


@pytest.fixture(scope="module")
def indexed():
    """The reference database: 2 000 x 16 rows, one index per family."""
    db, _ = _database(2_000)
    db.create_index("graph", "hnsw", m=16, ef_construction=64, seed=0)
    db.create_index("table", "ivf_flat", nlist=32, nprobe=8, seed=0)
    db.create_index("tree", "rp_tree", seed=0)
    db.create_index("hashes", "lsh", seed=0)
    return db


def test_estimate_is_the_execution_price_of_the_estimated_counters(indexed):
    model = WorkCostModel()
    for strategy in ("brute_force", "pre_filter", "index_scan", "block_first",
                     "post_filter", "visit_first", "partition"):
        for name in ("graph", "table", "tree", "hashes"):
            plan = QueryPlan(strategy, name)
            index = indexed.indexes[name]
            for n, selectivity, tail in ((2_000, 1.0, 0), (50_000, 0.1, 300)):
                stats = model.estimated_stats(plan, index, n, 10, selectivity, tail)
                assert model.estimate(plan, index, n, 10, selectivity, tail) == (
                    model.execution_seconds(strategy, stats)
                )


#: How far a family's estimated node visits may sit from what its kernel
#: charges on the reference database (measured: graph 1.09, table and
#: tree 1.00 — an HNSW's upper-layer descent is the difference).
NODE_VISIT_FACTOR = 1.5


@pytest.mark.parametrize("name", ["graph", "table", "tree"])
def test_estimated_node_visits_track_the_kernel(indexed, name):
    queries = np.random.default_rng(1).standard_normal((20, 16)).astype(np.float32)
    plan = QueryPlan("index_scan", name)
    charged = np.mean([
        indexed.search(q, 10, plan=plan).stats.nodes_visited for q in queries
    ])
    estimated = WorkCostModel().estimated_stats(
        plan, indexed.indexes[name], len(indexed), 10, 1.0
    ).nodes_visited
    assert 1 / NODE_VISIT_FACTOR <= charged / estimated <= NODE_VISIT_FACTOR


def test_selector_never_picks_a_plan_dearer_than_the_exact_scan(indexed):
    """Whatever the size and the selectivity, the chosen plan is the
    cheapest priced, so never priced above the exact scan the query
    could have run: brute force, or the pre-filter scan under a
    predicate."""
    selector = CostBasedSelector()
    planner = indexed.planner
    for n in (500, 2_000, 20_000, 200_000):
        for hybrid, selectivity in ((False, 1.0), (True, 0.001), (True, 0.1),
                                    (True, 0.9)):
            plans = planner.enumerate(hybrid, indexed.indexes)
            chosen = selector.select(plans, indexed.indexes, n, 10, selectivity)
            exact = plans[0]
            assert exact.strategy == ("pre_filter" if hybrid else "brute_force")
            assert chosen.estimated_cost <= exact.estimated_cost
            assert chosen.estimated_cost == min(p.estimated_cost for p in plans)
