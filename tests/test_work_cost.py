"""The one work→time model: fitted defaults, the fit, and the plans its
prices choose."""

import dataclasses
import json
import pathlib
import time

import numpy as np
import pytest

from repro import VectorDatabase, WorkCostModel
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
    "index_type, n, params",
    [("hnsw", 2_000, dict(m=16, ef_construction=64, seed=0)),
     ("ivf_flat", 20_000, dict(nlist=128, seed=0))],
)
def test_indexed_databases_still_plan_index_scan(index_type, n, params):
    db, query = _database(n)
    db.create_index("main", index_type, **params)
    assert db.search(query, 10).stats.plan_name.startswith("index_scan")
