"""Tests for plan enumeration, the cost model, and plan selection."""

import pytest

from repro.core.cost import WorkCostModel
from repro.core.errors import PlanningError
from repro.core.optimizer import (
    CostBasedSelector,
    FirstPlanSelector,
    RuleBasedSelector,
)
from repro.core.planner import AutomaticPlanner, PredefinedPlanner, QueryPlan
from repro.index import HnswIndex, IvfFlatIndex


@pytest.fixture(scope="module")
def indexes(small_data):
    return {
        "graph": HnswIndex(m=8, ef_construction=48, seed=0).build(small_data),
        "ivf": IvfFlatIndex(nlist=12, seed=0).build(small_data),
    }


class TestQueryPlan:
    def test_invalid_strategy(self):
        with pytest.raises(PlanningError):
            QueryPlan("teleport")

    def test_describe(self):
        plan = QueryPlan("post_filter", "main", oversample=4.0)
        text = plan.describe()
        assert "post_filter" in text and "main" in text and "a=4" in text


class TestAutomaticPlanner:
    def test_plain_plans(self, indexes):
        plans = AutomaticPlanner().enumerate(False, indexes)
        strategies = [p.strategy for p in plans]
        assert strategies.count("index_scan") == 2
        assert "brute_force" in strategies

    def test_hybrid_plans_cover_taxonomy(self, indexes):
        plans = AutomaticPlanner().enumerate(True, indexes)
        strategies = {p.strategy for p in plans}
        assert strategies == {"pre_filter", "block_first", "post_filter",
                              "visit_first"}
        # visit_first only for the graph index.
        vf = [p for p in plans if p.strategy == "visit_first"]
        assert [p.index_name for p in vf] == ["graph"]

    def test_partition_plans_when_covering(self, indexes):
        from repro.hybrid.predicates import Field

        class FakePart:
            def covers(self, predicate):
                return True

        plans = AutomaticPlanner().enumerate(
            True, indexes, {"bycat": FakePart()}, Field("cat") == 1
        )
        assert any(p.strategy == "partition" for p in plans)


class TestPredefinedPlanner:
    def test_single_plan(self, indexes):
        planner = PredefinedPlanner()
        plans = planner.enumerate(False, indexes)
        assert len(plans) == 1
        assert plans[0].strategy == "index_scan"
        assert plans[0].index_name == "graph"  # first registered

    def test_fallback_without_indexes(self):
        planner = PredefinedPlanner()
        assert planner.enumerate(False, {})[0].strategy == "brute_force"
        assert planner.enumerate(True, {})[0].strategy == "pre_filter"

    def test_custom_templates(self, indexes):
        planner = PredefinedPlanner(
            hybrid_plan=QueryPlan("block_first", "ivf")
        )
        plan = planner.enumerate(True, indexes)[0]
        assert plan.strategy == "block_first"
        assert plan.index_name == "ivf"


class TestCostModel:
    def test_prefilter_scales_with_selectivity(self, indexes):
        model = WorkCostModel()
        lo = model.estimate(QueryPlan("pre_filter"), None, 10000, 10, 0.01)
        hi = model.estimate(QueryPlan("pre_filter"), None, 10000, 10, 0.9)
        assert lo < hi

    def test_block_first_inflates_at_low_selectivity(self, indexes):
        model = WorkCostModel()
        plan = QueryPlan("block_first", "graph")
        lo = model.estimate(plan, indexes["graph"], 10000, 10, 0.01)
        hi = model.estimate(plan, indexes["graph"], 10000, 10, 0.9)
        assert lo > hi

    def test_postfilter_oversample_cost(self, indexes):
        model = WorkCostModel()
        cheap = QueryPlan("post_filter", "graph", oversample=1.0)
        pricey = QueryPlan("post_filter", "graph", oversample=100.0)
        assert model.estimate(cheap, indexes["graph"], 10000, 10, 0.5) < \
            model.estimate(pricey, indexes["graph"], 10000, 10, 0.5)

    def test_brute_force_linear_in_n(self):
        """One exact scan: the strategy's fixed term plus a distance a row."""
        model = WorkCostModel()
        plan = QueryPlan("brute_force")
        for n in (10000, 20000):
            assert model.estimate(plan, None, n, 10, 1.0) == (
                model.execution["brute_force"] + model.distance * n
            )

    def test_work_estimate_total(self):
        from repro.core.types import SearchStats

        est = SearchStats(distance_computations=10, page_reads=2, nodes_visited=3)
        model = WorkCostModel(
            distance=1.0, predicate=0.0, page_read=50.0, node_visit=0.5
        )
        assert model.work_seconds(est) == pytest.approx(10 + 100 + 1.5)

    def test_unknown_strategy_raises(self):
        model = WorkCostModel()
        plan = QueryPlan("brute_force")
        plan.strategy = "warp"  # bypass validation
        with pytest.raises(ValueError):
            model.estimate(plan, None, 100, 10, 0.5)

    def test_measured_cost(self):
        """An executed query is its strategy's fixed price plus its work."""
        from repro.core.types import SearchStats

        model = WorkCostModel(
            distance=2.0, predicate=0.0, page_read=0.0, node_visit=0.0,
            execution={"index_scan": 3.0},
        )
        stats = SearchStats(distance_computations=5)
        assert model.execution_seconds("index_scan", stats) == pytest.approx(13.0)


class TestSelectors:
    def _hybrid_plans(self, indexes):
        return AutomaticPlanner().enumerate(True, indexes)

    def test_first_selector(self, indexes):
        plans = self._hybrid_plans(indexes)
        assert FirstPlanSelector().select(plans, indexes, 300, 10, 0.5) is plans[0]

    def test_first_selector_empty(self, indexes):
        with pytest.raises(PlanningError):
            FirstPlanSelector().select([], indexes, 300, 10, 0.5)

    def test_rule_based_thresholds(self, indexes):
        selector = RuleBasedSelector(prefilter_below=0.05, postfilter_above=0.5)
        plans = self._hybrid_plans(indexes)
        assert selector.select(plans, indexes, 300, 10, 0.01).strategy == "pre_filter"
        assert selector.select(plans, indexes, 300, 10, 0.8).strategy == "post_filter"
        mid = selector.select(plans, indexes, 300, 10, 0.2).strategy
        assert mid in ("visit_first", "block_first")

    def test_rule_based_sets_oversample(self, indexes):
        selector = RuleBasedSelector()
        plans = self._hybrid_plans(indexes)
        chosen = selector.select(plans, indexes, 300, 10, 0.8)
        assert chosen.oversample == pytest.approx(1 / 0.8)

    def test_rule_based_invalid_thresholds(self):
        with pytest.raises(PlanningError):
            RuleBasedSelector(prefilter_below=0.9, postfilter_above=0.1)

    def test_rule_based_plain_prefers_index(self, indexes):
        plans = AutomaticPlanner().enumerate(False, indexes)
        chosen = RuleBasedSelector().select(plans, indexes, 300, 10, 1.0)
        assert chosen.strategy == "index_scan"

    def test_cost_based_picks_prefilter_when_selective(self, indexes):
        selector = CostBasedSelector()
        plans = self._hybrid_plans(indexes)
        chosen = selector.select(plans, indexes, 100000, 10, 0.001)
        assert chosen.strategy == "pre_filter"

    def test_cost_based_annotates_costs(self, indexes):
        selector = CostBasedSelector()
        plans = self._hybrid_plans(indexes)
        selector.select(plans, indexes, 1000, 10, 0.3)
        assert all(p.estimated_cost is not None for p in plans)

    def test_cost_based_never_picks_dominated(self, indexes):
        selector = CostBasedSelector()
        plans = self._hybrid_plans(indexes)
        chosen = selector.select(plans, indexes, 1000, 10, 0.3)
        assert chosen.estimated_cost == min(p.estimated_cost for p in plans)


class TestPlanCache:
    def _plan(self, strategy="brute_force"):
        return QueryPlan(strategy)

    def test_invalid_capacity(self):
        from repro.core.planner import PlanCache

        with pytest.raises(PlanningError):
            PlanCache(capacity=0)

    def test_miss_then_hit_counts(self):
        from repro.core.planner import PlanCache

        cache = PlanCache()
        assert cache.get(("k",)) is None
        chosen = self._plan()
        cache.put(("k",), chosen, [chosen])
        got = cache.get(("k",))
        assert got is not None and got[0] is chosen
        assert got[1] == (chosen,)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_lru_eviction_and_recency_refresh(self):
        from repro.core.planner import PlanCache

        cache = PlanCache(capacity=2)
        a, b, c = (self._plan() for _ in range(3))
        cache.put("a", a, [])
        cache.put("b", b, [])
        cache.get("a")  # refresh: "b" is now least recent
        cache.put("c", c, [])
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_clear_and_info(self):
        from repro.core.planner import PlanCache

        cache = PlanCache(capacity=8)
        cache.put("x", self._plan(), [])
        cache.get("x")
        cache.get("y")
        cache.clear()
        assert len(cache) == 0
        info = cache.info()
        assert info == {"hits": 1, "misses": 1, "size": 0, "capacity": 8}
