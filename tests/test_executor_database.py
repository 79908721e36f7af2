"""Tests for the executor and the VectorDatabase facade."""

import numpy as np
import pytest

from repro.bench.datasets import hybrid_workload
from repro.core.database import VectorDatabase
from repro.core.errors import PlanningError, QueryError
from repro.core.planner import QueryPlan
from repro.core.query import SearchQuery
from repro.hybrid.predicates import Field
from repro.index import FlatIndex
from repro.scores import EuclideanScore


@pytest.fixture()
def db(hybrid_dataset):
    db = VectorDatabase(dim=hybrid_dataset.dim, score="l2", selector="cost")
    db.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
    db.create_index("graph", "hnsw", m=8, ef_construction=48, seed=0)
    db.create_index("ivf", "ivf_flat", nlist=12, seed=0)
    return db


@pytest.fixture(scope="module")
def oracle(hybrid_dataset):
    return FlatIndex(EuclideanScore()).build(hybrid_dataset.train)


class TestBasicSearch:
    def test_search_returns_sorted(self, db, hybrid_dataset):
        result = db.search(hybrid_dataset.queries[0], k=7)
        assert len(result) == 7
        assert result.distances == sorted(result.distances)
        assert result.stats.elapsed_seconds > 0
        assert result.stats.plan_name

    def test_every_strategy_executes(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        predicate = Field("category") == 1
        for plan in (
            QueryPlan("brute_force"),
            QueryPlan("pre_filter"),
            QueryPlan("block_first", "ivf"),
            QueryPlan("post_filter", "graph", oversample=8.0),
            QueryPlan("post_filter", "graph"),  # adaptive
            QueryPlan("visit_first", "graph"),
        ):
            result = db.search(q, k=5, predicate=predicate, plan=plan)
            cats = db.collection.columns["category"]
            assert all(cats[i] == 1 for i in result.ids), plan.strategy

    def test_hybrid_results_match_oracle(self, db, oracle, hybrid_dataset):
        predicate = Field("price") < 25
        q = hybrid_dataset.queries[1]
        mask = db.collection.predicate_mask(predicate)
        expected = [h.id for h in oracle.search(q, 5, allowed=mask)]
        got = db.search(q, k=5, predicate=predicate, plan=QueryPlan("pre_filter"))
        assert got.ids == expected

    def test_unknown_index_in_plan(self, db, hybrid_dataset):
        with pytest.raises(PlanningError, match="unknown index"):
            db.search(hybrid_dataset.queries[0], k=3,
                      plan=QueryPlan("index_scan", "nope"))

    def test_plan_without_index_rejected(self, db, hybrid_dataset):
        with pytest.raises(PlanningError):
            db.search(hybrid_dataset.queries[0], k=3,
                      plan=QueryPlan("index_scan"))


class TestDeletes:
    def test_deleted_items_never_returned(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        victim = db.search(q, k=1).ids[0]
        db.delete(victim)
        for plan in (QueryPlan("brute_force"), QueryPlan("index_scan", "graph")):
            result = db.search(q, k=5, plan=plan)
            assert victim not in result.ids


def tail_rows(db):
    return {
        name: entry["tail_rows"]
        for name, entry in db.health().database["index_freshness"].items()
    }


class TestStaleness:
    """An index is stale when it has a tail: rows written since its build,
    which every plan over it answers by an exact scan beside the index."""

    def test_inserts_mark_stale(self, db):
        assert not db.has_stale_indexes
        assert set(tail_rows(db).values()) == {0}
        db.insert(np.zeros(db.dim), {"category": 0, "price": 1.0, "rating": 3})
        assert db.has_stale_indexes
        assert set(tail_rows(db).values()) == {1}

    def test_stale_database_falls_back_to_exact_plans(self, db, hybrid_dataset):
        # What falls back to the exact scan is the tail alone: the planner
        # keeps every index plan, and each of them sees the new row.
        q = hybrid_dataset.queries[0]
        new_id = db.insert(q, {"category": 0, "price": 1.0, "rating": 3})
        assert db.search(q, k=1).ids == [new_id]
        plans = db.plan(SearchQuery(q, 1))[1]
        assert {p.index_name for p in plans} == {None, *db.indexes}
        for plan in plans:
            assert db.search(q, k=1, plan=plan).ids == [new_id], plan.describe()

    def test_rebuild_clears_staleness(self, db, hybrid_dataset):
        new_id = db.insert(
            hybrid_dataset.queries[0] + 100.0,
            {"category": 0, "price": 1.0, "rating": 3},
        )
        db.rebuild_indexes()
        assert not db.has_stale_indexes
        assert set(tail_rows(db).values()) == {0}
        result = db.search(
            hybrid_dataset.queries[0] + 100.0, k=1,
            plan=QueryPlan("index_scan", "graph"),
        )
        assert result.ids == [new_id]


class TestRangeBatchMulti:
    def test_range_search_exact(self, db, oracle, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        result = db.range_search(q, radius=2.0, plan=QueryPlan("brute_force"))
        expected = oracle.range_search(q, 2.0)
        assert result.ids == [h.id for h in expected]
        assert all(d <= 2.0 for d in result.distances)

    def test_range_with_predicate(self, db, hybrid_dataset):
        predicate = Field("rating") >= 3
        result = db.range_search(
            hybrid_dataset.queries[0], radius=3.0, predicate=predicate,
            plan=QueryPlan("brute_force"),
        )
        ratings = db.collection.columns["rating"]
        assert all(ratings[i] >= 3 for i in result.ids)

    def test_batch_matches_singles(self, db, hybrid_dataset):
        qs = hybrid_dataset.queries[:4]
        batch = db.batch_search(qs, k=5, plan=QueryPlan("brute_force"))
        for q, result in zip(qs, batch):
            single = db.search(q, k=5, plan=QueryPlan("brute_force"))
            assert result.ids == single.ids

    def test_batch_with_predicate_block_first(self, db, hybrid_dataset):
        predicate = Field("category") == 2
        batch = db.batch_search(
            hybrid_dataset.queries[:3], k=4, predicate=predicate,
            plan=QueryPlan("block_first", "graph"),
        )
        cats = db.collection.columns["category"]
        for result in batch:
            assert all(cats[i] == 2 for i in result.ids)

    def test_multivector_mean(self, db, hybrid_dataset):
        qs = hybrid_dataset.queries[:2]
        result = db.multi_vector_search(qs, k=5, aggregator="mean")
        assert len(result) == 5
        assert result.distances == sorted(result.distances)

    def test_multivector_weighted(self, db, hybrid_dataset):
        qs = hybrid_dataset.queries[:2]
        heavy_first = db.multi_vector_search(qs, k=3, weights=[100.0, 0.01])
        single = db.search(qs[0], k=3, plan=QueryPlan("brute_force"))
        # Heavily weighting the first query vector should make results
        # resemble a single-vector search for it.
        assert len(set(heavy_first.ids) & set(single.ids)) >= 2

    def test_multivector_brute_vs_index_agree(self, db, hybrid_dataset):
        qs = hybrid_dataset.queries[:2]
        brute = db.multi_vector_search(qs, k=5, plan=QueryPlan("brute_force"))
        indexed = db.multi_vector_search(
            qs, k=5, plan=QueryPlan("index_scan", "graph")
        )
        assert len(set(brute.ids) & set(indexed.ids)) >= 3

    def test_multivector_with_predicate(self, db, hybrid_dataset):
        result = db.multi_vector_search(
            hybrid_dataset.queries[:2], k=5, predicate=Field("rating") >= 4
        )
        ratings = db.collection.columns["rating"]
        assert all(ratings[i] >= 4 for i in result.ids)


class TestPlanningIntegration:
    def test_explain_lists_candidates(self, db, hybrid_dataset):
        text = db.explain(
            SearchQuery(hybrid_dataset.queries[0], 5, predicate=Field("rating") >= 3)
        )
        assert "chosen:" in text
        assert "pre_filter" in text

    def test_selector_adapts_to_selectivity(self):
        # At 400 rows every exact pre-filter scan is priced below any
        # index's fixed term; at 4 000 a wide predicate's block-first
        # probe of 8 of 64 cells is the cheaper execution.
        data = hybrid_workload(n=4000, dim=12, num_queries=1, num_categories=5, seed=3)
        db = VectorDatabase(dim=data.dim, score="l2", selector="cost")
        db.insert_many(data.train, data.attributes)
        db.create_index("ivf", "ivf_flat", nlist=64, seed=0)
        q = data.queries[0]
        narrow = db.plan(SearchQuery(q, 5, predicate=(
            (Field("category") == 0) & (Field("rating") == 5) & (Field("price") < 10)
        )))[0]
        wide = db.plan(SearchQuery(q, 5, predicate=Field("rating") >= 1))[0]
        assert narrow.strategy == "pre_filter"
        assert wide.strategy != "pre_filter"


class TestIndexManagement:
    def test_duplicate_index_name(self, db):
        with pytest.raises(PlanningError, match="already exists"):
            db.create_index("graph", "flat")

    def test_drop_index(self, db, hybrid_dataset):
        db.drop_index("ivf")
        assert "ivf" not in db.indexes
        with pytest.raises(PlanningError):
            db.drop_index("ivf")

    def test_partitioned_index_via_db(self, db, hybrid_dataset):
        db.create_partitioned_index("bycat", "flat", "category")
        q = hybrid_dataset.queries[0]
        result = db.search(
            q, k=5, predicate=Field("category") == 1,
            plan=QueryPlan("partition", "bycat"),
        )
        cats = db.collection.columns["category"]
        assert all(cats[i] == 1 for i in result.ids)

    def test_plain_and_partitioned_indexes_share_one_name_space(self, db):
        with pytest.raises(PlanningError, match="already exists"):
            db.create_partitioned_index("graph", "flat", "category")
        db.create_partitioned_index("bycat", "flat", "category")
        for create in (
            lambda: db.create_index("bycat", "flat"),
            lambda: db.create_partitioned_index("bycat", "flat", "category"),
        ):
            with pytest.raises(PlanningError, match="already exists"):
                create()
        db.drop_index("graph")
        db.drop_index("bycat")
        assert (sorted(db.indexes), sorted(db.partitioned)) == (["ivf"], [])

    def test_partition_plan_enumerated_when_covering(self, db, hybrid_dataset):
        db.create_partitioned_index("bycat", "flat", "category")
        _, plans = db.plan(
            SearchQuery(hybrid_dataset.queries[0], 5,
                        predicate=Field("category") == 1)
        )
        assert any(p.strategy == "partition" for p in plans)


class TestConstruction:
    def test_requires_dim_or_embedder(self):
        with pytest.raises(QueryError):
            VectorDatabase()

    def test_embedder_supplies_dim(self):
        from repro.embed import HashingTextEmbedder

        db = VectorDatabase(embedder=HashingTextEmbedder(dim=24))
        assert db.dim == 24

    def test_entity_insert_and_search(self):
        from repro.embed import HashingTextEmbedder

        db = VectorDatabase(embedder=HashingTextEmbedder(dim=48), score="cosine")
        docs = ["red running shoes", "blue walking boots", "quantum physics paper",
                "green hiking shoes", "astrophysics lecture notes"]
        db.insert_many(entities=docs)
        result = db.search(entity="running shoes in red", k=2)
        assert 0 in result.ids  # the lexically closest doc

    def test_vector_and_entity_mutually_exclusive(self):
        from repro.embed import HashingTextEmbedder

        db = VectorDatabase(embedder=HashingTextEmbedder(dim=16))
        with pytest.raises(QueryError):
            db.search(vector=np.zeros(16), entity="both", k=1)
        with pytest.raises(QueryError):
            db.search(k=1)

    def test_unknown_selector(self):
        with pytest.raises(PlanningError):
            VectorDatabase(dim=4, selector="vibes")

    def test_unknown_planner(self):
        with pytest.raises(PlanningError):
            VectorDatabase(dim=4, planner="magic")

    def test_repr(self, db):
        assert "VectorDatabase" in repr(db)


class TestPlanCacheIntegration:
    def _query(self, hybrid_dataset, k=5, **params):
        return SearchQuery(
            hybrid_dataset.queries[0], k, predicate=Field("rating") >= 3,
            params=params,
        )

    def test_repeat_query_hits(self, db, hybrid_dataset):
        q = self._query(hybrid_dataset)
        first, first_cands = db.plan(q)
        assert db.plan_cache.misses == 1 and db.plan_cache.hits == 0
        second, second_cands = db.plan(self._query(hybrid_dataset))
        assert db.plan_cache.hits == 1
        assert second is first
        assert [p.describe() for p in second_cands] == [
            p.describe() for p in first_cands
        ]

    def test_shape_changes_miss(self, db, hybrid_dataset):
        db.plan(self._query(hybrid_dataset, k=5))
        db.plan(self._query(hybrid_dataset, k=6))
        assert db.plan_cache.hits == 0 and db.plan_cache.misses == 2

    def test_insert_invalidates(self, db, hybrid_dataset):
        db.plan(self._query(hybrid_dataset))
        db.insert(hybrid_dataset.train[0], dict(zip(
            hybrid_dataset.attributes[0], hybrid_dataset.attributes[0].values()
        )))
        db.plan(self._query(hybrid_dataset))
        assert db.plan_cache.hits == 0 and db.plan_cache.misses == 2

    def test_delete_invalidates(self, db, hybrid_dataset):
        db.plan(self._query(hybrid_dataset))
        db.delete(0)
        db.plan(self._query(hybrid_dataset))
        assert db.plan_cache.hits == 0

    def test_index_ddl_invalidates(self, db, hybrid_dataset):
        db.plan(self._query(hybrid_dataset))
        db.create_index("extra", "flat")
        db.plan(self._query(hybrid_dataset))
        db.drop_index("extra")
        db.plan(self._query(hybrid_dataset))
        assert db.plan_cache.hits == 0 and db.plan_cache.misses == 3

    def test_rebuild_invalidates(self, db, hybrid_dataset):
        db.plan(self._query(hybrid_dataset))
        db.rebuild_indexes()
        db.plan(self._query(hybrid_dataset))
        assert db.plan_cache.hits == 0

    def test_unhashable_params_not_cached(self, db, hybrid_dataset):
        q = self._query(hybrid_dataset, weights=[0.2, 0.8])
        db.plan(q)
        db.plan(q)
        assert len(db.plan_cache) == 0
        assert db.plan_cache.hits == 0 and db.plan_cache.misses == 0

    def test_cache_disabled(self, hybrid_dataset):
        db = VectorDatabase(dim=hybrid_dataset.dim, plan_cache=False)
        db.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
        assert db.plan_cache is None
        result = db.search(hybrid_dataset.queries[0], k=3)
        assert len(result) == 3

    def test_capacity_from_int(self, hybrid_dataset):
        db = VectorDatabase(dim=hybrid_dataset.dim, plan_cache=4)
        assert db.plan_cache.capacity == 4

    def test_metrics_counters(self, db, hybrid_dataset):
        from repro import Observability

        db.set_observability(Observability(tracing=False))
        db.plan(self._query(hybrid_dataset))
        db.plan(self._query(hybrid_dataset))
        metrics = db.observability.metrics
        assert metrics.counter("vdbms_plan_cache_misses_total").total() == 1
        assert metrics.counter("vdbms_plan_cache_hits_total").total() == 1

    def test_explain_analyze_surfaces_cache_state(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        profile = db.explain_analyze(q, k=3, predicate=Field("rating") >= 3)
        assert profile.plan_cache["source"] == "miss"
        profile = db.explain_analyze(q, k=3, predicate=Field("rating") >= 3)
        assert profile.plan_cache["source"] == "hit"
        assert profile.plan_cache["size"] >= 1
        assert "plan cache: source=hit" in profile.render()
        assert profile.to_dict()["plan_cache"]["source"] == "hit"

    def test_explain_analyze_explicit_and_disabled(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        profile = db.explain_analyze(q, k=3, plan=QueryPlan("brute_force"))
        assert profile.plan_cache["source"] == "explicit"
        bare = VectorDatabase(dim=hybrid_dataset.dim, plan_cache=False)
        bare.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
        profile = bare.explain_analyze(q, k=3)
        assert profile.plan_cache == {"source": "disabled"}

    def test_cached_plan_executes_identically(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[1]
        predicate = Field("category") == 1
        cold = db.search(q, k=5, predicate=predicate)
        warm = db.search(q, k=5, predicate=predicate)
        assert db.plan_cache.hits >= 1
        assert warm.ids == cold.ids
        assert warm.distances == cold.distances


class TestFreshness:
    """Writes after an index build must never be invisible to a plan."""

    def test_partitioned_only_database_goes_stale(self, hybrid_dataset):
        # ROADMAP defect 1: with no plain index, an insert went unnoticed
        # and the `partition` plan kept answering from the old rows.  The
        # rule-based selector plans `partition` here (s = 1/5); the cost-
        # based one prices this 400-row pre-filter scan below it.
        db = VectorDatabase(dim=hybrid_dataset.dim, selector="rule")
        db.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
        db.create_partitioned_index("by_cat", "flat", "category")
        predicate = Field("category") == 1
        assert db.plan(SearchQuery(hybrid_dataset.queries[0], 3, predicate=predicate))[
            0
        ].strategy == "partition"
        vector = np.full(hybrid_dataset.dim, 50.0, dtype=np.float32)
        new_id = db.insert(vector, dict(hybrid_dataset.attributes[0], category=1))
        assert db.has_stale_indexes
        assert db.insert_many(
            [vector + 1], [dict(hybrid_dataset.attributes[0], category=1)]
        )
        chosen, plans = db.plan(SearchQuery(vector, 3, predicate=predicate))
        assert chosen.strategy == "partition"  # still offered: its tail answers
        for plan in plans:
            result = db.search(vector, k=3, predicate=predicate, plan=plan)
            assert result.ids[:2] == [new_id, new_id + 1], plan.describe()
        assert db.search(vector, k=3, predicate=predicate).ids[0] == new_id
        db.rebuild_indexes()
        assert not db.has_stale_indexes
        result = db.search(vector, k=3, predicate=predicate)
        assert result.stats.plan_name.startswith("partition")
        assert result.ids[0] == new_id

    def test_update_vector_reaches_every_plan(self, db, hybrid_dataset):
        # ROADMAP defect 2: update_vector bumped the generation only, so
        # index_scan kept answering from the old vector.
        db.create_partitioned_index("by_cat", "flat", "category")
        target = 17
        vector = np.full(hybrid_dataset.dim, -40.0, dtype=np.float32)
        db.update_vector(target, vector)
        assert db.has_stale_indexes
        assert np.array_equal(db.get(target)[0], vector)
        category = db.collection.attributes(target)["category"]
        for predicate in (None, Field("category") == category, Field("price") >= 0):
            query = SearchQuery(vector, 3, predicate=predicate)
            for plan in db.plan(query)[1]:  # every plan the planner can pick
                result = db.search(vector, k=3, predicate=predicate, plan=plan)
                assert result.ids[0] == target, plan.describe()
                # Scored with the new vector *and* its refreshed norm.
                assert result.distances[0] == 0.0, plan.describe()
        assert db.search(vector, k=1, plan=QueryPlan("brute_force")).distances == [0.0]
        db.rebuild_indexes()
        for plan in db.plan(SearchQuery(vector, 3))[1]:
            assert db.search(vector, k=3, plan=plan).ids[0] == target, plan.describe()

    @pytest.mark.parametrize("then_drop", [False, True], ids=["create", "create+drop"])
    def test_index_ddl_on_a_stale_database_keeps_it_stale(self, then_drop):
        # create_index cleared staleness unconditionally, so the *older*
        # index — which still lacks the insert — answered again.  Freshness
        # belongs to each index: the new one has no tail, the old one
        # keeps its own.
        rng = np.random.default_rng(0)
        db = VectorDatabase(dim=16)
        db.insert_many(rng.standard_normal((6000, 16)).astype(np.float32))
        db.create_index("a", "ivf_flat", nlist=64)
        vector = rng.standard_normal(16).astype(np.float32)
        new_id = db.insert(vector)
        db.create_index("b", "flat")
        assert tail_rows(db) == {"a": 1, "b": 0}
        if then_drop:
            db.drop_index("b")
            assert tail_rows(db) == {"a": 1}
        for plan in (None, QueryPlan("index_scan", "a")):
            result = db.search(vector, k=1, plan=plan)
            assert result.ids == [new_id]
            assert "brute_force" not in result.stats.plan_name
        assert db.has_stale_indexes
        db.rebuild_indexes()
        assert not db.has_stale_indexes
        result = db.search(vector, k=1)
        assert result.ids == [new_id] and "brute_force" not in result.stats.plan_name

    def test_the_only_index_is_fresh_when_created(self):
        rng = np.random.default_rng(0)
        db = VectorDatabase(dim=8)
        db.insert_many(rng.standard_normal((50, 8)).astype(np.float32))
        db.create_index("a", "flat")
        db.insert(rng.standard_normal(8).astype(np.float32))
        db.drop_index("a")
        db.create_index("b", "flat")
        assert not db.has_stale_indexes
        assert tail_rows(db) == {"b": 0}

    def test_staleness_does_not_outlive_the_indexes_it_described(self, hybrid_dataset):
        # Insert, drop every index, build a partitioned index over the
        # whole live collection: it is fresh, and the planner offers it
        # (the rule-based selector takes it, as above).
        db = VectorDatabase(dim=hybrid_dataset.dim, selector="rule")
        db.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
        db.create_index("a", "flat")
        vector = np.full(hybrid_dataset.dim, 50.0, dtype=np.float32)
        new_id = db.insert(vector, dict(hybrid_dataset.attributes[0], category=1))
        assert db.has_stale_indexes
        db.drop_index("a")
        assert not db.has_stale_indexes
        db.create_partitioned_index("by_cat", "flat", "category")
        assert not db.has_stale_indexes
        assert tail_rows(db) == {"by_cat": 0}
        predicate = Field("category") == 1
        result = db.search(vector, k=3, predicate=predicate)
        assert result.stats.plan_name.startswith("partition")
        assert result.ids[0] == new_id

    def test_health_says_how_far_behind_each_index_is(self, db, hybrid_dataset):
        db.create_partitioned_index("by_cat", "flat", "category")
        db.insert_many(
            hybrid_dataset.queries[:3],
            [{"category": 0, "price": 1.0, "rating": 3}] * 3,
        )
        db.update_vector(0, hybrid_dataset.queries[3])
        db.delete(1)  # a delete rides the alive mask: no index falls behind
        database = db.health().database
        live = len(hybrid_dataset.train) + 2
        assert database["live_rows"] == database["items"] == live
        assert database["stale_indexes"] is True
        for entry in database["index_freshness"].values():
            assert entry == {"indexed_rows": len(hybrid_dataset.train), "tail_rows": 4}
        db.rebuild_indexes()
        database = db.health().database
        assert database["stale_indexes"] is False
        for entry in database["index_freshness"].values():
            assert entry == {"indexed_rows": live, "tail_rows": 0}
