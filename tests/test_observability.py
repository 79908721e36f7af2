"""Observability subsystem: tracing, metrics, profiling, exporters.

Covers the PR-3 acceptance criteria:

* ``explain_analyze`` on a hybrid query returns an operator tree whose
  per-operator self-stats sum to the query totals *exactly*;
* all four executor paths populate ``SearchStats.elapsed_seconds``;
* a distributed query under injected faults produces a trace carrying
  ``retry`` and ``failover`` events tagged with the fault reason;
* property tests for ``SearchStats.merge`` and span-tree shape;
* the metrics registry renders scrapeable Prometheus text;
* the disabled path is a true no-op (no spans, no metrics).
"""

import gc
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FaultPlan,
    Field,
    Observability,
    SearchStats,
    VectorDatabase,
    validate_span_tree,
    write_metrics_text,
    write_trace_jsonl,
)
from repro.distributed.cluster import DistributedSearchCluster
from repro.observability import (
    DISABLED,
    STAT_FIELDS,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
    spans_to_jsonl,
)
from repro.reliability.faults import CRASH, FLAKY, FaultSpec


def make_db(n=300, dim=12, seed=0, **obs_kwargs):
    rng = np.random.default_rng(seed)
    db = VectorDatabase(dim=dim, observability=Observability(**obs_kwargs))
    db.insert_many(
        rng.random((n, dim), dtype=np.float32),
        [{"category": i % 4, "price": float(i)} for i in range(n)],
    )
    db.create_index("g", "hnsw", m=8)
    rng_q = np.random.default_rng(seed + 1)
    return db, rng_q.random(dim, dtype=np.float32)


# --------------------------------------------------------- stats satellites


class TestSearchStatsMerge:
    counters = st.fixed_dictionaries({f: st.integers(0, 10_000) for f in STAT_FIELDS})

    @staticmethod
    def _stats(counters, partial=False, coverage=1.0, merged=1):
        s = SearchStats(partial=partial, coverage_fraction=coverage)
        for f, v in counters.items():
            setattr(s, f, v)
        s.merged_count = merged
        return s

    @given(a=counters, b=counters)
    @settings(max_examples=100, deadline=None)
    def test_counter_merge_commutes(self, a, b):
        left = self._stats(a)
        left.merge(self._stats(b))
        right = self._stats(b)
        right.merge(self._stats(a))
        for f in STAT_FIELDS:
            assert getattr(left, f) == a[f] + b[f]
            assert getattr(left, f) == getattr(right, f)
        assert left.merged_count == right.merged_count == 2

    @given(pa=st.booleans(), pb=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_partial_or_propagation(self, pa, pb):
        s = self._stats({f: 0 for f in STAT_FIELDS}, partial=pa)
        s.merge(self._stats({f: 0 for f in STAT_FIELDS}, partial=pb))
        assert s.partial is (pa or pb)

    @given(
        ca=st.floats(0.0, 1.0, allow_nan=False),
        cb=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_coverage_min_propagation(self, ca, cb):
        s = self._stats({f: 0 for f in STAT_FIELDS}, coverage=ca)
        s.merge(self._stats({f: 0 for f in STAT_FIELDS}, coverage=cb))
        assert s.coverage_fraction == min(ca, cb)

    @given(ma=st.integers(1, 50), mb=st.integers(1, 50), v=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_merged_count_and_averages(self, ma, mb, v):
        a = self._stats({f: v for f in STAT_FIELDS}, merged=ma)
        b = self._stats({f: v for f in STAT_FIELDS}, merged=mb)
        a.merge(b)
        assert a.merged_count == ma + mb
        assert a.averages()["distance_computations"] == pytest.approx(
            2 * v / (ma + mb)
        )

    def test_repr_mentions_merged_count(self):
        s = SearchStats(distance_computations=3)
        s.merge(SearchStats(distance_computations=4))
        assert "merged=2" in repr(s)
        assert "dist=7" in repr(s)


class TestElapsedSeconds:
    """Satellite: every executor path populates elapsed_seconds."""

    def test_search_path(self):
        db, q = make_db()
        result = db.search(q, k=5, predicate=Field("category") == 1)
        assert result.stats.elapsed_seconds > 0

    def test_range_path(self):
        db, q = make_db()
        result = db.range_search(q, radius=2.0)
        assert result.stats.elapsed_seconds > 0

    def test_batch_path(self):
        db, _ = make_db()
        batch = np.random.default_rng(3).random((4, 12), dtype=np.float32)
        for result in db.batch_search(batch, k=3):
            assert result.stats.elapsed_seconds > 0

    def test_multivector_path(self):
        db, _ = make_db()
        vectors = np.random.default_rng(4).random((3, 12), dtype=np.float32)
        result = db.multi_vector_search(vectors, k=3)
        assert result.stats.elapsed_seconds > 0

    def test_multi_score_path(self):
        db, q = make_db()
        for result in db.multi_score_search(q, k=3).values():
            assert result.stats.elapsed_seconds > 0

    def test_node_search_reports_simulated_latency(self):
        from repro.distributed.node import SearchNode

        node = SearchNode("n0", index_type="flat")
        rng = np.random.default_rng(5)
        node.load(rng.random((50, 8), dtype=np.float32), np.arange(50))
        _, latency, stats = node.search(rng.random(8, dtype=np.float32), 3)
        assert stats.elapsed_seconds == latency > 0


# ------------------------------------------------------------ span trees


def _tree_shapes():
    """Recursive list-of-lists: each element is a subtree child list."""
    return st.recursive(
        st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=12
    )


def _realize(tracer, shape, parent=None, name="root"):
    span = tracer.start_span(name) if parent is None else parent.child(name)
    with span:
        for i, child_shape in enumerate(shape):
            _realize(tracer, child_shape, parent=span, name=f"{name}.{i}")
    return span


class TestSpanTreeProperties:
    @given(shape=_tree_shapes())
    @settings(max_examples=100, deadline=None)
    def test_generated_trees_are_well_formed(self, shape):
        clock = iter(range(100_000))
        tracer = Tracer(clock=lambda: float(next(clock)))
        _realize(tracer, shape)
        assert validate_span_tree(tracer.spans) == []

    def test_unfinished_span_is_flagged(self):
        tracer = Tracer()
        span = tracer.start_span("open")
        child = span.child("inner")
        child.finish()
        # Parent never finished -> not collected; child references it.
        problems = validate_span_tree(tracer.spans)
        assert any("unknown parent" in p for p in problems)

    def test_escaping_interval_is_flagged(self):
        tracer = Tracer()
        parent = tracer.start_span("p")
        child = parent.child("c")
        parent.finish()
        child.finish()  # ends after its parent
        assert any(
            "escapes parent" in p for p in validate_span_tree(tracer.spans)
        )

    def test_stats_delta_attribution(self):
        tracer = Tracer()
        stats = SearchStats()
        with tracer.start_span("outer").attach_stats(stats) as outer:
            stats.distance_computations += 5
            with outer.child("inner").attach_stats(stats):
                stats.distance_computations += 7
        outer_span, = tracer.roots()
        inner_span = next(s for s in tracer.spans if s.name == "inner")
        assert outer_span.stats_delta["distance_computations"] == 12
        assert inner_span.stats_delta["distance_computations"] == 7

    def test_real_query_traces_are_well_formed(self):
        db, q = make_db()
        db.search(q, k=5, predicate=Field("category") == 1)
        db.search(q, k=5)
        db.batch_search(np.stack([q, q]), k=3)
        assert validate_span_tree(db.observability.tracer.spans) == []


# --------------------------------------------------------- explain analyze


class TestExplainAnalyze:
    @pytest.mark.parametrize(
        "strategy", ["pre_filter", "block_first", "post_filter", "visit_first"]
    )
    def test_hybrid_attribution_is_exact(self, strategy):
        from repro.core.planner import QueryPlan

        db, q = make_db()
        plan = QueryPlan(
            strategy, None if strategy == "pre_filter" else "g",
            oversample=4.0 if strategy == "post_filter" else None,
        )
        profile = db.explain_analyze(
            vector=q, k=5, predicate=Field("category") == 1, plan=plan
        )
        # Acceptance criterion: per-operator self deltas sum to the
        # top-level totals with exact integer equality.
        assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
        # And the root totals equal the result's own counters.
        for f in STAT_FIELDS:
            assert profile.root.stats_total[f] == getattr(
                profile.result.stats, f
            )

    def test_auto_plan_records_candidates(self):
        db, q = make_db()
        profile = db.explain_analyze(
            vector=q, k=5, predicate=Field("category") == 1
        )
        assert profile.plan
        assert len(profile.candidates) >= 2  # hybrid: several strategies
        assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}

    def test_render_and_json(self):
        db, q = make_db()
        profile = db.explain_analyze(
            vector=q, k=5, predicate=Field("category") == 1
        )
        text = profile.render()
        assert "EXPLAIN ANALYZE" in text
        assert "query" in text
        payload = json.loads(profile.to_json())
        assert payload["tree"]["name"] == "query"
        assert payload["hits"] == profile.result.ids

    def test_operator_children_present(self):
        from repro.core.planner import QueryPlan

        db, q = make_db()
        profile = db.explain_analyze(
            vector=q, k=5, predicate=Field("category") == 1,
            plan=QueryPlan("block_first", "g"),
        )
        op = profile.root.find("op:block_first")
        assert op is not None
        assert op.find("bitmask") is not None
        index_op = op.find("index:hnsw")  # span name carries the index type
        assert index_op is not None and index_op.attributes["family"] == "graph"

    def test_caller_observability_restored(self):
        db, q = make_db()
        before = db.observability
        db.explain_analyze(vector=q, k=3)
        assert db.observability is before

    def test_works_on_disabled_database(self):
        rng = np.random.default_rng(7)
        db = VectorDatabase(dim=8)  # observability = DISABLED
        db.insert_many(rng.random((50, 8), dtype=np.float32),
                       [{"category": i % 2} for i in range(50)])
        profile = db.explain_analyze(vector=rng.random(8, dtype=np.float32), k=3)
        assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
        assert db.observability is DISABLED


# ------------------------------------------------------------- distributed


class TestDistributedTracing:
    def _cluster(self, faults, **kwargs):
        rng = np.random.default_rng(11)
        obs = Observability(slow_query_seconds=0.0)
        cluster = DistributedSearchCluster(
            num_shards=3, replication_factor=2, index_type="flat",
            strict=False, injector=FaultPlan(faults=faults).injector(),
            observability=obs, **kwargs,
        )
        cluster.load(rng.random((300, 10), dtype=np.float32))
        return cluster, obs, rng

    def test_crash_and_flaky_produce_retry_and_failover_events(self):
        # _pick_replica rotates by one before the first query, so
        # replica1 is contacted first: fault it to force the paths.
        cluster, obs, rng = self._cluster((
            FaultSpec(CRASH, target="shard0-replica1", at_op=0),
            FaultSpec(FLAKY, target="shard1-replica1", at_op=0,
                      duration_ops=1),
        ))
        result, dstats = cluster.search(rng.random(10, dtype=np.float32), k=5)
        assert dstats.failovers >= 1 and dstats.retries >= 1
        events = {
            e.name: e.attributes
            for s in obs.tracer.spans for e in s.events
        }
        assert events["failover"]["reason"] == "crashed (injected)"
        assert events["retry"]["transient"] is True
        assert validate_span_tree(obs.tracer.spans) == []
        assert obs.metrics.counter("vdbms_failovers_total").total() >= 1
        assert obs.metrics.counter("vdbms_replica_retries_total").total() >= 1

    def test_degraded_query_is_traced_and_counted(self):
        # Crash every replica of shard 0: the query degrades.
        cluster, obs, rng = self._cluster((
            FaultSpec(CRASH, target="shard0-replica*", at_op=0),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, dstats = cluster.search(
                rng.random(10, dtype=np.float32), k=5
            )
        assert dstats.shards_failed == 1 and result.stats.partial
        root = next(
            s for s in obs.tracer.spans if s.name == "distributed_search"
        )
        assert root.attributes["shards_failed"] == 1
        assert 0 < root.attributes["coverage"] < 1
        failed = [
            s for s in obs.tracer.spans
            if s.name == "shard" and s.attributes.get("ok") is False
        ]
        assert failed and failed[0].attributes["reason"] == "no_replica"
        assert obs.metrics.counter("vdbms_degraded_queries_total").total() == 1
        assert obs.metrics.counter("vdbms_shard_failures_total").total() == 1
        # Simulated latency lands in the slow log, flagged simulated.
        assert any(entry.simulated for entry in obs.slow_log)

    def test_breaker_transition_events(self):
        # Only one replica per shard: repeated crashes trip the breaker.
        rng = np.random.default_rng(12)
        obs = Observability()
        cluster = DistributedSearchCluster(
            num_shards=1, replication_factor=1, index_type="flat",
            strict=False, breaker_failure_threshold=2,
            injector=FaultPlan(faults=(
                FaultSpec(CRASH, target="shard0-replica0", at_op=0,
                          duration_ops=4),
            )).injector(),
            observability=obs,
        )
        cluster.load(rng.random((60, 10), dtype=np.float32))
        q = rng.random(10, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(3):
                cluster.search(q, k=3)
        transitions = [
            e for s in obs.tracer.spans for e in s.events
            if e.name == "breaker_transition"
        ]
        assert any(e.attributes["to"] == "open" for e in transitions)
        assert obs.metrics.counter(
            "vdbms_breaker_transitions_total"
        ).value(to="open") >= 1


# ------------------------------------------------------- metrics and export


class TestMetricsAndExport:
    def test_prometheus_rendering_shape(self):
        db, q = make_db()
        db.search(q, k=5, predicate=Field("category") == 1)
        text = db.observability.metrics.render_prometheus()
        assert "# TYPE vdbms_queries_total counter" in text
        assert 'vdbms_queries_total{kind="search"' in text
        assert "# TYPE vdbms_query_seconds histogram" in text
        assert "vdbms_query_seconds_bucket" in text
        assert 'le="+Inf"' in text

    def test_registry_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(TypeError):
            registry.gauge("x_total")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("y_total").inc(-1)

    def test_histogram_quantile_and_counts(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        assert h.quantile(0.25) == pytest.approx(0.05, rel=0.01)
        assert h.quantile(0.99) == pytest.approx(50.0, rel=0.01)  # no top clamp

    def test_trace_jsonl_roundtrip(self, tmp_path):
        db, q = make_db()
        db.search(q, k=5, predicate=Field("category") == 1)
        path = tmp_path / "trace.jsonl"
        n = write_trace_jsonl(db.observability.tracer.spans, path)
        lines = path.read_text().strip().splitlines()
        assert n == len(lines) == len(db.observability.tracer.spans)
        parsed = [json.loads(line) for line in lines]
        root = next(p for p in parsed if p["name"] == "query")
        assert root["stats"]["distance_computations"] > 0

    def test_metrics_text_export(self, tmp_path):
        db, q = make_db()
        db.search(q, k=3)
        path = tmp_path / "metrics.txt"
        write_metrics_text(db.observability.metrics, path)
        assert "vdbms_queries_total" in path.read_text()

    def test_jsonl_handles_numpy_attributes(self):
        tracer = Tracer()
        with tracer.start_span("s", value=np.float32(0.5)):
            pass
        payload = json.loads(spans_to_jsonl(tracer.spans))
        assert payload["attributes"]["value"] == 0.5

    def test_slow_query_log(self):
        log = SlowQueryLog(threshold_seconds=0.01, capacity=2)
        assert not log.observe("search", "p", 0.001)
        assert log.observe("search", "p", 0.02, SearchStats())
        for _ in range(5):
            log.observe("search", "p", 0.02)
        assert len(log) == 2  # bounded ring
        assert log.recorded == 6
        assert "SlowQuery" in log.render()

    def test_slow_query_threshold_via_record_query(self):
        db, q = make_db(slow_query_seconds=0.0)
        db.search(q, k=3)
        assert len(db.observability.slow_log) == 1
        assert (
            db.observability.metrics.counter("vdbms_slow_queries_total").total()
            == 1
        )


# ---------------------------------------------------------- disabled no-op


class TestDisabledPath:
    def test_disabled_database_records_nothing(self):
        rng = np.random.default_rng(9)
        db = VectorDatabase(dim=8)
        db.insert_many(rng.random((80, 8), dtype=np.float32),
                       [{"category": i % 2} for i in range(80)])
        db.create_index("g", "hnsw", m=6)
        db.search(rng.random(8, dtype=np.float32), k=3,
                  predicate=Field("category") == 0)
        assert db.observability is DISABLED
        assert len(db.observability.tracer.spans) == 0
        assert db.observability.metrics.render_prometheus() == ""

    def test_disabled_results_match_enabled(self):
        db_off, q = make_db(seed=21)
        db_off.set_observability(None)
        db_on, _ = make_db(seed=21)
        pred = Field("category") == 1
        assert (
            db_off.search(q, k=5, predicate=pred).ids
            == db_on.search(q, k=5, predicate=pred).ids
        )

    def test_noop_singletons_are_inert(self):
        from repro.observability import NOOP_METRICS, NOOP_SPAN

        with NOOP_SPAN.child("x", a=1).attach_stats(SearchStats()) as s:
            s.set(b=2).event("e")
        assert NOOP_SPAN.attributes == {}
        NOOP_METRICS.counter("c").inc(5)
        assert NOOP_METRICS.counter("c").value() == 0.0
        assert NOOP_METRICS.render_prometheus() == ""

    def test_set_observability_roundtrip(self):
        db, q = make_db()
        obs = db.observability
        db.set_observability(None)
        db.search(q, k=3)
        assert len(obs.tracer.spans) == 0
        db.set_observability(obs)
        db.search(q, k=3)
        assert len(obs.tracer.spans) > 0


# ------------------------------------------------- bound series and budget

# Label names ride ``**kwargs`` beside ``value`` / ``exemplar`` / ``q``.
_label_names = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: name not in ("value", "exemplar", "q")
)
_label_dicts = st.dictionaries(
    _label_names,
    st.one_of(
        st.text(alphabet='ab"\\\n =,{}é', max_size=6), st.integers(-5, 5),
        st.floats(allow_nan=False), st.booleans(), st.none(),
    ),
    max_size=4,
)


class TestBoundSeries:
    @given(_label_dicts, st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
    def test_bound_series_and_by_name_updates_share_one_series(self, labels, values):
        registry = MetricsRegistry()
        counter, gauge = registry.counter("c_total"), registry.gauge("g")
        histogram = registry.histogram("h")
        # Label order must not matter: bind in one order, name in the other.
        backwards = dict(reversed(list(labels.items())))
        bound = (
            counter.labels(**backwards), gauge.labels(**backwards),
            histogram.labels(**backwards),
        )
        assert registry.render_prometheus().count("\n") == 3  # nothing recorded
        for value in values:
            bound[0].inc(value)
            counter.inc(value, **labels)
            bound[1].inc(value)
            gauge.dec(value, **labels)
            bound[2].observe(value, exemplar=7)
            histogram.observe(value, **labels)
        bound[1].set(3.0)
        assert len(list(counter.samples())) == len(list(gauge.samples())) == 1
        assert len(list(histogram.series())) == 1
        total = 0.0
        for value in values:
            total = total + value + value
        assert counter.value(**labels) == bound[0].value() == total
        assert gauge.value(**labels) == 3.0
        assert histogram.count(**labels) == 2 * len(values)
        assert histogram.exemplar(0.5, **labels)[0] == 7
        rendered = registry.render_prometheus()
        for value in labels.values():
            escaped = (
                str(value).replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n")
            )
            assert f'="{escaped}"' in rendered

    def test_bound_series_keep_the_instrument_checks(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("c_total").labels(a=1).inc(-1)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                registry.histogram("h").labels(a=1).observe(bad)
        assert not hasattr(registry.counter("c_total").labels(), "set")
        registry.gauge("g").labels().dec(2)
        assert registry.gauge("g").value() == -2.0

    def test_steady_state_builds_no_label_key_and_spans_own_no_empties(
        self, monkeypatch
    ):
        """The budget as a count: the second replay of a trace through one
        door and bundle resolves no instrument and builds no label key."""
        from repro.observability import metrics as metrics_module
        from repro.serving import ServingFrontDoor, TenantSpec, TrafficGenerator

        rng = np.random.default_rng(2)
        obs = Observability()
        db = VectorDatabase(dim=8, observability=obs)
        db.insert_many(rng.standard_normal((300, 8)).astype(np.float32))
        db.create_index("flat", "flat")
        door = ServingFrontDoor(
            db,
            [
                TenantSpec("hot", qps=5e4, burst=500, max_queue=500),
                TenantSpec("cold", qps=5e4, burst=500, max_queue=3,
                           deadline_seconds=0.001, priority=0),
            ],
            workers=1, telemetry=True, window_seconds=0.002,
        )

        def replay(start):
            return door.run(TrafficGenerator(
                ["hot", "cold"], 8, rate=2e4, seed=4, query_pool=6,
                fresh_fraction=0.4, k=5,
            ).generate(0.01, start_seconds=start))

        first = replay(0.0)
        assert {r.status for r in first} == {"ok", "cache_hit", "rejected", "shed"}
        built = []
        build = metrics_module._label_key
        monkeypatch.setattr(
            metrics_module, "_label_key",
            lambda labels: built.append(labels) or build(labels),
        )
        registered = obs.metrics.names()
        second = replay(1.0)
        assert {r.status for r in second} >= {"ok", "cache_hit", "rejected"}
        assert built == []
        assert obs.metrics.names() == registered
        assert obs.metrics.get("vdbms_serving_requests_total").total() == len(
            first
        ) + len(second)
        plain = [s for s in obs.tracer.spans if s.name == "cache_lookup"]
        assert plain and all(s.events is s.links is plain[0].links for s in plain)
        assert not plain[0].links and not gc.is_tracked(plain[0].links)
        linked = [s for s in obs.tracer.spans if s.links]
        assert linked and len({id(s.links) for s in linked}) == len(linked)


class TestRecordQueryIsAllOrNothing:
    @staticmethod
    def _dump(obs):
        return obs.metrics.render_prometheus(), obs.metrics.to_dict()

    @pytest.mark.parametrize("elapsed", [-1e-3, math.inf, -math.inf])
    def test_bad_latency_is_rejected_before_any_series_moves(self, elapsed):
        obs = Observability(tracing=False, slow_query_seconds=0.0)
        obs.record_query("search", "s", SearchStats(), elapsed_seconds=1e-3)
        before = self._dump(obs)
        with pytest.raises(ValueError, match="latency"):
            obs.record_query("search", "s", SearchStats(), elapsed_seconds=elapsed)
        assert self._dump(obs) == before
        assert obs.slow_log.observed == 1

    @pytest.mark.parametrize("reserved", ["kind", "strategy"])
    def test_reserved_caller_labels_are_named(self, reserved):
        obs = Observability(tracing=False)
        obs.record_query("search", "s", SearchStats(), elapsed_seconds=1e-3)
        before = self._dump(obs)
        with pytest.raises(ValueError, match=repr(reserved)):
            obs.record_query(
                "search", "s", SearchStats(), elapsed_seconds=1e-3,
                labels={reserved: "x", "tenant": "t"},
            )
        assert self._dump(obs) == before


# ------------------------------------------------ the null twins' contract


def _public_callables(obj):
    return {
        name: getattr(obj, name)
        for name in dir(obj)
        if not name.startswith("_") and callable(getattr(obj, name))
    }


def _assert_accepts_the_same_calls(real, noop, where):
    import inspect

    want = inspect.signature(real).parameters
    have = inspect.signature(noop).parameters
    kinds = {p.kind for p in have.values()}
    for name, param in want.items():
        if param.kind is param.VAR_KEYWORD or param.kind is param.VAR_POSITIONAL:
            assert param.kind in kinds, f"{where}: no {param}"
        else:
            assert name in have or param.VAR_KEYWORD in kinds, f"{where}: no {name}"
    for name, param in have.items():
        required = param.default is param.empty and param.kind in (
            param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY
        )
        assert not required or name in want, f"{where}: requires extra {name!r}"


def test_every_noop_twin_answers_what_the_real_object_does():
    from repro.observability import NOOP_METRIC, NOOP_METRICS, NOOP_SPAN, NOOP_TRACER

    registry, tracer = MetricsRegistry(), Tracer()
    span = tracer.start_span("s")
    counter, gauge = registry.counter("c_total"), registry.gauge("g")
    histogram = registry.histogram("h")
    pairs = [
        (instrument, NOOP_METRIC)
        for family in (counter, gauge, histogram)
        for instrument in (family, family.labels(a=1))
    ] + [(registry, NOOP_METRICS), (span, NOOP_SPAN), (tracer, NOOP_TRACER)]
    for real, noop in pairs:
        for name, method in _public_callables(real).items():
            where = f"{type(noop).__name__}.{name}"
            assert hasattr(noop, name), f"{where} is missing"
            _assert_accepts_the_same_calls(method, getattr(noop, name), where)
    # The data a reader may touch without branching on the enabled flag.
    for name in ("name", "span_id", "trace_id", "parent_id", "start", "end",
                 "attributes", "events", "links", "error", "stats_delta",
                 "duration_seconds"):
        assert hasattr(NOOP_SPAN, name)
    assert len(NOOP_TRACER) == 0 and NOOP_TRACER.spans == ()
    # Reads under Observability(metrics=False) answer "empty", not raise.
    obs = Observability(metrics=False)
    obs.record_query("search", "s", SearchStats(), elapsed_seconds=1e-3)
    queries = obs.metrics.counter("vdbms_queries_total")
    assert queries.total() == 0.0 and list(queries.samples()) == []
    seconds = obs.metrics.histogram("vdbms_query_seconds")
    assert seconds.sum(kind="search") == 0.0
    assert math.isnan(seconds.quantile(0.5, kind="search"))
    assert math.isnan(obs.latency_quantile(0.5))
