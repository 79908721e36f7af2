"""Quality observatory: sketches, recall auditing, SLO burn alerts.

Covers the PR-4 acceptance criteria:

* the log-bucketed :class:`QuantileSketch` answers every quantile within
  relative error ``ALPHA`` of the order statistic, keeps
  ``count``/``sum``/``min``/``max`` exact, and merges and window-deltas
  bucket for bucket (hypothesis properties); a histogram is a labelled
  family of it whose rendered ``le`` counts are exact;
* the online :class:`RecallAuditor` matches the offline bench recall on
  a degraded IVF index within ±0.05, samples deterministically under a
  fixed seed, and charges **all** of its work to ``audit_*`` metrics —
  query-path ``SearchStats`` and latency histograms are bit-identical
  with auditing on or off;
* an induced recall drop below a 0.9 SLO raises a burn-rate alert
  visible in ``Database.health()`` and as an ``slo_alert`` trace event,
  and the alert clears once quality recovers;
* ``SlowQueryLog`` keeps newest-N or slowest-N (both pinned), and the
  ``"auto"`` threshold tracks the query-latency p99 — and only query
  latency: non-query histograms and NaN timings leave it alone;
* ``render_prometheus`` escapes label values per the text-format rules.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    SLO,
    Observability,
    VectorDatabase,
)
from repro.bench.metrics import exact_ground_truth, recall_at_k
from repro.core.planner import QueryPlan
from repro.core.types import SearchStats
from repro.distributed.cluster import DistributedSearchCluster
from repro.observability import (
    ALPHA,
    DISABLED,
    BurnRatePolicy,
    MetricsRegistry,
    QuantileSketch,
    RecallAuditor,
    SLOMonitor,
    SlowQueryLog,
    Tracer,
)
from repro.observability.slo import HealthReport
from repro.scores import EuclideanScore

#: The sketch's domain: exact zeros and finite positive values.
samples = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e-6, max_value=10.0),  # latency-shaped, tie-prone
    st.sampled_from([1e-3, 0.25, 1.0, 7.5]),
)
#: Float slack on top of ALPHA (bucket bounds are computed with exp/log).
TOL = ALPHA * (1.0 + 1e-9)
#: Bucket ``i`` covers ``(GAMMA**(i-1), GAMMA**i]``.
GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)


def sketch_of(values):
    sk = QuantileSketch()
    for v in values:
        sk.observe(v)
    return sk


def assert_same_sketch(a, b):
    """Bucket-for-bucket equality; ``sum`` depends on addition order."""
    assert a.counts == b.counts
    assert (a.count, a.min, a.max) == (b.count, b.min, b.max)
    assert math.isclose(a.sum, b.sum, rel_tol=1e-9, abs_tol=1e-300)


def nearest_rank(ordered, q):
    """The order statistic ``quantile(q)`` estimates."""
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


# ------------------------------------------------------------------ sketches


class TestQuantileSketch:
    def test_empty_and_extremes(self):
        sk = QuantileSketch()
        assert math.isnan(sk.quantile(0.5)) and sk.count == 0
        for v in (3.0, 1.0, 2.0):
            sk.observe(v)
        assert sk.quantile(0.0) == 1.0 and sk.quantile(1.0) == 3.0
        assert sk.count == 3 and sk.sum == 6.0
        for bad in (float("nan"), float("inf"), -1e-9):
            with pytest.raises(ValueError):
                sk.observe(bad)
        assert sk.count == 3  # a rejected value leaves no trace
        with pytest.raises(ValueError):
            sk.quantile(1.5)
        with pytest.raises(TypeError):
            QuantileSketch((0.5, 0.99))  # nothing to configure

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(samples, min_size=1, max_size=200),
        qs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    )
    def test_quantile_within_alpha_of_order_statistic(self, data, qs):
        """Property (i): relative error <= ALPHA at every q, inside
        [min, max], monotone in q; count/sum/min/max exact."""
        sk = sketch_of(data)
        ordered = sorted(data)
        assert sk.count == len(data)
        assert sk.min == ordered[0] and sk.max == ordered[-1]
        assert math.isclose(sk.sum, math.fsum(data), rel_tol=1e-9)
        estimates = []
        for q in sorted(qs + [0.0, 0.5, 0.99, 1.0]):
            want = nearest_rank(ordered, q)
            got = sk.quantile(q)
            assert abs(got - want) <= TOL * want, (q, got, want)
            assert sk.min <= got <= sk.max
            estimates.append(got)
        assert estimates == sorted(estimates)

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.lists(samples, max_size=80),
        b=st.lists(samples, max_size=80),
        c=st.lists(samples, max_size=80),
    )
    def test_merge_equals_sketch_of_concatenation(self, a, b, c):
        """Property (ii): commutative, associative, and bucket-for-bucket
        the sketch of the concatenated sample; donors stay untouched."""
        whole = sketch_of(a + b + c)
        sb = sketch_of(b)
        assert_same_sketch(sketch_of(a).merge(sb).merge(sketch_of(c)), whole)
        assert_same_sketch(sketch_of(c).merge(sketch_of(a)).merge(sb), whole)
        assert_same_sketch(sketch_of(a).merge(sb.snapshot().merge(sketch_of(c))), whole)
        assert_same_sketch(sb, sketch_of(b))

    @settings(max_examples=80, deadline=None)
    @given(
        before=st.lists(samples, max_size=80),
        after=st.lists(samples, max_size=80),
    )
    def test_delta_plus_snapshot_restores_the_sketch(self, before, after):
        """Property (iii): ``now.delta(prev).merge(prev) == now``, and the
        delta is the sketch of the window up to its min/max, which are
        bucket bounds bracketing the window's true extremes."""
        live = sketch_of(before)
        prev = live.snapshot()
        for v in after:
            live.observe(v)
        window = live.delta(prev)
        assert window.counts == sketch_of(after).counts
        assert window.count == len(after)
        if after:
            assert window.min <= min(after) <= max(after) <= window.max
            assert window.min >= min(after) / GAMMA * (1 - 1e-9)
            assert window.max <= max(after) * GAMMA * (1 + 1e-9)
            with pytest.raises(ValueError):
                prev.delta(live.snapshot())  # snapshot newer than the sketch
        assert_same_sketch(window.merge(prev), live)

    @pytest.mark.parametrize("dist", ["normal", "exponential", "uniform"])
    def test_k_shard_merge_within_documented_rank_tolerance(self, dist):
        """A sketch merged across k shards is the sketch of the
        concatenated sample, so it meets the single-sketch contract
        (relative error <= ALPHA, hence far inside the 0.05 rank
        tolerance the estimator this replaced documented)."""
        rng = np.random.default_rng(
            {"normal": 17, "exponential": 29, "uniform": 43}[dist]
        )
        k, per_shard = 5, 2_000
        sample = {
            "normal": lambda: np.abs(rng.normal(10.0, 3.0, size=k * per_shard)),
            "exponential": lambda: rng.exponential(2.0, size=k * per_shard),
            "uniform": lambda: rng.uniform(0.0, 10.0, size=k * per_shard),
        }[dist]()
        merged = QuantileSketch()
        for shard in np.array_split(sample, k):
            merged.merge(sketch_of(shard.tolist()))
        assert_same_sketch(merged, sketch_of(sample.tolist()))
        ordered = np.sort(sample)
        for q in (0.5, 0.9, 0.95, 0.99, 0.999):
            est = merged.quantile(q)
            want = nearest_rank(ordered, q)
            assert abs(est - want) <= TOL * want, (dist, q, est, want)
            rank = np.searchsorted(ordered, est) / (sample.size - 1)
            assert abs(rank - q) <= 0.05

    def test_noop_twin_and_disabled_bundle(self):
        noop = DISABLED.metrics.histogram("vdbms_query_seconds")
        noop.observe(0.5, kind="search")
        assert noop.count(kind="search") == 0 and noop.merged().count == 0
        assert DISABLED.latency_sketch().count == 0
        assert math.isnan(DISABLED.latency_quantile(0.99))
        assert DISABLED.latency_snapshots() == {}
        report = DISABLED.health()
        assert isinstance(report, HealthReport)
        assert report.ok and not report.enabled


# ------------------------------------------------------- histogram exposition


class TestHistogramIsTheSketch:
    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(samples, min_size=1, max_size=150))
    def test_rendered_le_counts_are_exact(self, data):
        """Property (iv): every rendered ``le`` bound is a sketch bucket
        boundary, so its cumulative count is the brute-force count (a
        value within float rounding of a bound may sit on either side)."""
        reg = MetricsRegistry()
        hist = reg.histogram("h", "t")
        for v in data:
            hist.observe(v, kind="q")
        lines = [ln for ln in hist.render() if ln.startswith("h_bucket")]
        assert lines[-1] == f'h_bucket{{kind="q",le="+Inf"}} {len(data)}'
        previous = -1.0
        for line in lines[:-1]:
            bound = float(line.split('le="')[1].split('"')[0])
            count = int(line.rsplit(" ", 1)[1])
            assert bound > previous
            previous = bound
            index = math.log(bound, GAMMA) if bound else 0.0
            assert math.isclose(index, round(index), abs_tol=1e-6)
            low = sum(v <= bound * (1 - 1e-12) for v in data)
            high = sum(v <= bound * (1 + 1e-12) for v in data)
            assert low <= count <= high, (bound, count, low, high)
        assert hist.count(kind="q") == len(data)
        assert hist.quantile(0.99, kind="q") == sketch_of(data).quantile(0.99)

    def test_one_sketch_per_label_set_and_subset_merge(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1.0, kind="a", tenant="x")
        hist.observe(2.0, kind="a", tenant="y")
        hist.observe(4.0, kind="b", tenant="x")
        assert hist.count(kind="a", tenant="x") == 1
        assert hist.count(kind="a") == 0  # exact label set, as for counters
        assert hist.merged(kind="a").count == 2
        assert hist.merged(tenant="x").sum == 5.0
        assert hist.merged().max == 4.0
        assert math.isnan(hist.quantile(0.5, kind="zzz"))
        with pytest.raises(TypeError):
            MetricsRegistry().histogram("g", "t", (0.1, 1.0))  # no bucket grid


# ------------------------------------------------------------ slow-query log


class TestSlowQueryLog:
    def _fill(self, log):
        for elapsed in (0.5, 0.9, 0.1, 0.7, 0.3):
            log.observe("search", "p", elapsed)

    def test_keep_newest_is_arrival_ring(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3, keep="newest")
        self._fill(log)
        assert [e.elapsed_seconds for e in log.entries] == [0.1, 0.7, 0.3]
        assert log.recorded == 5 and log.observed == 5

    def test_keep_slowest_keeps_record_holders(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3, keep="slowest")
        self._fill(log)
        assert sorted(e.elapsed_seconds for e in log.entries) == [0.5, 0.7, 0.9]
        assert log.recorded == 5  # all five crossed the threshold
        with pytest.raises(ValueError):
            SlowQueryLog(keep="fastest")

    def test_threshold_provider_overrides_static(self):
        threshold = [0.5]
        log = SlowQueryLog(
            threshold_seconds=0.1, threshold_provider=lambda: threshold[0]
        )
        assert not log.observe("search", "p", 0.2)
        threshold[0] = float("nan")  # warming up -> static threshold rules
        assert log.observe("search", "p", 0.2)
        assert log.entries[-1].threshold_seconds == 0.1

    def test_auto_threshold_tracks_streaming_p99(self):
        obs = Observability(tracing=False, slow_query_seconds="auto")
        stats = SearchStats()
        for _ in range(50):
            obs.record_query("search", "s", stats, elapsed_seconds=0.01)
        assert obs.slow_log.recorded == 0  # nothing is "slow" yet
        obs.record_query("search", "s", stats, elapsed_seconds=10.0)
        assert obs.slow_log.recorded == 1
        assert obs.slow_log.entries[-1].elapsed_seconds == 10.0


# ------------------------------------------------------ prometheus escaping


def test_prometheus_label_value_escaping():
    reg = MetricsRegistry()
    reg.counter("esc_total", 'help with \\ backslash\nand newline').inc(
        path='a"b\\c\nd'
    )
    text = reg.render_prometheus()
    assert '# HELP esc_total help with \\\\ backslash\\nand newline' in text
    assert 'esc_total{path="a\\"b\\\\c\\nd"} 1' in text
    assert "\nand newline" not in text  # no raw newline inside a line


# ------------------------------------------------------------- the auditor


def _degraded_ivf_db(n=1200, dim=16, seed=3, **obs_kwargs):
    """IVF database whose nearest cells (for the test queries) were
    emptied by deletes-without-rebuild: probed lists stay probed (the
    centroids don't move) but hold only tombstones, so the true
    neighbors now live in unprobed cells — recall collapses silently."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(12, dim)) * 3.0
    assign = rng.integers(0, 12, size=n)
    vectors = (centers[assign] + rng.normal(size=(n, dim))).astype(np.float32)
    obs = Observability(**obs_kwargs) if obs_kwargs else None
    db = VectorDatabase(dim=dim, observability=obs)
    db.insert_many(vectors)
    db.create_index("ivf", "ivf_flat", nlist=16, nprobe=2, seed=0)
    queries = (
        vectors[rng.integers(0, n, size=40)]
        + 0.05 * rng.normal(size=(40, dim))
    ).astype(np.float32)
    index = db.indexes["ivf"]
    victim_cells = set()
    for q in queries:
        victim_cells.update(int(c) for c in index._probe_cells(q, 2))
    victims = np.concatenate(
        [index._ids[index._cells[c]] for c in sorted(victim_cells)]
    )
    for vid in np.unique(victims):
        db.delete(int(vid))
    plan = QueryPlan("index_scan", "ivf")
    return db, queries, plan


class TestRecallAuditor:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecallAuditor(fraction=1.5)
        with pytest.raises(ValueError):
            RecallAuditor(fraction=0.5, k=0)

    def test_audited_recall_matches_offline_bench(self):
        """Acceptance: audited recall@10 on a degraded index matches the
        offline bench `mean_recall` within ±0.05 (computed here through
        the independent bench-metrics path: exact_ground_truth over the
        live rows, recall_at_k per query)."""
        db, queries, plan = _degraded_ivf_db(audit_fraction=1.0, audit_k=10)
        results = [db.search(q, k=10, plan=plan) for q in queries]
        auditor = db.observability.auditor
        assert auditor.audited == len(queries)

        live = np.flatnonzero(db.collection.alive)
        score = EuclideanScore()
        truth = live[
            exact_ground_truth(db.collection.vectors[live], queries, 10, score)
        ]
        offline = float(np.mean([
            recall_at_k([h.id for h in r.hits], truth[i])
            for i, r in enumerate(results)
        ]))
        online = auditor.window_mean_recall()
        assert offline < 0.7  # the degradation is real
        assert abs(online - offline) <= 0.05

    def test_sampling_is_seed_deterministic(self):
        runs = []
        for _ in range(2):
            db, queries, plan = _degraded_ivf_db(
                audit_fraction=0.5, audit_seed=11
            )
            for q in queries:
                db.search(q, k=10, plan=plan)
            a = db.observability.auditor
            runs.append((a.considered, a.audited,
                         tuple(r.recall for r in a.recent)))
        assert runs[0] == runs[1]
        assert 0 < runs[0][1] < runs[0][0]  # a strict subset was sampled

        db, queries, plan = _degraded_ivf_db(audit_fraction=0.5, audit_seed=99)
        for q in queries:
            db.search(q, k=10, plan=plan)
        other = db.observability.auditor
        assert (other.audited, tuple(r.recall for r in other.recent)) != runs[0][1:]

    def test_audit_cost_never_pollutes_query_path(self):
        """Acceptance: audit scans are charged to audit_* metrics only —
        per-query SearchStats and the query-path metrics are identical
        with auditing on and off."""
        audited_stats, plain_stats = [], []
        registries = {}
        for label, fraction in (("audited", 1.0), ("plain", 0.0)):
            kwargs = {"audit_fraction": fraction} if fraction else {}
            db, queries, plan = _degraded_ivf_db(
                **(kwargs | {"tracing": True})
            )
            sink = audited_stats if fraction else plain_stats
            for q in queries:
                result = db.search(q, k=10, plan=plan)
                sink.append((
                    result.stats.distance_computations,
                    result.stats.candidates_examined,
                    result.stats.nodes_visited,
                ))
            registries[label] = db.observability.metrics
        assert audited_stats == plain_stats

        on, off = registries["audited"], registries["plain"]
        # Query-path accounting is identical...
        assert (on.get("vdbms_query_seconds").count(kind="search")
                == off.get("vdbms_query_seconds").count(kind="search") == 40)
        assert (on.get("vdbms_distance_computations_total").total()
                == off.get("vdbms_distance_computations_total").total())
        # ...and every audit cost lives in its own namespace.
        assert off.get("vdbms_audit_queries_total") is None
        assert on.get("vdbms_audit_queries_total").total() == 40
        assert on.get("vdbms_audit_distance_computations_total").total() > 0
        assert on.get("vdbms_audit_seconds_total").total() > 0
        assert on.get("vdbms_audit_recall").count(
            collection="default", strategy="index_scan", index="ivf"
        ) == 40

    def test_audit_honors_predicate_mask(self):
        rng = np.random.default_rng(0)
        from repro import Field

        db = VectorDatabase(
            dim=8, observability=Observability(audit_fraction=1.0)
        )
        db.insert_many(
            rng.normal(size=(200, 8)).astype(np.float32),
            [{"category": i % 2} for i in range(200)],
        )
        db.search(
            rng.normal(size=8).astype(np.float32), k=5,
            predicate=Field("category") == 1,
        )
        auditor = db.observability.auditor
        assert auditor.audited == 1
        record = auditor.recent[-1]
        assert all(i % 2 == 1 for i in record.exact)
        # Exact scan over the filtered rows agrees with the exact path.
        assert record.recall == 1.0


# ---------------------------------------------------------------- SLO alerts


class TestSLOMonitor:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO("x", "recall", 0.9, op="==")
        with pytest.raises(ValueError):
            SLO("x", "recall", 0.9, budget=0.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(long_window=5, short_window=10)
        with pytest.raises(ValueError):
            SLOMonitor([SLO("a", "recall", 0.9), SLO("a", "latency", 1.0)])

    def test_burn_alert_fires_and_clears(self):
        tracer = Tracer()
        monitor = SLOMonitor(
            [SLO("recall@10", "recall", 0.9, budget=0.05)],
            metrics=MetricsRegistry(), tracer=tracer,
            # Pin the single fast-burn policy: with the default pair the
            # slow_burn window (60 obs) would legitimately keep firing
            # through the short recovery this test drives.
            policies=(BurnRatePolicy(
                long_window=120, short_window=15, factor=6.0,
                severity="fast_burn",
            ),),
        )
        for _ in range(30):
            monitor.observe("recall", 0.99)
        assert monitor.ok and not monitor.active_alerts()
        for _ in range(15):
            monitor.observe("recall", 0.4)
        assert not monitor.ok
        [alert] = monitor.active_alerts()
        assert alert.slo == "recall@10" and alert.severity == "fast_burn"
        assert alert.burn_rate_short >= 6.0
        assert monitor.metrics.counter("vdbms_slo_breaches_total").value(
            slo="recall@10", severity="fast_burn"
        ) == 1.0
        events = [e for s in tracer.spans for e in s.events]
        assert any(e.name == "burn_rate_alert" for e in events)
        # Sustained recovery clears the alert (short window stops burning)
        # without re-firing a duplicate while it is active.
        for _ in range(20):
            monitor.observe("recall", 0.99)
        assert monitor.ok and not monitor.active_alerts()
        assert not monitor.alerts[0].active  # history keeps the record
        status = monitor.status()[0]
        assert status.ok and status.observations == 65

    def test_latency_ceiling_objective(self):
        monitor = SLOMonitor([SLO("p99", "latency", 0.01, op="<=",
                                  budget=0.1)])
        for _ in range(20):
            monitor.observe("latency", 0.001)
        monitor.observe("latency", 0.5)
        assert monitor.ok  # one excursion is inside budget
        for _ in range(40):
            monitor.observe("latency", 0.5)
        assert not monitor.ok

    def test_induced_recall_drop_alerts_in_health_and_trace(self):
        """Acceptance: recall drop below SLO 0.9 -> burn-rate alert
        visible in Database.health() and as a trace event."""
        db, queries, plan = _degraded_ivf_db(
            audit_fraction=1.0,
            slos=[SLO("recall@10", "recall", 0.9, budget=0.05)],
        )
        for q in queries:
            db.search(q, k=10, plan=plan)
        report = db.health()
        assert not report.ok
        assert any(a.active and a.slo == "recall@10" for a in report.alerts)
        assert report.database["items"] < 1200  # the deletes happened
        assert report.audit["audited"] == len(queries)
        rendered = report.render()
        assert "ALERTING" in rendered and "recall@10" in rendered
        spans = db.observability.tracer.spans
        alert_spans = [s for s in spans if s.name == "slo_alert"]
        assert alert_spans, "burn-rate alert must surface as a trace span"
        assert any(
            e.name == "burn_rate_alert" for s in alert_spans for e in s.events
        )
        as_dict = report.to_dict()
        assert as_dict["ok"] is False and as_dict["alerts"]

    def test_healthy_database_health_report(self):
        rng = np.random.default_rng(1)
        db = VectorDatabase(
            dim=8,
            observability=Observability(
                audit_fraction=1.0,
                slos=[SLO("recall@10", "recall", 0.9, budget=0.05)],
            ),
        )
        db.insert_many(rng.normal(size=(300, 8)).astype(np.float32))
        for _ in range(20):
            db.search(rng.normal(size=8).astype(np.float32), k=5)
        report = db.health()
        assert report.ok and report.enabled
        assert report.latency["search"]["count"] == 20.0
        assert report.audit["window_mean_recall"] == 1.0
        assert "OK" in report.render()


# ----------------------------------------------------- distributed sketches


def test_cluster_per_shard_sketches_merge_at_gather():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(400, 8)).astype(np.float32)
    obs = Observability(tracing=False)
    cluster = DistributedSearchCluster(
        num_shards=4, index_type="flat", observability=obs
    )
    cluster.load(vectors)
    for _ in range(12):
        cluster.search(rng.normal(size=8).astype(np.float32), 5)
    per_shard_counts = [
        sk.count for sk in cluster._shard_sketches.values()
    ]
    assert len(per_shard_counts) == 4 and all(c == 12 for c in per_shard_counts)
    merged = cluster.latency_sketch()
    assert merged.count == sum(per_shard_counts)
    quantiles = cluster.latency_quantiles()
    assert quantiles["count"] == 48.0
    assert 0 < quantiles["p50"] <= quantiles["p99"]
    # The coordinator's own record_query feeds the latency histogram too.
    assert obs.latency_sketch("distributed").count == 12


def test_cluster_sketches_reset_on_scale_out():
    rng = np.random.default_rng(6)
    cluster = DistributedSearchCluster(
        num_shards=2, index_type="flat", observability=Observability(
            tracing=False
        ),
    )
    cluster.load(rng.normal(size=(120, 8)).astype(np.float32))
    cluster.search(rng.normal(size=8).astype(np.float32), 3)
    assert cluster.latency_sketch().count
    cluster.scale_out(4)
    assert cluster.latency_sketch().count == 0


def test_non_query_histogram_never_reads_as_query_latency():
    """Regression: a non-query histogram (pages per batch, once) used to
    live beside the latency sketches, so 20 observations moved the
    all-kinds p99 (and with it the "auto" slow threshold) from ~1 ms to
    2.0 "seconds" and showed up in ``health().latency`` as a query kind.
    The front door's batch-size histogram is such a histogram today."""
    obs = Observability(tracing=False, slow_query_seconds="auto")
    stats = SearchStats()
    for i in range(40):
        obs.record_query("search", "s", stats, elapsed_seconds=1e-3 + i * 5e-6)
    threshold = obs.slow_log.current_threshold()
    latency_keys = set(obs.health().latency)
    batch_size = obs.metrics.histogram(
        "vdbms_serving_batch_size", "Requests per dispatched batch"
    ).labels()
    for _ in range(20):
        batch_size.observe(32.0)
    assert obs.slow_log.current_threshold() == threshold
    assert obs.latency_quantile(0.99) == threshold
    assert set(obs.health().latency) == latency_keys == {"search"}
    assert obs.metrics.get("vdbms_serving_batch_size").merged().count == 20


def test_nan_latency_counts_the_query_but_not_the_distribution():
    """Regression: the histogram used to observe before the NaN guard, so
    one untimed query made ``vdbms_query_seconds_sum`` NaN for good and
    left the histogram one observation ahead of the sketch."""
    obs = Observability(tracing=False)
    obs.record_query("search", "s", SearchStats(), elapsed_seconds=float("nan"))
    obs.record_query("search", "s", SearchStats(), elapsed_seconds=0.002)
    hist = obs.metrics.get("vdbms_query_seconds")
    assert hist.sum(kind="search") == 0.002
    assert hist.count(kind="search") == 1
    assert obs.health().latency["search"]["count"] == 1.0
    text = obs.metrics.render_prometheus()
    assert 'vdbms_query_seconds_sum{kind="search"} 0.002' in text
    assert 'vdbms_query_seconds_count{kind="search"} 1' in text
    assert "nan" not in text.lower()
    assert obs.metrics.get("vdbms_queries_total").value(
        kind="search", strategy="s"
    ) == 2
