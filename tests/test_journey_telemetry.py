"""Journey telemetry: time-series windows, snapshots, span links, and
anomaly-detector determinism.

Property-based and regression coverage for the serving tier's
observability pipeline:

* ``QuantileSketch.snapshot()`` / ``delta()`` are pure reads — the live
  sketch is bit-identical afterwards (pickled-state regression, at a
  few dozen and at a few hundred samples);
* merging k per-window :class:`TimeWindow` objects equals one wide
  window: the merged sketch is the sketch over the whole span, bucket
  for bucket, whatever the window sizes;
* under request coalescing every member's ``serve_request`` root links
  to exactly one batch span, both link directions resolve, and
  ``validate_span_links`` is clean for arbitrary seeded workloads;
* the anomaly monitor is deterministic: identical runs produce
  identical anomaly lists (down to exemplar trace ids), and a steady
  healthy workload never alarms;
* latency exemplars round-trip: histogram bucket -> trace id -> journey.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import VectorDatabase
from repro.core.types import SearchStats
from repro.observability import (
    ALPHA,
    MetricsRegistry,
    Observability,
    QuantileSketch,
    TimeSeriesStore,
    TimeWindow,
    validate_span_links,
    validate_span_tree,
)
from repro.serving import (
    ServiceModel,
    ServingFrontDoor,
    TenantSpec,
    TrafficGenerator,
)

# --------------------------------------------------------------------------
# snapshot()/delta() purity (the scrape path must never perturb live state)
# --------------------------------------------------------------------------


class TestSketchSnapshotPurity:
    """The two sample sizes are the ones that used to straddle the old
    estimator's buffer/spill switch; the sketch has one regime now."""

    def test_snapshot_and_delta_are_pure_reads_buffer_regime(self):
        rng = np.random.default_rng(0)
        sketch = QuantileSketch()
        for x in rng.exponential(1.0, 50):
            sketch.observe(float(x))
        prev = sketch.snapshot()
        tail = [float(x) for x in rng.exponential(1.0, 40)]
        for x in tail:
            sketch.observe(x)
        before = pickle.dumps(sketch)
        window = sketch.delta(prev)
        sketch.snapshot().quantile(0.9)
        assert pickle.dumps(sketch) == before  # bit-identical live state
        # The window is the sketch of the tail, bucket for bucket.
        assert window.count == len(tail)
        assert window.counts == _sketch_of(tail).counts
        for q in (0.1, 0.5, 0.9):
            want = float(np.quantile(tail, q, method="inverted_cdf"))
            assert math.isclose(window.quantile(q), want, rel_tol=ALPHA)

    def test_snapshot_and_delta_are_pure_reads_spilled_regime(self):
        rng = np.random.default_rng(1)
        sketch = QuantileSketch()
        for x in rng.lognormal(0.0, 0.5, 300):
            sketch.observe(float(x))
        prev = sketch.snapshot()
        tail = [float(x) for x in rng.lognormal(0.0, 0.5, 200)]
        for x in tail:
            sketch.observe(x)
        before = pickle.dumps(sketch)
        window = sketch.delta(prev)
        sketch.snapshot()
        assert pickle.dumps(sketch) == before
        assert window.count == 200
        assert window.counts == _sketch_of(tail).counts

    def test_delta_rejects_snapshot_from_the_future(self):
        sketch = QuantileSketch()
        for x in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
            sketch.observe(x)
        ahead = sketch.snapshot()
        fresh = QuantileSketch()
        with pytest.raises(ValueError):
            fresh.delta(ahead)


# --------------------------------------------------------------------------
# window merge == wide window
# --------------------------------------------------------------------------


def _sketch_of(values):
    sketch = QuantileSketch()
    for x in values:
        sketch.observe(x)
    return sketch


def _scrape_per_window(batches):
    """Feed each batch into its own window; return the closed windows."""
    metrics = MetricsRegistry()
    store = TimeSeriesStore(metrics, width_seconds=1.0)
    sketch = QuantileSketch()
    store.track_sketch("lat", sketch)
    counter = metrics.counter("events_total", "test counter")
    for i, batch in enumerate(batches):
        for x in batch:
            sketch.observe(x)
            counter.inc(kind="obs")
        store.scrape(float(i + 1))
    return store.last(len(batches))


class TestWindowMerge:
    @given(
        batches=st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e6)),
                min_size=1,
                max_size=20,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_wide_window(self, batches):
        windows = _scrape_per_window(batches)
        merged = TimeWindow.merge(windows)
        everything = [x for batch in batches for x in batch]
        assert merged.counter_total("events_total") == len(everything)
        assert merged.start == 0.0 and merged.end == len(batches)
        wide = merged.sketch("lat")
        whole = _sketch_of(everything)
        assert wide is not None and wide.counts == whole.counts
        assert wide.count == len(everything)
        assert (wide.min, wide.max) == (whole.min, whole.max)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert wide.quantile(q) == whole.quantile(q)

    def test_merge_of_large_windows_is_the_sketch_of_the_span(self):
        # 4 windows x 1500 lognormal samples: the old estimator rebuilt
        # each window from <= 128 synthetic samples (0.05 rank error);
        # count subtraction and addition lose nothing at any size.
        rng = np.random.default_rng(7)
        batches = [
            [float(x) for x in rng.lognormal(0.0, 0.75, 1500)]
            for _ in range(4)
        ]
        windows = _scrape_per_window(batches)
        for window, batch in zip(windows, batches):
            assert window.sketch("lat").counts == _sketch_of(batch).counts
        merged = TimeWindow.merge(windows).sketch("lat")
        everything = [x for batch in batches for x in batch]
        assert merged.counts == _sketch_of(everything).counts
        for q in (0.5, 0.9, 0.99, 0.999):
            want = float(np.quantile(everything, q, method="inverted_cdf"))
            assert math.isclose(merged.quantile(q), want, rel_tol=ALPHA)

    def test_empty_idle_windows_merge_harmlessly(self):
        metrics = MetricsRegistry()
        store = TimeSeriesStore(metrics, width_seconds=1.0)
        metrics.counter("events_total", "t").inc()
        assert len(store.advance(3.5)) == 3  # 2 idle windows closed too
        merged = store.merged(3)
        assert merged.counter_total("events_total") == 1.0


# --------------------------------------------------------------------------
# serving phase decomposition stays an exact partition
# --------------------------------------------------------------------------


class TestPhasePartition:
    @given(
        n=st.integers(1, 16),
        distances=st.integers(0, 10_000),
        nodes=st.integers(0, 1_000),
        pages=st.integers(0, 100),
        plan_cached=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_member_phases_sum_to_batch_phases(
        self, n, distances, nodes, pages, plan_cached
    ):
        model = ServiceModel(planning_seconds=5e-3)
        stats = [
            SearchStats(
                distance_computations=distances + i,
                nodes_visited=nodes,
                page_reads=pages,
            )
            for i in range(n)
        ]
        batch = model.phase_seconds(stats, plan_cached=plan_cached)
        summed: dict[str, float] = {}
        for s in stats:
            for phase, seconds in model.member_phase_seconds(
                s, n, plan_cached=plan_cached
            ).items():
                summed[phase] = summed.get(phase, 0.0) + seconds
        assert set(summed) == set(batch)
        for phase in batch:
            assert math.isclose(
                summed[phase], batch[phase], rel_tol=1e-9, abs_tol=1e-15
            )
        assert math.isclose(
            sum(batch.values()),
            model.batch_service_seconds(stats, plan_cached=plan_cached),
            rel_tol=1e-12,
        )


# --------------------------------------------------------------------------
# span links under coalescing
# --------------------------------------------------------------------------


def _serve_once(seed, telemetry=False, fault=False):
    """One small seeded front-door run; returns (db, fd, responses)."""
    rng = np.random.default_rng(3)
    db = VectorDatabase(dim=8, observability=Observability())
    db.insert_many(rng.standard_normal((200, 8)).astype(np.float32))
    fd = ServingFrontDoor(
        db,
        [TenantSpec("t", qps=500.0, burst=50.0, max_inflight=8, max_queue=64)],
        workers=1,
        coalesce_max=4,
        # Slow service so the backlog forces real coalescing.
        service_model=ServiceModel(base_seconds=5e-3),
        telemetry=telemetry,
    )
    trace = TrafficGenerator(
        ["t"], 8, rate=150.0, seed=seed, query_pool=8, fresh_fraction=0.5, k=5
    ).generate(1.0)
    responses = fd.run(trace)
    if fault:
        db.plan_cache = None
    more = TrafficGenerator(
        ["t"], 8, rate=150.0, seed=seed + 1, query_pool=8,
        fresh_fraction=0.5, k=5,
    ).generate(1.0, start_seconds=1.0)
    responses += fd.run(more)
    if telemetry:
        fd.monitor.tick(3.0)
    return db, fd, responses


class TestServingSpanLinks:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_every_member_links_to_exactly_one_batch(self, seed):
        db, fd, responses = _serve_once(seed)
        spans = db.observability.tracer.spans
        assert validate_span_links(spans) == []
        roots = {s.trace_id: s for s in spans if s.name == "serve_request"}
        batches = [s for s in spans if s.name == "serve_batch"]
        batch_ids = {s.span_id for s in batches}
        executed = [r for r in responses if r.status == "ok"]
        assert executed
        for response in executed:
            root = roots[response.request.trace_id]
            outbound = [
                link
                for link in root.links
                if link.attributes.get("role") == "batch"
            ]
            assert len(outbound) == 1  # exactly one carrying batch
            assert outbound[0].span_id in batch_ids
        # Fan-in bookkeeping: each batch links back to `members` roots,
        # and at least one batch actually coalesced.
        for batch in batches:
            member_links = [
                link
                for link in batch.links
                if link.attributes.get("role") == "member"
            ]
            assert len(member_links) == batch.attributes["members"]
            for link in member_links:
                assert roots[link.trace_id].span_id == link.span_id
        assert any(b.attributes["members"] > 1 for b in batches)

    def test_terminal_requests_get_no_batch_link(self):
        db, fd, responses = _serve_once(seed=5)
        spans = db.observability.tracer.spans
        roots = {s.trace_id: s for s in spans if s.name == "serve_request"}
        for response in responses:
            if response.status in ("cache_hit", "rejected"):
                root = roots[response.request.trace_id]
                assert list(root.links) == []
                assert root.end is not None  # terminal path closed it

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_journey_phases_partition_latency(self, seed):
        # Every completed journey accounts for all of its latency —
        # including coalesced members, whose shared batch residency is
        # charged to coalesce_batch on top of their own work share.
        db, fd, responses = _serve_once(seed, telemetry=True)
        journeys = list(fd.journeys)
        assert journeys
        assert any(j.batch_size > 1 for j in journeys)
        for journey in journeys:
            assert math.isclose(
                journey.phase_total,
                journey.latency_seconds,
                rel_tol=1e-9,
                abs_tol=1e-12,
            )


class TestDoorFollowsTheBundle:
    """A door built *before* ``db.set_observability(obs)`` used to keep the
    old (disabled) bundle: its roots, ``vdbms_serving_*`` series, exemplars
    and anomaly monitor went nowhere while the executor recorded into the
    new one, leaving ``plan`` spans with an unknown parent."""

    @staticmethod
    def _trace(seed, start):
        return TrafficGenerator(
            ["t"], 8, rate=150.0, seed=seed, query_pool=8, fresh_fraction=0.5, k=5
        ).generate(1.0, start_seconds=start)

    def _assert_whole_journeys(self, obs, fd, responses):
        spans = obs.tracer.spans
        assert validate_span_tree(spans) == []
        assert validate_span_links(spans) == []
        roots = {s.trace_id: s for s in spans if s.name == "serve_request"}
        assert sorted(roots) == sorted(r.request.trace_id for r in responses)
        assert all(roots)  # no response left with the disabled trace id 0
        batches = {s.span_id: s for s in spans if s.name == "serve_batch"}
        for response in responses:
            journey = fd.journeys.get(response.request.trace_id)
            assert journey is not None and journey.status == response.status
            if response.status == "ok":
                (link,) = roots[response.request.trace_id].links
                assert link.span_id in batches
        # Executor spans hang under a batch span of this same tracer.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.name == "plan":
                assert by_id[span.parent_id].name == "serve_batch"
        served = obs.metrics.get("vdbms_serving_requests_total")
        assert served.total() == len(responses)

    def test_door_built_before_the_bundle_records_into_it(self):
        rng = np.random.default_rng(3)
        db = VectorDatabase(dim=8)  # disabled when the door is built
        db.insert_many(rng.standard_normal((200, 8)).astype(np.float32))
        fd = ServingFrontDoor(
            db,
            [TenantSpec("t", qps=500.0, burst=50.0, max_queue=64,
                        slo_p99_seconds=1e-4)],
            workers=1, coalesce_max=4,
            service_model=ServiceModel(base_seconds=5e-3),
            telemetry=True, window_seconds=0.25,
        )
        obs = Observability()
        db.set_observability(obs)
        responses = fd.run(self._trace(7, 0.0))
        self._assert_whole_journeys(obs, fd, responses)
        names = set(obs.metrics.names())
        assert {
            "vdbms_serving_requests_total", "vdbms_serving_queue_depth",
            "vdbms_serving_batch_size", "vdbms_anomalies_total",
            "vdbms_slo_good_fraction", "vdbms_slo_breaches_total",
        } <= names
        assert db.health().anomalies is not None
        assert any(s.name == "slo_alert" for s in obs.tracer.spans)
        closed = sum(
            w.counter_total("vdbms_serving_requests_total")
            for w in fd.telemetry.windows
        )
        assert 0 < closed <= len(responses)
        witness = obs.metrics.get("vdbms_query_seconds").exemplar(
            0.99, kind="serving", tenant="t"
        )
        assert fd.journeys.get(witness[0]) is not None

        # A second swap mid-life: the new bundle gets whole journeys, the
        # old one stops growing, and no window reads a negative delta.
        settled = len(obs.tracer.spans), obs.metrics.render_prometheus()
        later = Observability()
        db.set_observability(later)
        more = fd.run(self._trace(8, 1.0))
        assert (len(obs.tracer.spans), obs.metrics.render_prometheus()) == settled
        self._assert_whole_journeys(later, fd, more)
        assert db.health().anomalies is not None
        fd.monitor.tick(3.0)
        for window in fd.telemetry.windows:
            for series in window.counters.values():
                assert min(series.values(), default=0.0) >= 0.0


# --------------------------------------------------------------------------
# anomaly-detector determinism
# --------------------------------------------------------------------------


def _scrub_wall_clock(window_dict):
    """Drop wall-clock self-timings from a window dict.

    The database times its *real* executions (``kind="search"`` /
    ``"batch"``) with the wall clock, so those sums legitimately vary
    between runs; the determinism contract covers everything on the
    simulated clock — including the serving-labeled series.
    """
    sums = window_dict["counters"].get("vdbms_query_seconds_sum")
    if sums:
        window_dict["counters"]["vdbms_query_seconds_sum"] = [
            s for s in sums if s["labels"].get("kind") == "serving"
        ]
    return window_dict


def _telemetry_fingerprint(seed, fault):
    db, fd, _ = _serve_once(seed, telemetry=True, fault=fault)
    return {
        "anomalies": fd.monitor.summary(),
        "windows": [
            _scrub_wall_clock(w.to_dict()) for w in fd.telemetry.last(4)
        ],
        "journeys": [j.to_dict() for j in fd.journeys],
    }


class TestDetectorDeterminism:
    def test_identical_runs_produce_identical_telemetry(self):
        first = _telemetry_fingerprint(seed=11, fault=True)
        second = _telemetry_fingerprint(seed=11, fault=True)
        assert first == second  # down to exemplar trace ids

    def test_steady_healthy_run_never_alarms(self):
        for seed in (2, 9, 31):
            fingerprint = _telemetry_fingerprint(seed, fault=False)
            assert fingerprint["anomalies"] == []


# --------------------------------------------------------------------------
# exemplars: histogram bucket -> trace id -> journey
# --------------------------------------------------------------------------


class TestExemplars:
    def test_histogram_exemplar_round_trip(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("lat_seconds", "t")
        histogram.observe(0.005, exemplar=101, kind="q")
        histogram.observe(0.5, exemplar=202, kind="q")
        assert histogram.exemplar(0.99, kind="q") == (202, 0.5)
        assert histogram.exemplar(0.0, kind="q") == (101, 0.005)
        assert histogram.exemplar(0.5, kind="other") is None
        rendered = "\n".join(histogram.render())
        assert 'trace_id="202"' in rendered

    def test_serving_exemplar_resolves_to_a_recorded_journey(self):
        db, fd, responses = _serve_once(seed=17, telemetry=True)
        witness = db.observability.metrics.histogram(
            "vdbms_query_seconds", "Per-query latency"
        ).exemplar(0.99, kind="serving", tenant="t")
        assert witness is not None
        trace_id, latency = witness
        journey = fd.journeys.get(trace_id)
        assert journey is not None
        assert journey.tenant == "t"
        assert math.isclose(journey.latency_seconds, latency, rel_tol=1e-9)
