"""The four vdbench workloads.

Each class generates its inputs from the seed in ``__init__`` (the
program only ever sees those inputs), builds the database in ``setup``,
and then either

* ``measure(seconds)`` — tracing off: the end-to-end metrics, or
* ``trace(seconds, spans)`` — the same operations in the two-call form
  ``db.plan`` -> ``db.search(plan=...)`` under the span recorder, plus
  direct probes of each layer: the per-layer metrics.

``verify()`` then judges every answer of the last pass against the
oracle in ``harness``, outside any timed region.  Why each workload
exists, and which layer should *not* move on it, is in README.md.
"""

from __future__ import annotations

import pathlib
import shutil
import statistics
from typing import NamedTuple

import numpy as np
from harness import (
    DIM,
    K,
    Attributes,
    Samples,
    Spans,
    Verdict,
    Yardstick,
    check_answers,
    clustered,
    flat_roofline,
    latency_summary,
    now,
    overhead_pct,
    rotate,
    timed_passes,
)

from repro import Field, Observability, SearchQuery, SearchStats, VectorDatabase
from repro.core.planner import STRATEGIES
from repro.serving import (
    ServingFrontDoor,
    ServingRequest,
    TenantSpec,
    TrafficGenerator,
)
from repro.storage import load_database, save_database

CLUSTERS = 64
#: Plans whose answer is exact by construction; only these are failed
#: for returning fewer than min(k, matching) hits.
EXACT_STRATEGIES = ("brute_force", "pre_filter")


def sized(full: int, quick: bool, floor: int) -> int:
    """``--quick`` runs an eighth of the size, for the smoke test."""
    return max(floor, full // 8) if quick else full


def to_predicate(spec):
    """The program-side predicate of a spec; ``Attributes.mask`` is the
    oracle-side reading of the same tuple."""
    if spec is None:
        return None
    kind = spec[0]
    if kind == "cat":
        return Field("category") == spec[1]
    if kind == "rating_le":
        return Field("rating") <= spec[1]
    if kind == "cat_rating":
        return (Field("category") == spec[1]) & (Field("rating") == spec[2])
    if kind == "price_gt":
        return Field("price") > spec[1]
    raise ValueError(f"unknown predicate spec {spec!r}")


def strategy_of(result) -> str:
    return result.stats.plan_name.split()[0]


def ids_of(results) -> list:
    """Ids per answer; None where the call raised (the oracle fails it)."""
    return [None if isinstance(r, Exception) else r.ids for r in results]


# ------------------------------------------------------------- search loops


def search_pass(db, queries, predicates, params):
    """One closed-loop pass of ``db.search``.

    Returns (loop wall seconds, per-call seconds, results).  An
    exception is kept in place of its result so the oracle counts it.
    """
    lat = np.empty(len(queries))
    results: list = [None] * len(queries)
    begin = now()
    for i, query in enumerate(queries):
        start = now()
        try:
            results[i] = db.search(query, k=K, predicate=predicates[i], **params)
        except Exception as exc:  # noqa: BLE001 - counted, not dropped
            results[i] = exc
        lat[i] = now() - start
    return now() - begin, lat, results


def traced_search_pass(db, queries, predicates, params, spans: Spans, **tags):
    """The same pass in the two-call form, one ``request`` span per query
    with ``core.plan`` and ``core.execute`` children.

    Returns (loop wall seconds, results, plan-cache (hits, misses) taken
    during the pass).
    """
    cache = db.plan_cache
    pass_no = spans.next_pass()
    hits0, misses0 = cache.hits, cache.misses
    results: list = [None] * len(queries)
    begin = now()
    for i, query in enumerate(queries):
        hits_before = cache.hits
        t0 = now()
        try:
            plan, _ = db.plan(
                SearchQuery(query, K, predicate=predicates[i], params=dict(params))
            )
            t1 = now()
            results[i] = db.search(
                query, k=K, predicate=predicates[i], plan=plan, **params
            )
        except Exception as exc:  # noqa: BLE001 - counted, not dropped
            results[i] = exc
            continue
        t2 = now()
        rid = f"{pass_no}.{i}"
        parent = spans.add(
            "request", t0, t2, rid=rid, strategy=plan.strategy, **tags
        )
        spans.add(
            "core.plan", t0, t1, parent=parent, rid=rid,
            cache="hit" if cache.hits > hits_before else "miss",
        )
        spans.add(
            "core.execute", t1, t2, parent=parent, rid=rid,
            strategy=plan.strategy,
        )
    return now() - begin, results, (cache.hits - hits0, cache.misses - misses0)


# ------------------------------------------------------------- layer probes


def plan_metrics(spans: Spans, results, cache_delta) -> dict:
    """core.* plan metrics of one traced pass (counts are exact)."""
    out = {
        "core.plan_warm_us": spans.mean_us("core.plan", cache="hit"),
        "core.plan_cold_us": spans.mean_us("core.plan", cache="miss"),
        "core.execute_us": spans.mean_us("core.execute", probe=None),
    }
    hits, misses = cache_delta
    out["core.plan_cache_hit_ratio"] = hits / max(1, hits + misses)
    out.update(plan_mix(results))
    return out


def plan_mix(results) -> dict:
    """How many answers each strategy produced; a change here is a plan
    change, not a speed-up."""
    out = {f"core.plan_mix.{strategy}": 0 for strategy in STRATEGIES}
    for result in results:
        if not isinstance(result, Exception):
            out[f"core.plan_mix.{strategy_of(result)}"] += 1
    return out


def index_probe(db, index_name, queries, rids, params, spans: Spans) -> dict:
    """For queries the database answers by ``index_scan``: execute the
    chosen plan, then call the index directly, back to back and under the
    same request id, so that ``core.execute`` minus ``index.search`` is
    the executor's own time (operator, alive mask, result objects)."""
    index = db.indexes[index_name]
    totals = SearchStats()
    execute_s = search_s = 0.0
    for query, rid in zip(queries, rids):
        plan, _ = db.plan(SearchQuery(query, K, params=dict(params)))
        stats = SearchStats()
        start = now()
        db.search(query, k=K, plan=plan, **params)
        middle = now()
        index.search(query, K, stats=stats, **params)
        end = now()
        spans.add("core.execute", start, middle, rid=rid, probe=True)
        spans.add("index.search", middle, end, rid=rid, probe=True)
        execute_s += middle - start
        search_s += end - middle
        totals.merge(stats)
    n = max(1, len(queries))
    return {
        "index.search_us": search_s / n * 1e6,
        "core.execute_overhead_us": (execute_s - search_s) / n * 1e6,
        "index.distance_computations_per_query": totals.distance_computations / n,
        "index.nodes_visited_per_query": totals.nodes_visited / n,
        "index.candidates_examined_per_query": totals.candidates_examined / n,
        "index.memory_bytes": index.memory_bytes(),
    }


def scores_probe(db, rows, queries, spans: Spans) -> dict:
    """``Score.distances`` at the graph's call shape (32 rows: dispatch
    bound) and the scan's (all rows: bandwidth bound)."""
    few = np.ascontiguousarray(rows[:32])
    for query in queries[:1000]:
        start = now()
        db.score.distances(query, few)
        spans.add("scores.distances", start, now(), shape="32", probe=True)
    for query in queries[:100]:
        start = now()
        db.score.distances(query, rows)
        spans.add("scores.distances", start, now(), shape="full", probe=True)
    full = spans.mean_us("scores.distances", shape="full")
    return {
        "scores.distances_us_per_call_32": spans.mean_us(
            "scores.distances", shape="32"),
        "scores.distances_ns_per_vector_full": full * 1e3 / len(rows),
    }


def build_metrics(workload) -> dict:
    """``create_index`` as timed inside the workload's ``setup``."""
    return {
        "index.build_s": workload.build_s,
        "index.build_us_per_vector":
            workload.build_s / len(workload.rows) * 1e6,
    }


def index_scan_requests(queries, results):
    """(queries, request ids) of the first traced pass answered by
    ``index_scan`` — the set the index probe repeats."""
    picked = [
        i for i, r in enumerate(results)
        if not isinstance(r, Exception) and strategy_of(r) == "index_scan"
    ]
    return [queries[i] for i in picked], [f"0.{i}" for i in picked]


# ---------------------------------------------------------------- workloads


class SearchWorkload:
    """What the two read-only workloads share: the same queries, pass
    after pass, untraced or in the traced two-call form.

    Only the latest answers are kept (for the oracle), and the first
    measured traced pass's (for the counts): its history — set-up, one
    warm-up of each form — is the same however fast the machine is.
    """

    index_name: str
    params: dict
    yardstick = "dispatch"

    def _pass(self, count: int | None = None):
        wall, lat, self.results = search_pass(
            self.db, self.queries[:count], self.predicates[:count], self.params)
        return wall, lat

    def _traced_pass(self, spans: Spans) -> float:
        wall, results, cache_delta = traced_search_pass(
            self.db, self.queries, self.predicates, self.params, spans)
        if spans.passes == 1:
            self.counted = results, cache_delta
        return wall

    def measure(self, seconds: float, yard: Yardstick) -> dict:
        passes = timed_passes(self._pass, seconds, yard)
        return latency_summary([lat for _, lat in passes])

    def trace_passes(self, seconds: float, spans: Spans, yard: Yardstick):
        """Untraced and traced passes in turn; returns the plan metrics,
        the trace overhead, and the untraced search_qps."""
        untraced, traced = rotate(
            [self._pass, lambda: self._traced_pass(spans)], seconds, yard,
            after_warmup=spans.reset)
        out = plan_metrics(spans, *self.counted)
        out["trace.overhead_pct"] = overhead_pct(
            traced, [wall for wall, _ in untraced])
        qps = statistics.median(len(lat) / lat.sum() for _, lat in untraced)
        return out, qps

    def layer_probes(self, seconds: float, spans: Spans, yard: Yardstick,
                     roofline_queries) -> dict:
        results, _ = self.counted
        out = index_probe(
            self.db, self.index_name,
            *index_scan_requests(self.queries, results), self.params, spans)
        out.update(scores_probe(self.db, self.rows, self.queries, spans))
        out.update(flat_roofline(self.rows, roofline_queries, seconds, yard))
        out.update(build_metrics(self))
        return out


class KnnHnsw(SearchWorkload):
    """Unfiltered k-NN through one HNSW index: the index layer's workload."""

    name = "knn_hnsw"
    index_name = "hnsw"
    recall_floor = 0.95

    def __init__(self, seed: int, quick: bool, workdir: pathlib.Path):
        rng = np.random.default_rng([seed, 1])
        centers = rng.standard_normal((CLUSTERS, DIM))
        # The cost model only picks the graph over a scan above ~1 000 rows.
        self.rows = clustered(rng, sized(2000, quick, 1200), centers)
        self.queries = clustered(rng, sized(2000, quick, 250), centers)
        self.predicates = [None] * len(self.queries)
        self.params = {"ef_search": 32}
        self.batch_results: list = []

    def setup(self) -> None:
        db = VectorDatabase(dim=DIM)
        db.insert_many(self.rows)
        start = now()
        db.create_index("hnsw", "hnsw", m=16, ef_construction=100, seed=0)
        self.build_s = now() - start
        self.db = db

    def trace(self, seconds: float, spans: Spans, yard: Yardstick) -> dict:
        out, search_qps = self.trace_passes(seconds * 0.5, spans, yard)

        def batch_pass():
            start = now()
            self.batch_results = self.db.batch_search(
                self.queries, k=K, **self.params)
            return now() - start

        per_query = statistics.median(
            timed_passes(batch_pass, seconds * 0.15, yard)) / len(self.queries)
        out["core.batch_us_per_query"] = per_query * 1e6
        out["batch_qps"] = 1.0 / per_query
        out.update(self.layer_probes(seconds * 0.1, spans, yard, self.queries))
        out["index.qps_over_flat_roofline"] = (
            search_qps / out["roofline.flat_scan_qps"])
        return out

    def verify(self) -> Verdict:
        verdict = Verdict()
        masks = [None] * len(self.queries)
        for results in (self.results, self.batch_results):
            if results:
                check_answers(
                    verdict, self.rows, self.queries, masks, ids_of(results))
        return verdict


class HybridIvf(SearchWorkload):
    """Five predicate classes over IVF + a partitioned IVF: the planner,
    plan cache, predicate evaluation and ``hybrid/*`` operators' workload."""

    name = "hybrid_ivf"
    index_name = "ivf"
    recall_floor = 0.90
    params: dict = {}

    def __init__(self, seed: int, quick: bool, workdir: pathlib.Path):
        rng = np.random.default_rng([seed, 2])
        centers = rng.standard_normal((CLUSTERS, DIM))
        n = sized(20000, quick, 2500)
        self.rows = clustered(rng, n, centers)
        self.attrs = Attributes(rng, n)
        self.attr_dicts = self.attrs.dicts()
        # At least 1 000, so the fresh thresholds (a fifth of the queries)
        # plus the ~120 repeated predicates overflow the 256-entry plan
        # cache and a fresh threshold is a miss on every pass.
        self.queries = clustered(rng, sized(3000, quick, 1000), centers)
        self.specs = [self._spec(rng, i) for i in range(len(self.queries))]
        self.predicates = [to_predicate(s) for s in self.specs]

    @staticmethod
    def _spec(rng, i: int):
        """Equal shares of five classes; the last draws a fresh threshold
        every time, so its plan is never in the cache."""
        kind = i % 5
        category = int(rng.integers(Attributes.CATEGORIES))
        if kind == 0:
            return None
        if kind == 1:
            return ("cat", category)
        if kind == 2:
            return ("rating_le", 3)
        if kind == 3:
            return ("cat_rating", category, int(rng.integers(1, 6)))
        return ("price_gt", float(rng.uniform(5.0, 60.0)))

    def setup(self) -> None:
        db = VectorDatabase(dim=DIM, selector="cost")
        db.insert_many(self.rows, self.attr_dicts)
        start = now()
        db.create_index("ivf", "ivf_flat", nlist=128)
        self.build_s = now() - start
        db.create_partitioned_index(
            "by_category", "ivf_flat", "category", nlist=16)
        self.db = db

    def trace(self, seconds: float, spans: Spans, yard: Yardstick) -> dict:
        db = self.db
        out, _ = self.trace_passes(seconds * 0.4, spans, yard)
        for strategy in ("index_scan", "partition", "post_filter", "pre_filter"):
            out[f"hybrid.{strategy}_us"] = spans.mean_us(
                "request", strategy=strategy)

        results, _ = self.counted
        good = [r for r in results if not isinstance(r, Exception)]
        hybrid = [r for r, s in zip(results, self.specs)
                  if s is not None and not isinstance(r, Exception)]
        out["hybrid.predicate_evaluations_per_query"] = float(np.mean(
            [r.stats.predicate_evaluations for r in hybrid]))
        out["hybrid.candidate_yield"] = (
            sum(len(r.hits) for r in good)
            / max(1, sum(r.stats.candidates_examined for r in good)))
        # Post-filtering may return fewer than min(k, matching) by design;
        # how often it does is work wasted on the way to recall.
        matching = [
            len(self.rows) if s is None else int(self.attrs.mask(s).sum())
            for s in self.specs
        ]
        out["hybrid.short_result_share"] = float(np.mean([
            not isinstance(r, Exception) and len(r.hits) < min(K, m)
            for r, m in zip(results, matching)
        ]))

        for predicate in [p for p in self.predicates if p is not None][:300]:
            start = now()
            db.collection.predicate_mask(predicate)
            middle = now()
            db.collection.selectivity(predicate)
            spans.add("core.predicate_mask", start, middle, probe=True)
            spans.add("core.selectivity", middle, now(), probe=True)
        out["core.predicate_mask_us"] = spans.mean_us("core.predicate_mask")
        out["core.selectivity_us"] = spans.mean_us("core.selectivity")
        out.update(self.layer_probes(
            seconds * 0.1, spans, yard, self.queries[:500]))

        # The cost of the program's own telemetry, on a third of the pass:
        # the same queries with a real bundle against the disabled no-op.
        third = len(self.queries) // 3

        def observed_pass():
            db.set_observability(Observability())
            try:
                return self._pass(third)[0]
            finally:
                db.set_observability(None)

        plain, observed = rotate(
            [lambda: self._pass(third)[0], observed_pass], seconds * 0.2, yard)
        out["observability.enabled_overhead_pct"] = overhead_pct(observed, plain)
        self.results = results  # the oracle judges the full traced pass
        return out

    def verify(self) -> Verdict:
        verdict = Verdict()
        check_answers(
            verdict, self.rows, self.queries,
            [self.attrs.mask(s) for s in self.specs], ids_of(self.results),
            exact_plans=[
                not isinstance(r, Exception)
                and strategy_of(r) in EXACT_STRATEGIES for r in self.results
            ],
        )
        return verdict


class SearchBlock(NamedTuple):
    """Searches of one churn epoch that ran against one live set."""

    alive: np.ndarray
    queries: np.ndarray
    results: list
    stale: bool


class ChurnMixed:
    """Writes beside reads through ``VectorDatabase``'s public DML, then
    snapshot round trips: what a read-path gain may silently cost."""

    name = "churn_mixed"
    recall_floor = 0.90
    #: Seven searches in ten are brute-force scans of the whole matrix.
    yardstick = "stream"
    FRESH = 300      # searches after each rebuild (index_scan, alive mask)
    ROUNDS = 4       # write rounds per epoch
    STALE = 175      # searches after each write round (brute_force)
    SINGLES = 20     # db.insert calls per round
    BULK = 20        # rows in the one db.insert_many per round
    DELETES = 40     # db.delete calls per round: the live count holds steady

    def __init__(self, seed: int, quick: bool, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        self.centers = rng.standard_normal((CLUSTERS, DIM))
        n = sized(10000, quick, 1250)
        self.rows = clustered(rng, n, self.centers)
        self.attrs = Attributes(rng, n)
        self.attr_dicts = self.attrs.dicts()
        if quick:
            self.FRESH, self.STALE = 40, 20
        per_epoch = self.FRESH + self.ROUNDS * self.STALE
        self.queries = clustered(rng, per_epoch, self.centers)
        self.probes = clustered(rng, sized(200, quick, 50), self.centers)
        self.snapshot_mismatches = 0
        self.dml_ops = 0
        self.bad_insert_ids = 0

    def setup(self) -> None:
        db = VectorDatabase(dim=DIM)
        db.insert_many(self.rows, self.attr_dicts)
        start = now()
        db.create_index("ivf", "ivf_flat", nlist=128)
        self.build_s = now() - start
        self.db = db
        # The benchmark's own model of the collection: every row ever
        # inserted, and which of them are live.
        self.model_rows = [self.rows]
        self.alive = np.ones(len(self.rows), dtype=bool)
        self.epochs = 0
        self.blocks: list[SearchBlock] = []

    # ---------------------------------------------------------------- epoch

    def _searches(self, lo, hi, spans, out) -> None:
        db = self.db
        queries = self.queries[lo:hi]
        stale = db.has_stale_indexes
        nothing = [None] * len(queries)
        if spans is None:
            _, lat, results = search_pass(db, queries, nothing, {})
            out["lat"].append(lat)
        else:
            _, results, _ = traced_search_pass(
                db, queries, nothing, {}, spans,
                freshness="stale" if stale else "fresh")
        self.blocks.append(
            SearchBlock(self.alive.copy(), queries, results, stale))

    def _writes(self, rng, spans, out) -> None:
        """One write round; every DML call is timed on its own."""
        db = self.db
        count = self.SINGLES + self.BULK
        new_rows = clustered(rng, count, self.centers)
        dicts = Attributes(rng, count).dicts()
        victims = rng.choice(
            np.flatnonzero(self.alive), self.DELETES, replace=False)
        next_id = len(self.alive)
        spent = 0.0
        for i in range(self.SINGLES):
            start = now()
            got = db.insert(new_rows[i], dicts[i])
            end = now()
            spent += end - start
            self.bad_insert_ids += got != next_id + i
            if spans is not None:
                spans.add("core.insert", start, end)
        start = now()
        got = db.insert_many(new_rows[self.SINGLES:], dicts[self.SINGLES:])
        end = now()
        spent += end - start
        self.bad_insert_ids += got != list(
            range(next_id + self.SINGLES, next_id + count))
        if spans is not None:
            spans.add("core.insert_many", start, end, rows=self.BULK)
        for victim in victims:
            start = now()
            db.delete(int(victim))
            end = now()
            spent += end - start
            if spans is not None:
                spans.add("core.delete", start, end)
        self.model_rows.append(new_rows)
        self.alive = np.concatenate([self.alive, np.ones(count, dtype=bool)])
        self.alive[victims] = False
        self.dml_ops += self.SINGLES + 1 + self.DELETES
        out["write_s"] += spent
        out["written"] += count + self.DELETES

    def epoch(self, spans: Spans | None = None) -> dict:
        """rebuild; fresh searches; then ROUNDS x (writes; stale searches).

        The write schedule of epoch ``e`` is drawn from (seed, e), so it
        does not depend on how many epochs a machine fits into a run.
        """
        rng = np.random.default_rng([self.seed, 3, self.epochs])
        self.epochs += 1
        self.blocks = []
        out = {"lat": [], "write_s": 0.0, "written": 0}
        begin = now()
        self.db.rebuild_indexes()
        out["rebuild_s"] = now() - begin
        if spans is not None:
            spans.add("core.rebuild_indexes", begin, begin + out["rebuild_s"])
        self._searches(0, self.FRESH, spans, out)
        for r in range(self.ROUNDS):
            self._writes(rng, spans, out)
            lo = self.FRESH + r * self.STALE
            self._searches(lo, lo + self.STALE, spans, out)
        out["wall"] = now() - begin
        return out

    # ------------------------------------------------------------ snapshots

    def snapshots(self, rounds: int, spans: Spans | None = None) -> dict:
        """save -> load ``rounds`` times; a loaded database must answer
        the probe queries with the same ids as the live one."""
        db = self.db
        db.rebuild_indexes()
        live = [db.search(q, k=K).ids for q in self.probes]
        out = {"save_s": [], "load_s": [], "bytes": 0}
        for i in range(rounds):
            path = self.workdir / f"{self.name}.snapshot{i}"
            try:
                start = now()
                save_database(db, path)
                middle = now()
                loaded = load_database(path)
                end = now()
                out["bytes"] = sum(
                    f.stat().st_size for f in path.rglob("*") if f.is_file())
            finally:
                shutil.rmtree(path, ignore_errors=True)
            out["save_s"].append(middle - start)
            out["load_s"].append(end - middle)
            if spans is not None:
                spans.add("storage.save_database", start, middle)
                spans.add("storage.load_database", middle, end)
            self.snapshot_mismatches += sum(
                loaded.search(q, k=K).ids != want
                for q, want in zip(self.probes, live))
        self.snapshot_probes = rounds * len(self.probes)
        return out

    # -------------------------------------------------------------- measure

    def measure(self, seconds: float, yard: Yardstick) -> dict:
        epochs = timed_passes(self.epoch, seconds, yard)
        self.snapshots(rounds=1)
        return latency_summary([np.concatenate(e["lat"]) for e in epochs])

    TRACED_ROUNDS = 3

    def trace(self, seconds: float, spans: Spans, yard: Yardstick) -> dict:
        """A fixed number of epochs whatever ``seconds`` says: what the
        collection holds when the snapshots and probes run — and with it
        every count metric — must not depend on the machine's speed."""
        untraced, traced = rotate(
            [self.epoch, lambda: self.epoch(spans)], 0.0, yard,
            min_rounds=self.TRACED_ROUNDS, after_warmup=spans.reset,
        )
        out = {"trace.overhead_pct": overhead_pct(
            [t["wall"] for t in traced], [u["wall"] for u in untraced])}
        fresh = spans.durations("request", freshness="fresh")
        stale = spans.durations("request", freshness="stale")
        out["core.search_fresh_qps"] = fresh.size / fresh.sum()
        out["core.search_stale_qps"] = stale.size / stale.sum()
        out["core.stale_query_share"] = stale.size / (fresh.size + stale.size)
        out["core.execute_us"] = spans.mean_us("core.execute", probe=None)
        out["core.insert_us"] = spans.mean_us("core.insert")
        out["core.insert_many_us_per_row"] = (
            spans.mean_us("core.insert_many") / self.BULK)
        out["core.delete_us"] = spans.mean_us("core.delete")
        # The last epoch's answers; every epoch has the same mix.
        out.update(plan_mix([r for b in self.blocks for r in b.results]))
        both = untraced + traced
        out["rebuild_s"] = statistics.median(e["rebuild_s"] for e in both)
        out["write_ops_per_s"] = statistics.median(
            e["written"] / e["write_s"] for e in both)

        snap = self.snapshots(rounds=3, spans=spans)
        save_s = statistics.median(snap["save_s"])
        load_s = statistics.median(snap["load_s"])
        live_bytes = int(self.alive.sum()) * DIM * 4
        out["snapshot_save_s"] = save_s
        out["snapshot_load_s"] = load_s
        out["stored_bytes_per_user_byte"] = snap["bytes"] / live_bytes
        out["storage.snapshot_bytes"] = snap["bytes"]
        out["storage.save_mb_per_s"] = snap["bytes"] / 1e6 / save_s
        out["storage.load_mb_per_s"] = snap["bytes"] / 1e6 / load_s

        # The database was rebuilt for the snapshots, so the index is fresh.
        rows = np.concatenate(self.model_rows)
        fresh_queries = self.queries[:self.FRESH]
        out.update(index_probe(
            self.db, "ivf", fresh_queries, [None] * len(fresh_queries), {},
            spans))
        out.update(scores_probe(self.db, rows, self.queries, spans))
        out.update(build_metrics(self))
        return out

    def verify(self) -> Verdict:
        verdict = Verdict()
        rows = np.concatenate(self.model_rows)
        for block in self.blocks:
            alive = np.zeros(len(rows), dtype=bool)
            alive[:len(block.alive)] = block.alive
            check_answers(
                verdict, rows, block.queries, [alive] * len(block.queries),
                ids_of(block.results),
                exact_plans=[block.stale] * len(block.queries),
            )
        verdict.attempted += self.dml_ops + self.snapshot_probes
        if self.bad_insert_ids:
            verdict.fail("insert_id", int(self.bad_insert_ids))
        if self.snapshot_mismatches:
            verdict.fail("snapshot_differs", int(self.snapshot_mismatches))
        return verdict


def onto_cluster(vector: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Shift a generator-drawn N(0, I) query onto a data cluster picked by
    a hash of the vector itself: equal vectors stay equal (the result
    cache and the coalescer still see the repeats) and every query is
    drawn from the distribution the rows were."""
    pick = int(abs(float(vector[0])) * 2 ** 20) % len(centers)
    return (centers[pick] + vector).astype(np.float32)


class ServingFrontdoor:
    """A seeded request trace replayed through ``ServingFrontDoor.run``
    with telemetry on: admission, coalescing, result caches and the
    enabled observability path do the work.  Arrivals are open-loop on
    the simulated clock; what is measured is wall-clock work completed
    per second."""

    name = "serving_frontdoor"
    recall_floor = 0.90
    yardstick = "dispatch"
    TENANTS = ("tenant0", "tenant1", "tenant2", "tenant3")

    def __init__(self, seed: int, quick: bool, workdir: pathlib.Path):
        rng = np.random.default_rng([seed, 4])
        centers = rng.standard_normal((CLUSTERS, DIM))
        self.rows = clustered(rng, sized(20000, quick, 2500), centers)
        generator = TrafficGenerator(
            self.TENANTS, DIM, rate=1500.0, seed=seed, query_pool=64,
            fresh_fraction=0.25, k=K,
        )
        self.arrivals = [
            (r.tenant, onto_cluster(r.vector, centers), r.arrival_seconds)
            for r in generator.generate(0.3 if quick else 2.5)
        ]

    def _front_door(self, telemetry: bool) -> ServingFrontDoor:
        """Four equal tenants sized so that nothing is rejected or shed."""
        return ServingFrontDoor(
            self.db,
            [TenantSpec(name, qps=5000.0, burst=1000.0, max_inflight=16,
                        max_queue=100_000) for name in self.TENANTS],
            workers=2, coalesce_max=16, telemetry=telemetry,
        )

    def setup(self) -> None:
        db = VectorDatabase(dim=DIM)
        db.insert_many(self.rows)
        start = now()
        db.create_index("ivf", "ivf_flat", nlist=128)
        self.build_s = now() - start
        self.db = db
        self._front_door(telemetry=False)

    def serve(self, observed: bool = True, spans: Spans | None = None):
        """One pass: a fresh bundle and front door, the whole trace
        through ``run()``, then the executed requests replayed straight
        through ``db.search`` (the backend's own latency, and what the
        front door's overhead is measured against).

        Returns (run wall, replay wall, per-call replay seconds).
        """
        db = self.db
        requests = [ServingRequest(t, v, K, a) for t, v, a in self.arrivals]
        obs = Observability() if observed else None
        db.set_observability(obs)
        try:
            door = self._front_door(telemetry=observed)
            start = now()
            self.responses = door.run(requests)
            wall = now() - start
            executed = [
                r.request.vector for r in self.responses if r.status == "ok"]
            replay_wall, lat, _ = search_pass(
                db, executed, [None] * len(executed), {})
        finally:
            db.set_observability(None)
        if spans is not None:
            spans.add("serving.run", start, start + wall)
            if spans.next_pass() == 0:  # the pass the counts are taken from
                self.counted = (
                    self.responses, door.report().totals, len(obs.tracer.spans))
        return wall, replay_wall, lat

    def measure(self, seconds: float, yard: Yardstick) -> dict:
        passes = timed_passes(self.serve, seconds, yard)
        out = latency_summary([lat for _, _, lat in passes])
        out["search_qps"] = Samples(
            len(self.arrivals) / wall for wall, _, _ in passes)
        return out

    def trace(self, seconds: float, spans: Spans, yard: Yardstick) -> dict:
        observed, traced, plain = rotate(
            [self.serve, lambda: self.serve(spans=spans),
             lambda: self.serve(observed=False)],
            seconds * 0.8, yard, after_warmup=spans.reset,
        )
        self.responses, totals, program_spans = self.counted
        n = len(self.responses)
        walls = [wall for wall, _, _ in observed]
        out = {
            "trace.overhead_pct": overhead_pct(
                [wall for wall, _, _ in traced], walls),
            "observability.frontdoor_telemetry_overhead_pct": overhead_pct(
                walls, [wall for wall, _, _ in plain]),
            "observability.spans_per_request": program_spans / n,
            "serving.wall_us_per_request": statistics.median(walls) / n * 1e6,
            "serving.overhead_us_per_request": statistics.median(
                wall - replay for wall, replay, _ in observed) / n * 1e6,
        }
        batches = max(1, totals["batches"])
        out["serving.result_cache_hit_ratio"] = totals["cache_hits"] / n
        out["serving.mean_batch_size"] = totals["mean_batch_size"]
        for mode in ("solo", "batched_scan"):
            out[f"serving.mode_share.{mode}"] = (
                totals["modes"].get(mode, 0) / batches)
        out["serving.rejected"] = totals["rejected"]
        out["serving.shed"] = totals["shed"]
        done = [r for r in self.responses if r.ok]
        sim = np.array([r.latency_seconds for r in done])
        out["serving.sim_p50_ms"] = float(np.percentile(sim, 50) * 1e3)
        out["serving.sim_p99_ms"] = float(np.percentile(sim, 99) * 1e3)
        busy = sum(r.service_seconds / max(1, r.batch_size) for r in done)
        out["serving.sim_busy_over_wall"] = busy / traced[0][0]
        executed = [r.request.vector for r in done if r.status == "ok"]
        out.update(index_probe(
            self.db, "ivf", executed, [None] * len(executed), {}, spans))
        out.update(build_metrics(self))
        return out

    def verify(self) -> Verdict:
        verdict = Verdict()
        served = [r for r in self.responses if r.ok]
        refused = len(self.responses) - len(served)
        verdict.attempted += refused
        if refused:
            verdict.fail("rejected_or_shed", refused)
        queries = np.stack([r.request.vector for r in served])
        check_answers(
            verdict, self.rows, queries, [None] * len(served),
            [r.ids for r in served])
        return verdict


WORKLOADS = {
    cls.name: cls for cls in (KnnHnsw, HybridIvf, ChurnMixed, ServingFrontdoor)
}
