#!/usr/bin/env python
"""Perf suite for the vectorized search kernels (PR: vectorized kernels).

Times kernels against the implementations they replaced or the loops
they batch.  (The graph beam kernel is not here: its old twin left
``src/`` for ``tests/oracles.py``, and vdbench's ``knn_hnsw`` workload
measures that path in absolute units against the flat-scan roofline.)

* flat / IVF top-k selection — :func:`repro.index._kernels.topk_indices`
  (argpartition + partial sort) vs the full stable ``np.argsort`` the
  replaced call sites used;
* IVF-ADC scan — the register-blocked FastScan layout (quantized LUT
  stack + exact rerank) vs ``tests/oracles.py``'s
  ``ivfadc_search_reference``, the per-cell float-table scan, with a
  recall-floor fidelity gate;
* plan-cache dispatch — ``VectorDatabase.plan`` with a warm prepared-
  query cache vs the cache-disabled full planning pass;
* serving coalescing — the front door's coalesced dispatch (one plan +
  one ``execute_batch`` call for 64 concurrent same-shape queries) vs
  the per-request ``db.search`` loop, both sides in absolute us/query,
  recall-gated against exact ground truth.  The gate is "coalesced is
  not slower than the loop" (>= 1.0x), not a multiple of a committed
  ratio;
* observability overhead — the disabled (no-op singleton) query path vs
  raw operator dispatch (no span plumbing at all) and vs fully-enabled
  tracing+metrics; the disabled path must be within noise of raw;
* table-scan roofline — ``db.search`` under a forced ``brute_force``
  plan vs an in-bench ``norms - 2 V@q`` + ``argpartition`` scan of the
  same matrix (the flat-scan roofline, ROADMAP aim 1), reported as the
  scale-free ratio roofline time / end-to-end time;
* recall probes — fully deterministic recall@10 of a fixed-seed HNSW
  and a fixed-seed IVF (low nprobe) build against exact ground truth,
  so quality regressions gate CI alongside latency regressions.

Writes a machine-readable ``BENCH_PERF.json`` at the repo root.  Every
timed pair is also checked for result identity — a mismatch exits
non-zero, so CI's quick mode doubles as a smoke test.

Regression gate (``--check``): compares the current run against the
committed ``BENCH_PERF.json`` baseline, matching entries by
``(name, n)`` and comparing only scale-free quantities so the gate
works across machines of different absolute speed:

* speedup ratios must stay >= ``0.5 x`` baseline (a true kernel
  regression halves the ratio on any machine; scheduler noise does not);
* the coalesced path must run at >= ``1.0 x`` its per-query loop (an
  absolute floor: both sides are measured in the same run);
* recall must stay within ``0.05`` of baseline (the probes are seeded
  and deterministic, so this is pure safety margin);
* the disabled- and the enabled-observability overhead must each stay
  under ``max(15%, baseline + 15%)``;
* the table scan must run at >= ``0.5 x`` the flat-scan roofline (an
  absolute floor: the roofline is measured in the same run).

Each real run (not ``--replay``) is appended to ``BENCH_TRAJECTORY.json``
— a compact per-run history of every scale-free number, so performance
drift is visible across commits, not just vs. one baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py [--quick] [--out PATH]
        [--check] [--baseline PATH] [--replay PATH] [--trajectory PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

from repro.bench.metrics import exact_ground_truth, mean_recall, recall_at_k
from repro.index._kernels import topk_indices
from repro.index.hnsw import HnswIndex
from repro.index.ivf import IvfFlatIndex
from repro.quantization.ivfadc import IvfAdc
from repro.scores import EuclideanScore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles import ivfadc_search_reference  # the per-cell scan, kept by the tests


def best_of(fn, repeats: int) -> float:
    """Best-of-N wall time (seconds) — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def clustered_vectors(n: int, dim: int, rng, clusters: int = 32) -> np.ndarray:
    centers = rng.standard_normal((clusters, dim)) * 4.0
    assign = rng.integers(0, clusters, size=n)
    return (centers[assign] + rng.standard_normal((n, dim))).astype(np.float32)


def bench_selection_topk(name: str, n: int, k: int, repeats: int, rng) -> dict:
    """argpartition kernel vs the full stable argsort it replaced."""
    dists = rng.random(n)

    got = topk_indices(dists, k)
    want = np.argsort(dists, kind="stable")[:k]
    if not np.array_equal(got, want):
        print(f"IDENTITY FAIL: {name}", file=sys.stderr)
        sys.exit(1)

    ref = best_of(lambda: np.argsort(dists, kind="stable")[:k], repeats)
    vec = best_of(lambda: topk_indices(dists, k), repeats)
    return {
        "name": name,
        "n": n,
        "k": k,
        "reference_s": ref,
        "vectorized_s": vec,
        "speedup": ref / vec,
    }


def bench_ivfadc_scan(n: int, rng) -> dict:
    """Blocked FastScan ADC vs the per-cell float-table reference scan.

    One trained quantizer (m=16 4-bit subspaces, so codes are the
    classic FastScan nibble layout) serves both sides: the reference is
    ``tests/oracles.py``'s ``ivfadc_search_reference`` — one float ADC
    table build and one row-gather per probed cell — and the vectorized
    side is the register-blocked one-pass scan (quantized LUT stack +
    exact-rerank tail).  Fidelity is a recall comparison against exact ground truth,
    not id identity: duplicate PQ codes tie, and the quantized LUT may
    break ties differently than the float tables.
    """
    dim, k, nprobe, nq = 32, 10, 16, 8
    nlist = min(64, n // 8)
    data = clustered_vectors(n, dim, rng).astype(np.float64)
    core = IvfAdc(nlist=nlist, m=16, ks=16, seed=0, layout="blocked").train(data)
    core.add(np.arange(n), data)
    base = data[rng.integers(0, n, size=nq)]
    queries = base + 0.05 * rng.standard_normal((nq, dim))

    truth = exact_ground_truth(
        data.astype(np.float32), queries.astype(np.float32), k, EuclideanScore()
    )
    ref_recall = np.mean([
        recall_at_k(ivfadc_search_reference(core, q, k, nprobe=nprobe)[0].tolist(),
                    truth[i])
        for i, q in enumerate(queries)
    ])
    vec_recall = np.mean([
        recall_at_k(core.search(q, k, nprobe=nprobe)[0].tolist(), truth[i])
        for i, q in enumerate(queries)
    ])
    if vec_recall < ref_recall - 0.05:
        print(
            f"FIDELITY FAIL: ivfadc_scan blocked recall {vec_recall:.4f} <"
            f" reference {ref_recall:.4f} - 0.05",
            file=sys.stderr,
        )
        sys.exit(1)

    def reference():
        for q in queries:
            ivfadc_search_reference(core, q, k, nprobe=nprobe)

    def blocked():
        for q in queries:
            core.search(q, k, nprobe=nprobe)

    ref = best_of(reference, 3)
    vec = best_of(blocked, 3)
    return {
        "name": "ivfadc_scan",
        "n": n,
        "k": k,
        "nprobe": nprobe,
        "nlist": nlist,
        "m": core.pq.m,
        "ks": core.pq.ks,
        "queries": nq,
        "reference_s": ref,
        "vectorized_s": vec,
        "speedup": ref / vec,
        "recall": float(vec_recall),
        "reference_recall": float(ref_recall),
    }


def bench_observability_overhead(n: int, queries: int, rng) -> dict:
    """Disabled-observability execute() vs raw dispatch vs enabled tracing.

    ``raw`` calls ``QueryExecutor._dispatch`` directly — the executor
    body with no span or metric plumbing at all; ``disabled`` is the
    full ``execute()`` path against the DISABLED no-op singletons;
    ``enabled`` runs with a live tracer + metrics registry (cleared
    between reps so span accumulation doesn't skew timing).
    """
    from repro import Field, Observability, VectorDatabase
    from repro.core.executor import QueryExecutor
    from repro.core.query import SearchQuery
    from repro.core.types import SearchStats

    dim, k = 32, 10
    db = VectorDatabase(dim=dim)
    db.insert_many(
        clustered_vectors(n, dim, rng),
        [{"category": i % 8} for i in range(n)],
    )
    db.create_index("g", "hnsw", m=8)
    qs = rng.standard_normal((queries, dim)).astype(np.float32)
    predicate = Field("category") == 3
    probe = SearchQuery(qs[0], k, predicate=predicate, params={})
    plan = db.plan(probe)[0]
    executor = QueryExecutor(db)

    def raw():
        for q in qs:
            query = SearchQuery(q, k, predicate=predicate, params={})
            executor._dispatch(
                query, plan, SearchStats(plan_name=plan.describe())
            )

    def full_path_with_plan():
        for q in qs:
            executor.execute(
                SearchQuery(q, k, predicate=predicate, params={}), plan
            )

    raw_s = best_of(raw, 5)
    disabled_s = best_of(full_path_with_plan, 5)
    obs = Observability()

    def enabled_run():
        obs.tracer.clear()
        full_path_with_plan()

    db.set_observability(obs)
    enabled_s = best_of(enabled_run, 5)
    db.set_observability(None)
    return {
        "name": "observability_overhead",
        "n": n,
        "queries": queries,
        "strategy": plan.strategy,
        "raw_dispatch_s": raw_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "disabled_overhead_pct": 100.0 * (disabled_s / raw_s - 1.0),
        "enabled_overhead_pct": 100.0 * (enabled_s / raw_s - 1.0),
    }


def bench_plan_cache(n: int, queries: int, rng) -> dict:
    """Prepared-query plan cache: cold planner vs warm cache replay.

    Times ``VectorDatabase.plan`` alone for one repeated hybrid query
    shape.  The reference side runs with the cache disabled, so every
    call pays the full planning pass (candidate enumeration,
    selectivity estimation, cost ranking); the cached side replays the
    prepared plan after one warming miss.  Both databases hold the same
    data and indexes, and the replayed choice is checked to be the
    plan the cold planner picks.
    """
    from repro import Field, VectorDatabase
    from repro.core.query import SearchQuery

    dim, k = 32, 10
    data = clustered_vectors(n, dim, rng)
    attrs = [{"category": i % 8} for i in range(n)]
    dbs = {}
    for mode in (False, True):
        db = VectorDatabase(dim=dim, plan_cache=mode)
        db.insert_many(data, attrs)
        db.create_index("g", "hnsw", m=8)
        dbs[mode] = db
    predicate = Field("category") == 3
    q = rng.standard_normal(dim).astype(np.float32)

    def make_query():
        return SearchQuery(q, k, predicate=predicate, params={})

    cold, _ = dbs[False].plan(make_query())
    dbs[True].plan(make_query())  # warming miss
    warm, _ = dbs[True].plan(make_query())
    if warm.describe() != cold.describe():
        print(
            f"IDENTITY FAIL: plan_cache replayed {warm.describe()!r},"
            f" cold planner chose {cold.describe()!r}",
            file=sys.stderr,
        )
        sys.exit(1)

    def planning(db):
        def run():
            for _ in range(queries):
                db.plan(make_query())
        return run

    ref = best_of(planning(dbs[False]), 5)
    vec = best_of(planning(dbs[True]), 5)
    return {
        "name": "plan_cache_dispatch",
        "n": n,
        "queries": queries,
        "strategy": warm.strategy,
        "reference_s": ref,
        "vectorized_s": vec,
        "speedup": ref / vec,
    }


def bench_recall_probe(
    name: str, n: int, seed: int, make_index_fn
) -> dict:
    """Deterministic recall@10 of a seeded index vs exact ground truth.

    Everything is seeded — data, queries, and the index build — so the
    number is reproducible bit-for-bit on any machine: a change means a
    code change, not noise.  Queries are perturbed database points
    (clustered workload), which keeps recall meaningfully below 1.0 for
    the IVF probe so regressions are visible in both directions.
    """
    dim, k, nq = 32, 10, 50
    rng = np.random.default_rng(seed)
    vectors = clustered_vectors(n, dim, rng)
    base = vectors[rng.integers(0, n, size=nq)]
    queries = (base + 0.05 * rng.standard_normal((nq, dim))).astype(np.float32)
    score = EuclideanScore()
    truth = exact_ground_truth(vectors, queries, k, score)
    index = make_index_fn(score).build(vectors)
    results = [index.search(q, k) for q in queries]
    return {
        "name": name,
        "n": n,
        "k": k,
        "seed": seed,
        "recall": float(mean_recall(results, truth)),
    }


# ---------------------------------------------------------------------------
# Regression gate: compare scale-free quantities against a committed baseline.

#: (metric key, kind) per comparable quantity.  Only scale-free numbers
#: are gated — absolute times differ across machines, ratios don't.
_GATE_SPEEDUP_FLOOR = 0.5       # current speedup >= 0.5 x baseline speedup
_GATE_RECALL_SLACK = 0.05       # current recall >= baseline - 0.05
_GATE_OVERHEAD_SLACK = 15.0     # overhead <= max(15%, baseline + 15%)
_GATE_ROOFLINE_FLOOR = 0.5      # brute-force db.search >= 0.5 x flat-scan roofline
_GATE_BATCHED_FLOOR = 1.0       # a batched path is not slower than its per-query loop


def bench_serving_coalesce(n: int, batch: int, rng) -> dict:
    """Front-door coalescing: one batched dispatch vs per-request serving.

    ``batch`` concurrent single-vector queries of the same shape (same
    tenant, k, no predicate) are exactly what the serving tier's
    coalescer merges.  The reference side is what a front door without
    coalescing would do — ``batch`` independent ``db.search`` calls,
    each paying planning + executor dispatch; the coalesced side is one
    ``execute_coalesced`` call that plans once and runs the whole group
    through ``QueryExecutor.execute_batch``, whose members answer as
    their solo searches do.  Queries are drawn as near-duplicates
    around a few bases (the serving hot-query scenario).  Fidelity
    gate: coalesced recall must not trail the per-request loop by more
    than 0.05.
    """
    from repro.core.database import VectorDatabase
    from repro.serving.coalescer import execute_coalesced
    from repro.serving.request import ServingRequest

    dim, k, bases = 32, 10, 8
    db = VectorDatabase(dim=dim)
    vectors = clustered_vectors(n, dim, rng)
    db.insert_many(vectors)
    db.create_index("g", "hnsw", m=8)
    base = vectors[rng.integers(0, n, size=bases)]
    queries = base[rng.integers(0, bases, size=batch)] + 0.02 * rng.standard_normal(
        (batch, dim)
    ).astype(np.float32)
    requests = [ServingRequest("bench", q, k=k) for q in queries]

    def per_request():
        return [db.search(vector=q, k=k).hits for q in queries]

    def coalesced():
        return execute_coalesced(db, requests)[0]

    strategy = execute_coalesced(db, requests)[3]
    truth = exact_ground_truth(vectors, queries, k, db.score)
    ref_recall = mean_recall(per_request(), truth)
    vec_recall = mean_recall(coalesced(), truth)
    if vec_recall < ref_recall - 0.05:
        print(
            f"FIDELITY FAIL: serving_coalesce recall {vec_recall:.4f} <"
            f" per-request loop {ref_recall:.4f} - 0.05",
            file=sys.stderr,
        )
        sys.exit(1)

    ref = best_of(per_request, 5)
    vec = best_of(coalesced, 5)
    return {
        "name": "serving_coalesce",
        "n": n,
        "batch": batch,
        "k": k,
        "strategy": strategy,
        "loop_us_per_query": ref / batch * 1e6,
        "batched_us_per_query": vec / batch * 1e6,
        "ratio_over_loop": ref / vec,
        "recall": float(vec_recall),
        "reference_recall": float(ref_recall),
    }


def bench_table_scan_roofline(n: int, queries: int, rng) -> dict:
    """The exact-scan plan end to end against the flat-scan roofline.

    The roofline is the least a single-thread numpy scan of the matrix
    can cost: one float32 GEMV against cached squared norms plus an
    ``argpartition`` top-k.  The measured side is the whole of
    ``db.search`` under a forced ``brute_force`` plan — planning skipped,
    but tombstone mask, stats, exact re-score and hit materialisation
    included — over the same rows (a few tombstoned, as after churn).
    """
    from repro.core.database import VectorDatabase
    from repro.core.planner import QueryPlan

    dim, k = 64, 10
    vectors = clustered_vectors(n, dim, rng)
    db = VectorDatabase(dim=dim)
    db.insert_many(vectors)
    for victim in range(0, n, 50):
        db.delete(victim)
    probes = vectors[rng.integers(0, n, size=queries)] + 0.3 * rng.standard_normal(
        (queries, dim)
    ).astype(np.float32)
    plan = QueryPlan("brute_force")
    norms = np.einsum("ij,ij->i", vectors, vectors)
    norms[::50] = np.inf  # the roofline skips the same tombstones for free

    def roofline():
        out = []
        for q in probes:
            dist = norms - 2.0 * (vectors @ q)
            part = np.argpartition(dist, k - 1)[:k]
            out.append(part[np.argsort(dist[part])])
        return out

    def through_db():
        return [db.search(q, k=k, plan=plan).ids for q in probes]

    def exact_sorted(q, ids):
        diff = vectors[np.asarray(ids)].astype(np.float64) - q
        return np.sort(np.einsum("ij,ij->i", diff, diff))

    # Two rows can tie at the k-th float32 key, so the id *sets* may differ
    # with both answers right: compare what was asked for, the k smallest
    # exact distances.
    for q, want, got in zip(probes, roofline(), through_db()):
        if not np.allclose(exact_sorted(q, want), exact_sorted(q, got), rtol=1e-5):
            print("MISMATCH in table_scan_roofline: db.search(brute_force)"
                  " disagrees with the in-bench scan", file=sys.stderr)
            sys.exit(1)
    roof = best_of(roofline, 5)
    scan = best_of(through_db, 5)
    return {
        "name": "table_scan_roofline",
        "n": n,
        "dim": dim,
        "queries": queries,
        "k": k,
        "roofline_s": roof,
        "db_search_s": scan,
        "roofline_ratio": roof / scan,
    }


def compare_to_baseline(entries: list[dict], baseline: dict) -> tuple[list[str], int]:
    """Noise-tolerant comparison; returns (failures, entries compared)."""
    by_key = {(e["name"], e["n"]): e for e in baseline.get("entries", [])}
    failures: list[str] = []
    compared = 0
    for entry in entries:
        key = (entry["name"], entry["n"])
        if "roofline_ratio" in entry:  # absolute floor: needs no baseline
            compared += 1
            ratio = entry["roofline_ratio"]
            status = "ok" if ratio >= _GATE_ROOFLINE_FLOOR else "FAIL"
            print(
                f"  [check] {key[0]}@{key[1]:,}: {ratio:.2f}x of the flat-scan"
                f" roofline (floor {_GATE_ROOFLINE_FLOOR:.2f}x) {status}"
            )
            if ratio < _GATE_ROOFLINE_FLOOR:
                failures.append(
                    f"{key[0]}@{key[1]:,}: {ratio:.2f}x of the flat-scan"
                    f" roofline < {_GATE_ROOFLINE_FLOOR:.2f}x"
                )
            continue
        label = f"{key[0]}@{key[1]:,}"
        if "ratio_over_loop" in entry:  # absolute floor: needs no baseline
            compared += 1
            ratio = entry["ratio_over_loop"]
            status = "ok" if ratio >= _GATE_BATCHED_FLOOR else "FAIL"
            print(
                f"  [check] {label}: {ratio:.2f}x its per-query loop"
                f" (floor {_GATE_BATCHED_FLOOR:.2f}x) {status}"
            )
            if ratio < _GATE_BATCHED_FLOOR:
                failures.append(
                    f"{label}: {ratio:.2f}x its per-query loop <"
                    f" {_GATE_BATCHED_FLOOR:.2f}x"
                )
        base = by_key.get(key)
        if base is None:
            print(f"  [check] {label}: no baseline entry, skipped")
            continue
        if "speedup" in entry and "speedup" in base:
            compared += 1
            floor = _GATE_SPEEDUP_FLOOR * base["speedup"]
            status = "ok" if entry["speedup"] >= floor else "FAIL"
            print(
                f"  [check] {label}: speedup {entry['speedup']:.2f}x vs"
                f" baseline {base['speedup']:.2f}x (floor {floor:.2f}x) {status}"
            )
            if entry["speedup"] < floor:
                failures.append(
                    f"{label}: speedup {entry['speedup']:.2f}x <"
                    f" {floor:.2f}x (0.5 x baseline {base['speedup']:.2f}x)"
                )
        if "recall" in entry and "recall" in base:
            compared += 1
            floor = base["recall"] - _GATE_RECALL_SLACK
            status = "ok" if entry["recall"] >= floor else "FAIL"
            print(
                f"  [check] {label}: recall {entry['recall']:.4f} vs"
                f" baseline {base['recall']:.4f} (floor {floor:.4f}) {status}"
            )
            if entry["recall"] < floor:
                failures.append(
                    f"{label}: recall {entry['recall']:.4f} <"
                    f" {floor:.4f} (baseline {base['recall']:.4f} - "
                    f"{_GATE_RECALL_SLACK})"
                )
        for side in ("disabled", "enabled"):  # one ceiling rule for both paths
            field = f"{side}_overhead_pct"
            if field not in entry or field not in base:
                continue
            compared += 1
            ceiling = max(_GATE_OVERHEAD_SLACK, base[field] + _GATE_OVERHEAD_SLACK)
            current = entry[field]
            status = "ok" if current <= ceiling else "FAIL"
            print(
                f"  [check] {label}: {side} overhead {current:+.1f}% vs"
                f" baseline {base[field]:+.1f}% (ceiling {ceiling:.1f}%) {status}"
            )
            if current > ceiling:
                failures.append(
                    f"{label}: {side} overhead {current:.1f}% > {ceiling:.1f}%"
                )
    return failures, compared


def _scale_free(entry: dict) -> dict:
    """The gate-relevant scalars of one entry, for trajectory history."""
    keep = {"name": entry["name"], "n": entry["n"]}
    for field in ("speedup", "ratio_over_loop", "recall",
                  "disabled_overhead_pct", "enabled_overhead_pct",
                  "roofline_ratio"):
        if field in entry:
            keep[field] = round(entry[field], 4)
    return keep


def append_trajectory(payload: dict, path: pathlib.Path) -> int:
    """Append this run's scale-free summary to the history file."""
    history = {"schema": 1, "runs": []}
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (ValueError, OSError):
            print(f"[trajectory at {path} unreadable; starting fresh]",
                  file=sys.stderr)
    history.setdefault("runs", []).append({
        "unix_time": int(time.time()),
        "quick": payload["quick"],
        "python": payload["python"],
        "numpy": payload["numpy"],
        "machine": payload["machine"],
        "entries": [_scale_free(e) for e in payload["entries"]],
    })
    path.write_text(json.dumps(history, indent=2) + "\n")
    return len(history["runs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output path for the machine-readable results (default:"
             " BENCH_PERF.json, or BENCH_PERF.current.json under --check"
             " so the baseline being compared against is never clobbered)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare this run against the committed baseline and exit"
             " non-zero on a latency/recall regression",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=REPO_ROOT / "BENCH_PERF.json",
        help="baseline file for --check (default: committed BENCH_PERF.json)",
    )
    parser.add_argument(
        "--replay", type=pathlib.Path, default=None,
        help="re-compare a previous run's results file instead of"
             " re-running the benchmarks (no output/trajectory writes)",
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path,
        default=REPO_ROOT / "BENCH_TRAJECTORY.json",
        help="per-run history file appended to after each real run",
    )
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)

    if args.replay is not None:
        payload = json.loads(args.replay.read_text())
        print(f"[replaying {len(payload['entries'])} entries from {args.replay}]")
        if not args.check:
            print("--replay without --check has nothing to do", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        failures, compared = compare_to_baseline(payload["entries"], baseline)
        if compared == 0:
            print("CHECK FAILED: baseline has no comparable entries",
                  file=sys.stderr)
            return 1
        if failures:
            print("REGRESSIONS: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(f"[check ok: {compared} comparisons, no regressions]")
        return 0

    if args.quick:
        flat_n, ivf_n, sel_repeats = 100_000, 32_000, 5
        adc_n = 4_000
        recall_n = 4_000
    else:
        flat_n, ivf_n, sel_repeats = 500_000, 64_000, 10
        adc_n = 20_000
        recall_n = 16_000

    entries = []
    for name, n in (("flat_topk", flat_n), ("ivf_topk", ivf_n)):
        entry = bench_selection_topk(name, n, 10, sel_repeats, rng)
        entries.append(entry)
        print(f"{name:<20} n={n:>7,}  ref {entry['reference_s']*1e6:8.1f} us  "
              f"vec {entry['vectorized_s']*1e6:8.1f} us  {entry['speedup']:5.1f}x")
    entry = bench_ivfadc_scan(adc_n, rng)
    entries.append(entry)
    print(f"ivfadc_scan          n={entry['n']:>7,}  ref {entry['reference_s']*1e3:8.1f} ms  "
          f"vec {entry['vectorized_s']*1e3:8.1f} ms  {entry['speedup']:5.1f}x")
    obs_n, obs_q = (3_000, 100) if args.quick else (10_000, 200)
    entry = bench_observability_overhead(obs_n, obs_q, rng)
    entries.append(entry)
    print(f"observability        n={entry['n']:>7,}  raw {entry['raw_dispatch_s']*1e3:8.1f} ms  "
          f"off {entry['disabled_s']*1e3:8.1f} ms ({entry['disabled_overhead_pct']:+5.1f}%)  "
          f"on {entry['enabled_s']*1e3:8.1f} ms ({entry['enabled_overhead_pct']:+5.1f}%)")
    plan_n, plan_q = (3_000, 50) if args.quick else (10_000, 200)
    entry = bench_plan_cache(plan_n, plan_q, rng)
    entries.append(entry)
    print(f"plan_cache_dispatch  n={entry['n']:>7,}  ref {entry['reference_s']*1e3:8.1f} ms  "
          f"vec {entry['vectorized_s']*1e3:8.1f} ms  {entry['speedup']:5.1f}x")
    # Same sizes in quick and full mode on purpose: one committed
    # baseline entry gates CI's quick runs too.
    entry = bench_serving_coalesce(8_000, 64, rng)
    entries.append(entry)
    print(f"serving_coalesce     n={entry['n']:>7,}  loop {entry['loop_us_per_query']:6.1f} us/q  "
          f"batched {entry['batched_us_per_query']:6.1f} us/q  {entry['ratio_over_loop']:5.2f}x")
    # One size in quick and full mode, large enough that the matrix pass
    # (12.8 MB), not the interpreter's per-query overhead (~60 us), is what
    # the ratio measures: at 10k rows a second BLAS thread alone moves it
    # from 0.6x to 0.5x.
    entry = bench_table_scan_roofline(50_000, 100, rng)
    entries.append(entry)
    print(f"table_scan_roofline  n={entry['n']:>7,}  roof {entry['roofline_s']*1e3:7.1f} ms  "
          f"db {entry['db_search_s']*1e3:8.1f} ms  {entry['roofline_ratio']:5.2f}x of roofline")
    # Quality probes: deterministic, so any delta past float noise is a
    # code change.  Dedicated seeds keep them decoupled from the timing
    # benches above.
    for name, seed, factory in (
        ("recall_hnsw", 101,
         lambda score: HnswIndex(score, m=16, ef_search=48, seed=7)),
        ("recall_ivf", 202,
         lambda score: IvfFlatIndex(score, nlist=64, nprobe=4, seed=3)),
    ):
        entry = bench_recall_probe(name, recall_n, seed, factory)
        entries.append(entry)
        print(f"{name:<20} n={entry['n']:>7,}  recall@{entry['k']} ="
              f" {entry['recall']:.4f}")

    payload = {
        "schema": 2,
        "suite": "vectorized-kernels",
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "entries": entries,
    }
    out = args.out or (
        REPO_ROOT / ("BENCH_PERF.current.json" if args.check else "BENCH_PERF.json")
    )
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {out}]")
    runs = append_trajectory(payload, args.trajectory)
    print(f"[trajectory: run {runs} appended to {args.trajectory}]")

    if args.check:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError) as exc:
            print(f"CHECK FAILED: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 1
        failures, compared = compare_to_baseline(entries, baseline)
        if compared == 0:
            print("CHECK FAILED: baseline has no comparable entries",
                  file=sys.stderr)
            return 1
        if failures:
            print("REGRESSIONS: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(f"[check ok: {compared} comparisons, no regressions]")

    # Acceptance targets (full mode): >=2x flat/IVF top-k, >=3x blocked
    # FastScan over the per-cell float-table scan, and the coalesced
    # path no slower than the per-query loop it replaces.
    failures = []
    for e in entries:
        if e["name"] in ("flat_topk", "ivf_topk") and e["speedup"] < 2:
            failures.append(f"{e['name']}: {e['speedup']:.1f}x < 2x")
        if e["name"] == "ivfadc_scan" and e["speedup"] < 3:
            failures.append(f"{e['name']}: {e['speedup']:.1f}x < 3x")
        if e.get("ratio_over_loop", _GATE_BATCHED_FLOOR) < _GATE_BATCHED_FLOOR:
            failures.append(
                f"{e['name']}: {e['ratio_over_loop']:.2f}x its per-query loop"
                f" < {_GATE_BATCHED_FLOOR:.1f}x"
            )
    if failures and not args.quick:
        print("TARGETS MISSED: " + "; ".join(failures), file=sys.stderr)
        return 1
    # The no-op observability path must cost nothing measurable; checked
    # in quick mode too (CI smoke).  The 15% gate is generous to absorb
    # scheduler noise — the real overhead is a handful of no-op calls.
    for e in entries:
        if (e["name"] == "observability_overhead"
                and e["disabled_overhead_pct"] > 15.0):
            print(
                "NO-OP OVERHEAD TOO HIGH: disabled path"
                f" {e['disabled_overhead_pct']:.1f}% over raw dispatch (>15%)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
