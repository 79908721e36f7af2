"""Fit the one work→time model's prices from measured ``db.search`` time.

``repro.core.cost.WorkCostModel`` prices the work counters a query
charges plus a few fixed events, in seconds; the planner, the serving
front door and the simulated cluster all read it.  This script is where
its default prices come from:

1. Three seeded databases — a ``hybrid_ivf``-shaped 20 000-row IVF with
   a partitioned IVF and five predicate classes, a 2 000-row HNSW and an
   8 000-row SPANN (page reads), each with the same predicate classes —
   run every query under every plan the planner enumerates for it; each
   (plan, query) is timed as the minimum of three ``db.search`` calls.
2. ``WorkCostModel.fit`` solves the counter prices and one fixed
   execution price per strategy by non-negative least squares on the
   fit seed's (stats, seconds) pairs.
3. The remaining fixed events are timed directly: a coalesced member
   (the slope of ``execute_coalesced`` wall over group size, after the
   fitted prices), a plan-cache miss (a cold ``db.plan`` minus a warm
   one), a result-cache hit (key + lookup) and a merged hit
   (``Hits.merge`` per hit).
4. The relative error of the fitted model is reported per (database,
   strategy) cell on a held-out seed.

Prices are rounded to four significant digits and written to
``results/work_cost.json`` with the residuals and the BLAS fingerprint;
the script prints the same prices as the literal to paste as the
``WorkCostModel`` defaults (a tier-1 test holds the two equal).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python benchmarks/fit_work_cost.py
    PYTHONPATH=src python benchmarks/fit_work_cost.py --check

``--check`` asserts the defaults equal the artifact, refits a small
smoke set (asserting only that its prices are finite and non-negative:
no timing gate; it prints the refit distance price), and replays a
``serving_frontdoor``-shaped trace: for every executed request (not the
cache hits) it prints the simulated service seconds (its batch's service
over the batch size) beside that request's replayed ``db.search`` wall,
then both medians.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

from repro import Field, SearchQuery, VectorDatabase, WorkCostModel
from repro.core.cost import COUNTER_PRICES
from repro.core.types import Hits
from repro.serving import (
    QueryResultCache,
    ServingFrontDoor,
    ServingRequest,
    TenantSpec,
    TrafficGenerator,
    execute_coalesced,
    result_cache_key,
)
from repro.serving.frontdoor import batch_service_seconds

ARTIFACT = pathlib.Path(__file__).parent / "results" / "work_cost.json"
DIM = 64
K = 10
CLUSTERS = 64
CATEGORIES = 20
FIT_SEED, HOLDOUT_SEED = 0, 1


def clustered(rng, n: int, centers: np.ndarray) -> np.ndarray:
    labels = rng.integers(len(centers), size=n)
    rows = centers[labels] + rng.standard_normal((n, centers.shape[1]))
    return rows.astype(np.float32)


def attributes(rng, n: int) -> list[dict]:
    category = rng.integers(CATEGORIES, size=n)
    price = np.round(rng.lognormal(3.0, 0.7, size=n), 2)
    rating = rng.integers(1, 6, size=n)
    return [
        {"category": int(c), "price": float(p), "rating": int(r)}
        for c, p, r in zip(category, price, rating)
    ]


def predicate_class(rng, i: int):
    """``hybrid_ivf``'s five classes in equal shares: none, a category,
    a rating bound, both, and a fresh price threshold."""
    kind = i % 5
    category = int(rng.integers(CATEGORIES))
    if kind == 0:
        return None
    if kind == 1:
        return Field("category") == category
    if kind == 2:
        return Field("rating") <= 3
    if kind == 3:
        return (Field("category") == category) & (
            Field("rating") == int(rng.integers(1, 6)))
    return Field("price") > float(rng.uniform(5.0, 60.0))


def databases(seed: int, scale: float = 1.0):
    """(name, db, queries, predicates) for the three fit databases,
    their rows and queries shrunk by ``scale`` for the smoke refit."""
    shapes = (
        ("ivf", 20_000, 400, lambda db: (
            db.create_index("ivf", "ivf_flat", nlist=128),
            db.create_partitioned_index(
                "by_category", "ivf_flat", "category", nlist=16),
        )),
        ("hnsw", 2_000, 200, lambda db: db.create_index(
            "hnsw", "hnsw", m=16, ef_construction=100, seed=0)),
        ("spann", 8_000, 200, lambda db: db.create_index("spann", "spann")),
    )
    for offset, (name, n, queries, build) in enumerate(shapes):
        rng = np.random.default_rng([seed, offset])
        centers = rng.standard_normal((CLUSTERS, DIM))
        db = VectorDatabase(dim=DIM, selector="cost")
        db.insert_many(
            clustered(rng, max(200, int(n * scale)), centers),
            attributes(rng, max(200, int(n * scale))),
        )
        build(db)
        count = max(10, int(queries * scale))
        vectors = clustered(rng, count, centers)
        predicates = [predicate_class(rng, i) for i in range(count)]
        yield name, db, vectors, predicates


def timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def observations(seed: int, scale: float = 1.0):
    """(database name, strategy, stats, seconds) of every enumerated
    plan of every query, plus the seed's databases for the direct
    measurements."""
    out, dbs = [], {}
    for name, db, vectors, predicates in databases(seed, scale):
        dbs[name] = (db, vectors, predicates)
        for vector, predicate in zip(vectors, predicates):
            plans = db.planner.enumerate(
                predicate is not None, db.indexes, db.partitioned,
                predicate,
            )
            for plan in plans:
                result = db.search(vector, K, predicate=predicate, plan=plan)
                seconds = timed(
                    lambda: db.search(vector, K, predicate=predicate, plan=plan))
                out.append((name, plan.strategy, result.stats, seconds))
    return out, dbs


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"n": len(values), "median": round(float(median), 3),
            "q1": round(float(q1), 3), "q3": round(float(q3), 3)}


def residuals(model: WorkCostModel, observed) -> dict:
    """Relative error (predicted − measured) / measured per cell."""
    cells: dict[str, list[float]] = {}
    for name, strategy, stats, seconds in observed:
        key = f"{name}/{strategy}"
        predicted = model.execution_seconds(strategy, stats)
        cells.setdefault(key, []).append((predicted - seconds) / seconds)
    return {key: quartiles(v) for key, v in sorted(cells.items())}


def member_seconds(model: WorkCostModel, db, vectors) -> float:
    """Slope of coalesced-group wall over group size, once the fitted
    execution and work prices are taken off (unfiltered groups)."""
    sizes, extra = [], []
    for n in (1, 2, 4, 8, 16):
        for start in range(0, 8 * n, n):
            group = [ServingRequest("fit", v, K)
                     for v in vectors[start % len(vectors):][:n]]
            _, stats, _, strategy = execute_coalesced(db, group)
            wall = timed(lambda: execute_coalesced(db, group))
            sizes.append(len(group) - 1)
            extra.append(wall - batch_service_seconds(
                dataclasses.replace(model, member=0.0), stats, strategy))
    slope = np.polyfit(sizes, extra, 1)[0]
    return max(0.0, float(slope))


def plan_miss_seconds(db, vectors, predicates) -> float:
    """A cold ``db.plan`` (empty plan cache) minus a warm one."""
    gaps = []
    for vector, predicate in zip(vectors, predicates):
        query = SearchQuery(vector, K, predicate=predicate)

        def cold():
            db.plan_cache.clear()
            db.plan(query)

        gaps.append(timed(cold) - timed(lambda: db.plan(query)))
    return max(0.0, statistics.median(gaps))


def cache_hit_seconds(db, vectors) -> float:
    """Key a request and find its answer in a result cache."""
    cache = QueryResultCache(len(vectors))
    generation = db.collection.generation
    for vector in vectors:
        cache.put(result_cache_key(generation, vector, K, None, {}), Hits.EMPTY)
    return statistics.median(
        timed(lambda: cache.get(
            result_cache_key(generation, vector, K, None, {})))
        for vector in vectors
    )


def merged_hit_seconds(rng) -> float:
    """``Hits.merge`` of four shards' top-k, per merged hit."""
    walls = []
    for _ in range(50):
        parts = [
            Hits(rng.integers(0, 10**6, K), np.sort(rng.random(K)))
            for _ in range(4)
        ]
        walls.append(timed(lambda: Hits.merge(parts, K)) / K)
    return statistics.median(walls)


def rounded(model: WorkCostModel) -> WorkCostModel:
    def r(x: float) -> float:
        return float(f"{x:.4g}")

    return dataclasses.replace(
        model,
        execution={s: r(v) for s, v in sorted(model.execution.items())},
        **{f.name: r(getattr(model, f.name))
           for f in dataclasses.fields(model) if f.name != "execution"},
    )


def prices_of(model: WorkCostModel) -> dict:
    return {f.name: (dict(getattr(model, f.name)) if f.name == "execution"
                     else getattr(model, f.name))
            for f in dataclasses.fields(model)}


def blas_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def fitted(observed) -> WorkCostModel:
    """``WorkCostModel.fit`` over timed (database, strategy, stats,
    seconds) observations."""
    _, strategies, stats, seconds = zip(*observed)
    return WorkCostModel().fit(strategies, stats, seconds)


def fit() -> None:
    fit_obs, dbs = observations(FIT_SEED)
    model = fitted(fit_obs)
    ivf, vectors, predicates = dbs["ivf"]
    model = dataclasses.replace(
        model,
        member=member_seconds(model, ivf, vectors),
        plan_miss=plan_miss_seconds(ivf, vectors[:100], predicates[:100]),
        cache_hit=cache_hit_seconds(ivf, vectors[:100]),
        merged_hit=merged_hit_seconds(np.random.default_rng(FIT_SEED)),
    )
    model = rounded(model)
    held_out, _ = observations(HOLDOUT_SEED)
    doc = {
        "description": (
            "Prices (seconds) of repro.core.cost.WorkCostModel, fitted by"
            " benchmarks/fit_work_cost.py; residuals are the relative error"
            " (predicted - measured) / measured of one db.search under each"
            " enumerated plan, per (database, strategy), on the held-out seed."
        ),
        "fit_seed": FIT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "observations": {"fit": len(fit_obs), "holdout": len(held_out)},
        "prices": prices_of(model),
        "holdout_relative_error": residuals(model, held_out),
        "fit_relative_error": residuals(model, fit_obs),
        "platform": blas_fingerprint(),
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["holdout_relative_error"], indent=1))
    print(f"written to {ARTIFACT}\n\nWorkCostModel defaults:")
    for name, value in prices_of(model).items():
        print(f"    {name} = {value!r}")


def frontdoor_replay() -> tuple[float, float]:
    """A ``serving_frontdoor``-shaped trace through the door, then each
    executed request replayed through ``db.search``."""
    rng = np.random.default_rng([0, 4])
    centers = rng.standard_normal((CLUSTERS, DIM))
    db = VectorDatabase(dim=DIM)
    db.insert_many(clustered(rng, 20_000, centers))
    db.create_index("ivf", "ivf_flat", nlist=128)
    tenants = ("tenant0", "tenant1", "tenant2", "tenant3")
    trace = TrafficGenerator(
        tenants, DIM, rate=1500.0, seed=0, query_pool=64,
        fresh_fraction=0.25, k=K,
    ).generate(2.5)
    for request in trace:  # onto a data cluster, repeats kept equal
        pick = int(abs(float(request.vector[0])) * 2 ** 20) % CLUSTERS
        request.vector = (centers[pick] + request.vector).astype(np.float32)
    door = ServingFrontDoor(
        db, [TenantSpec(t, qps=5000.0, burst=1000.0, max_inflight=16,
                        max_queue=100_000) for t in tenants],
        workers=2, coalesce_max=16,
    )
    responses = door.run(trace)
    executed = [r for r in responses if r.status == "ok"]
    print(f"front-door replay: {len(responses)} responses,"
          f" {len(responses) - len(executed)} cache hits / refused,"
          f" {len(executed)} executed")
    print(f"{'request':>7}  {'batch':>5}  {'sim_us':>8}  {'wall_us':>8}")
    sim, wall = [], []
    for i, r in enumerate(executed):
        db.search(r.request.vector, K)  # warm: the door already planned it
        sim.append(r.service_seconds / r.batch_size)
        wall.append(timed(lambda: db.search(r.request.vector, K)))
        print(f"{i:>7}  {r.batch_size:>5}  {sim[-1] * 1e6:8.1f}"
              f"  {wall[-1] * 1e6:8.1f}")
    return statistics.median(sim), statistics.median(wall)


def check() -> int:
    doc = json.loads(ARTIFACT.read_text())
    failures = []
    if WorkCostModel() != WorkCostModel(**doc["prices"]):
        failures.append("WorkCostModel() defaults differ from the artifact")
    observed, _ = observations(FIT_SEED, scale=0.05)
    refit = fitted(observed)
    print(f"refit smoke over {len(observed)} timed plans: {refit}")
    print(f"refit distance price: {refit.distance:.4g} s")
    strategies = {strategy for _, strategy, _, _ in observed}
    prices = [getattr(refit, name) for name in COUNTER_PRICES]
    prices += [refit.execution[strategy] for strategy in strategies]
    if not all(np.isfinite(prices)) or min(prices) < 0:
        failures.append("the smoke refit returned a negative or non-finite price")
    sim, wall = frontdoor_replay()
    print(f"median simulated service {sim * 1e6:.1f} us per executed request;"
          f" median replayed db.search wall {wall * 1e6:.1f} us"
          f" (ratio {sim / wall:.2f})")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="defaults == artifact, refit smoke, door replay")
    args = parser.parse_args()
    if args.check:
        return check()
    fit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
