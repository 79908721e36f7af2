"""Metamorphic relations as first-class, registry-driven checks.

A metamorphic relation (VDBMS testing roadmap, arXiv:2502.20812) links
two executions whose outputs must agree even when no ground truth is
known: permuting insertion order, decomposing a filter, widening a
rerank budget, re-sharding a collection, deleting rows, masking rows.
Each relation here is a named entry in :data:`RELATIONS` that any index from
:mod:`repro.index.registry` can be run against with seeded random
workloads; violations come back as rule-tagged
:class:`~repro.torture.reporting.TortureFinding`\\ s whose ``repro``
command replays exactly one (relation, index, seed) cell.

Adding a relation is one decorated function::

    @relation("my-relation", "what must hold and why")
    def _my_relation(index_name, seed, emit, check):
        ...
        check()                      # count one oracle evaluation
        emit("MR-MY-RELATION", "what diverged, with numbers")

``emit`` records a finding; ``check`` counts an oracle evaluation so a
green report proves the relation actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..hybrid.predicates import And, Comparison, Not, Or
from .reporting import TortureFinding, TortureReport
from .zoo import (
    EXACT_INDEXES,
    ORDER_OVERLAP_FLOOR,
    RERANKED,
    make_torture_index,
    recall_at_k,
    torture_dataset,
    torture_hybrid_dataset,
)

__all__ = ["RELATIONS", "Relation", "relation", "run_metamorphic"]


@dataclass(frozen=True)
class Relation:
    """One registered metamorphic relation."""

    name: str
    description: str
    fn: Callable

    def run(self, index_name: str, seed: int, report: TortureReport) -> None:
        def emit(rule: str, message: str) -> None:
            report.add(TortureFinding(
                rule=rule,
                pillar="metamorphic",
                subject=f"{self.name}:{index_name}",
                seed=seed,
                message=message,
                repro=(
                    f"torture --pillar metamorphic --relation {self.name} "
                    f"--index {index_name} --seed {seed}"
                ),
            ))

        def check(n: int = 1) -> None:
            report.count("metamorphic", n)

        self.fn(index_name, seed, emit, check)


RELATIONS: dict[str, Relation] = {}


def relation(name: str, description: str):
    """Register a metamorphic relation under ``name``."""

    def decorator(fn: Callable) -> Callable:
        RELATIONS[name] = Relation(name=name, description=description, fn=fn)
        return fn

    return decorator


def _mean_overlap(index_a, index_b, queries, k: int) -> float:
    overlaps = []
    for q in queries:
        ids_a = [h.id for h in index_a.search(q, k)]
        ids_b = [h.id for h in index_b.search(q, k)]
        denom = max(len(ids_a), len(ids_b), 1)
        overlaps.append(len(set(ids_a) & set(ids_b)) / denom)
    return float(np.mean(overlaps)) if overlaps else 1.0


def _order_floor(index_name: str) -> float:
    return ORDER_OVERLAP_FLOOR.get(index_name, 0.3)


# --------------------------------------------------------------- relations


@relation(
    "insert-order",
    "Building over a permutation of the same point set must answer "
    "(nearly) the same top-k: exact indexes identically, randomized "
    "builders above a per-index overlap floor.",
)
def _insert_order_invariance(index_name, seed, emit, check):
    ds = torture_dataset(seed)
    n = len(ds)
    ids = np.arange(n, dtype=np.int64)
    perm = np.random.default_rng(seed + 1).permutation(n)
    index_a = make_torture_index(index_name, seed=seed).build(ds.train, ids=ids)
    index_b = make_torture_index(index_name, seed=seed).build(
        ds.train[perm], ids=ids[perm]
    )
    overlap = _mean_overlap(index_a, index_b, ds.queries, k=10)
    check(len(ds.queries))
    floor = 1.0 if index_name in EXACT_INDEXES else _order_floor(index_name)
    if overlap < floor:
        emit(
            "MR-INSERT-ORDER",
            f"mean top-10 overlap {overlap:.3f} between two insertion "
            f"orders (floor {floor})",
        )


@relation(
    "filter-decomposition",
    "Predicate algebra must commute with search: the allowed-mask of a "
    "composite predicate equals the composition of its parts' masks, "
    "and searching under either mask returns identical hits — for "
    "every index, exactly.",
)
def _filter_decomposition(index_name, seed, emit, check):
    ds = torture_hybrid_dataset(seed)
    n = len(ds)
    columns = {
        "category": np.array([a["category"] for a in ds.attributes]),
        "rating": np.array([a["rating"] for a in ds.attributes]),
    }
    index = make_torture_index(index_name, seed=seed).build(
        ds.train, ids=np.arange(n, dtype=np.int64)
    )
    cat = Comparison("category", "==", 0)
    rat = Comparison("rating", ">=", 3)
    pairs = [
        (And(cat, rat), lambda: cat.evaluate(columns) & rat.evaluate(columns)),
        (Not(Or(cat, rat)),
         lambda: ~cat.evaluate(columns) & ~rat.evaluate(columns)),
    ]
    for composite, decomposed in pairs:
        mask_c = composite.evaluate(columns)
        mask_d = decomposed()
        check()
        if not np.array_equal(mask_c, mask_d):
            emit(
                "MR-FILTER-MASK",
                f"composite predicate mask differs from decomposed mask "
                f"({int(np.sum(mask_c != mask_d))} rows)",
            )
            continue
        for q in ds.queries:
            hits_c = index.search(q, 10, allowed=mask_c)
            hits_d = index.search(q, 10, allowed=mask_d)
            check()
            if [h.id for h in hits_c] != [h.id for h in hits_d]:
                emit(
                    "MR-FILTER-SEARCH",
                    "identical allowed-masks produced different hits "
                    f"(composite {[h.id for h in hits_c]} vs decomposed "
                    f"{[h.id for h in hits_d]})",
                )
                break


@relation(
    "quantization-monotonicity",
    "Widening a quantized index's exact-rerank budget must not reduce "
    "recall (same codes, strictly more candidates re-scored exactly).",
)
def _quantization_monotonicity(index_name, seed, emit, check):
    budgets = RERANKED.get(index_name)
    if budgets is None:
        return  # not a reranked quantizer — relation does not apply
    narrow, wide = budgets
    ds = torture_dataset(seed)
    ids = np.arange(len(ds), dtype=np.int64)
    truth = make_torture_index("flat").build(ds.train, ids=ids)
    low = make_torture_index(index_name, seed=seed, rerank=narrow).build(
        ds.train, ids=ids
    )
    high = make_torture_index(index_name, seed=seed, rerank=wide).build(
        ds.train, ids=ids
    )
    recalls = {"narrow": [], "wide": []}
    for q in ds.queries:
        truth_ids = [h.id for h in truth.search(q, 10)]
        recalls["narrow"].append(
            recall_at_k([h.id for h in low.search(q, 10)], truth_ids)
        )
        recalls["wide"].append(
            recall_at_k([h.id for h in high.search(q, 10)], truth_ids)
        )
    check(len(ds.queries))
    mean_narrow = float(np.mean(recalls["narrow"]))
    mean_wide = float(np.mean(recalls["wide"]))
    if mean_wide < mean_narrow - 0.05:
        emit(
            "MR-QUANT-MONOTONE",
            f"recall@10 dropped when widening rerank {narrow}->{wide}: "
            f"{mean_narrow:.3f} -> {mean_wide:.3f}",
        )


@relation(
    "shard-invariance",
    "Partitioning the collection across shards and merging per-shard "
    "top-k must preserve the answer: exactly for exact indexes, above "
    "an overlap floor for approximate ones (per-shard builds see "
    "different subsets).",
)
def _shard_count_invariance(index_name, seed, emit, check):
    from ..distributed.cluster import DistributedSearchCluster
    from ..distributed.shard import UniformSharding
    from .zoo import SHARD_OVERLAP_FLOOR, build_kwargs

    ds = torture_dataset(seed)
    kwargs = build_kwargs(index_name)
    clusters = {
        shards: DistributedSearchCluster(
            sharding=UniformSharding(shards), index_type=index_name, **kwargs
        )
        for shards in (1, 3)
    }
    for cluster in clusters.values():
        cluster.load(ds.train)
    overlaps = []
    for q in ds.queries:
        merged = {
            shards: cluster.search(q, 10)[0].ids
            for shards, cluster in clusters.items()
        }
        check()
        if index_name in EXACT_INDEXES:
            if merged[1] != merged[3]:
                emit(
                    "MR-SHARD-EXACT",
                    f"exact index answers differ across shard counts: "
                    f"1-shard {merged[1]} vs 3-shard {merged[3]}",
                )
                return
        else:
            denom = max(len(merged[1]), len(merged[3]), 1)
            overlaps.append(len(set(merged[1]) & set(merged[3])) / denom)
    if overlaps:
        overlap = float(np.mean(overlaps))
        floor = SHARD_OVERLAP_FLOOR.get(
            index_name, max(_order_floor(index_name) - 0.1, 0.2)
        )
        if overlap < floor:
            emit(
                "MR-SHARD-OVERLAP",
                f"mean top-10 overlap {overlap:.3f} between 1-shard and "
                f"3-shard merges (floor {floor})",
            )


@relation(
    "delete-liveness",
    "A deleted row must never surface again: searches under the "
    "liveness mask exclude tombstoned ids for every index and every "
    "query — no tolerance.",
)
def _delete_then_query_liveness(index_name, seed, emit, check):
    ds = torture_dataset(seed)
    n = len(ds)
    ids = np.arange(n, dtype=np.int64)
    index = make_torture_index(index_name, seed=seed).build(ds.train, ids=ids)
    rng = np.random.default_rng(seed + 2)
    deleted = set(int(i) for i in rng.choice(n, size=n // 8, replace=False))
    alive = np.ones(n, dtype=bool)
    alive[sorted(deleted)] = False
    for q in ds.queries:
        hits = index.search(q, 10, allowed=alive)
        check()
        leaked = [h.id for h in hits if h.id in deleted]
        if leaked:
            emit(
                "MR-DELETE-LIVENESS",
                f"deleted ids {leaked} returned by a masked search",
            )
            return


@relation(
    "score-scale",
    "Uniformly scaling every vector and the query by a positive "
    "constant preserves the l2 ranking; indexes built on scaled data "
    "must answer (nearly) the same top-k.",
)
def _score_scale_invariance(index_name, seed, emit, check):
    ds = torture_dataset(seed)
    ids = np.arange(len(ds), dtype=np.int64)
    scale = 2.5
    index_a = make_torture_index(index_name, seed=seed).build(ds.train, ids=ids)
    index_b = make_torture_index(index_name, seed=seed).build(
        (ds.train * scale).astype(ds.train.dtype), ids=ids
    )
    overlaps = []
    for q in ds.queries:
        ids_a = [h.id for h in index_a.search(q, 10)]
        ids_b = [h.id for h in index_b.search(
            (q * scale).astype(q.dtype), 10
        )]
        check()
        if index_name in EXACT_INDEXES:
            if ids_a != ids_b:
                emit(
                    "MR-SCORE-SCALE",
                    f"exact index ranking changed under uniform scaling: "
                    f"{ids_a} vs {ids_b}",
                )
                return
        else:
            denom = max(len(ids_a), len(ids_b), 1)
            overlaps.append(len(set(ids_a) & set(ids_b)) / denom)
    if overlaps:
        overlap = float(np.mean(overlaps))
        floor = _order_floor(index_name)
        if overlap < floor:
            emit(
                "MR-SCORE-SCALE",
                f"mean top-10 overlap {overlap:.3f} under uniform scaling "
                f"(floor {floor})",
            )


@relation(
    "mask-fill",
    "A masked search never comes back short: it returns min(k, allowed "
    "rows among the index's candidates) hits, the candidates being what "
    "the unmasked search ranks at k = n.  Strict for the flat / table / "
    "tree families, which mask before any shortlist; a graph traversal "
    "reaches allowed rows only through the rows it visits, so graphs are "
    "exempt by construction.",
)
def _mask_fill(index_name, seed, emit, check):
    ds = torture_dataset(seed)
    n = len(ds)
    index = make_torture_index(index_name, seed=seed).build(
        ds.train, ids=np.arange(n, dtype=np.int64)
    )
    if index.family == "graph":
        return  # exempt: no candidate set to fill from
    allowed = np.random.default_rng(seed + 3).random(n) < 0.08
    for q in ds.queries:
        candidates = [h.id for h in index.search(q, n)]
        expected = min(10, int(allowed[candidates].sum()))
        hits = index.search(q, 10, allowed=allowed)
        check()
        if len(hits) != expected:
            emit(
                "MR-MASK-FILL",
                f"masked search returned {len(hits)} hits where {expected} of "
                f"its {len(candidates)} candidates are allowed",
            )
            return


# ------------------------------------------------------------------ runner


def run_metamorphic(
    index_names,
    seed: int,
    depth: str = "smoke",
    relations=None,
) -> TortureReport:
    """Run (relations × indexes × seeds) and collect findings.

    Smoke depth runs every cell once at the base seed; nightly depth
    re-runs every cell at three derived seeds.
    """
    report = TortureReport(depth=depth, seed=seed)
    seeds = [seed] if depth == "smoke" else [seed, seed + 1000, seed + 2000]
    names = relations if relations else sorted(RELATIONS)
    for rel_name in names:
        rel = RELATIONS[rel_name]
        for index_name in index_names:
            for cell_seed in seeds:
                rel.run(index_name, cell_seed, report)
    return report
