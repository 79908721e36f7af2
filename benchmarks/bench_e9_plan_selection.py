"""E9 (§2.3 plan enumeration/selection): does the optimizer pick well?

Regenerates the comparison the tutorial frames qualitatively: across a
selectivity sweep, measure the *executed work* of every enumerated
plan, then score each selection policy (cost-based, rule-based, and the
two predefined single-plan systems) by how close its chosen plan's
work is to the per-query optimum ("regret").

Work is measured as the executed work counters — distance
computations, predicate evaluations, page reads — priced by the one
fitted work→time model (``WorkCostModel``, whose prices come from
``benchmarks/fit_work_cost.py``) without its fixed per-execution terms
and its per-node price, rather than as each run's wall clock, because
in a pure-Python substrate the vectorized brute-force kernel beats
per-node index traversal on raw latency at any scale a laptop holds (a
constant-factor artifact of the interpreter, not of the plans; see
DESIGN.md "Substitutions").  The papers' own optimizers [79, 84] compare
plans on exactly these operator-work aggregates.
"""

import dataclasses

import numpy as np
import pytest

from _util import emit
from repro.bench.reporting import format_table
from repro.core.cost import WorkCostModel
from repro.core.database import VectorDatabase
from repro.core.optimizer import CostBasedSelector, RuleBasedSelector
from repro.core.planner import QueryPlan
from repro.core.query import SearchQuery
from repro.hybrid.predicates import Field

SELECTIVITIES = (0.01, 0.1, 0.3, 0.7)


@pytest.fixture(scope="module")
def planned_db(hybrid_bench_dataset):
    ds = hybrid_bench_dataset
    n = len(ds.train)
    rank = np.random.default_rng(0).permutation(n) / n
    attrs = [{**a, "rank": float(rank[i])} for i, a in enumerate(ds.attributes)]
    db = VectorDatabase(dim=ds.dim, selector="cost")
    db.insert_many(ds.train, attrs)
    db.create_index("graph", "hnsw", m=12, ef_construction=80, seed=0)
    return db, ds


#: The fitted prices of the operator work the planner estimates —
#: distances, predicate evaluations, page reads — used both to score
#: executed plans and inside the cost-based selector, as in the papers'
#: linear models [79, 84].  Node visits are left unpriced: their fitted
#: price is the interpreter's per-hop cost, the constant-factor artifact
#: this experiment sets aside (see the module docstring).
WORK_MODEL = dataclasses.replace(WorkCostModel(), node_visit=0.0)


def _plan_work(db, ds, predicate):
    """Mean executed work (priced seconds) of every candidate plan."""
    candidates = [
        QueryPlan("pre_filter"),
        QueryPlan("block_first", "graph"),
        QueryPlan("post_filter", "graph"),
        QueryPlan("visit_first", "graph"),
    ]
    out = {}
    for plan in candidates:
        total = 0.0
        for q in ds.queries:
            result = db.search(q, k=10, predicate=predicate, plan=plan)
            total += WORK_MODEL.work_seconds(result.stats)
        out[plan.strategy] = total / len(ds.queries)
    return out


@pytest.fixture(scope="module")
def e9_table(planned_db):
    db, ds = planned_db
    rows = []
    selector_cost = CostBasedSelector(WORK_MODEL)
    selector_rule = RuleBasedSelector()
    for s in SELECTIVITIES:
        predicate = Field("rank") < s
        work = _plan_work(db, ds, predicate)
        best_strategy = min(work, key=work.get)
        best_units = work[best_strategy]

        enumerated = db.planner.enumerate(True, db.indexes, {}, predicate)
        n = len(db.collection)
        choices = {
            "cost_based": selector_cost.select(enumerated, db.indexes, n, 10, s),
            "rule_based": selector_rule.select(
                [QueryPlan(p.strategy, p.index_name) for p in enumerated],
                db.indexes, n, 10, s,
            ),
            "predef_postfilter": QueryPlan("post_filter", "graph"),
            "predef_prefilter": QueryPlan("pre_filter"),
        }
        row = {"selectivity": s, "best_plan": best_strategy,
               "best_work_us": round(best_units * 1e6, 1)}
        for name, plan in choices.items():
            row[f"{name}_regret"] = round(work[plan.strategy] / best_units, 2)
        rows.append(row)
    emit("e9_selection", format_table(
        rows, "E9: plan-selection regret (chosen work / best work, fitted prices)"
    ))
    return rows


def test_e9_crossover_exists(e9_table):
    """The best plan changes across the selectivity sweep — the premise
    of having an optimizer at all (§2.3)."""
    assert len({r["best_plan"] for r in e9_table}) >= 2


def test_e9_cost_based_tracks_best(e9_table):
    """Cost-based selection stays near optimal everywhere; each fixed
    single plan has a regime where it loses badly."""
    worst_cost = max(r["cost_based_regret"] for r in e9_table)
    worst_fixed = min(  # the better of the two fixed plans, at its worst
        max(r["predef_postfilter_regret"] for r in e9_table),
        max(r["predef_prefilter_regret"] for r in e9_table),
    )
    assert worst_cost <= worst_fixed


def test_e9_predefined_loses_somewhere(e9_table):
    assert max(r["predef_prefilter_regret"] for r in e9_table) > 1.5
    assert max(r["predef_postfilter_regret"] for r in e9_table) > 1.5


def test_e9_rule_based_reasonable(e9_table):
    assert max(r["rule_based_regret"] for r in e9_table) <= max(
        max(r["predef_postfilter_regret"] for r in e9_table),
        max(r["predef_prefilter_regret"] for r in e9_table),
    )


def test_bench_e9_optimize_and_execute(benchmark, planned_db, e9_table):
    db, ds = planned_db
    predicate = Field("rank") < 0.3
    q = ds.queries[0]
    benchmark(lambda: db.search(q, k=10, predicate=predicate))


def test_bench_e9_planning_overhead(benchmark, planned_db):
    db, ds = planned_db
    predicate = Field("rank") < 0.3
    query = SearchQuery(ds.queries[0], 10, predicate=predicate)
    benchmark(lambda: db.plan(query))
