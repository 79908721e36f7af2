"""Plan selection (§2.3): rule-based and cost-based selectors.

* :class:`RuleBasedSelector` — Qdrant/Vespa style [3, 4]: thresholds on
  the estimated predicate selectivity decide pre-filter vs post-filter
  vs single-stage scanning.  Cheap, and close to optimal when the
  thresholds sit near the true crossovers (bench E9 checks this).
* :class:`CostBasedSelector` — AnalyticDB-V/Milvus style [6, 79, 84]:
  price every enumerated plan's estimated work with the one linear
  :class:`~repro.core.cost.WorkCostModel` and take the minimum.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Any, Sequence

from .cost import WorkCostModel
from .errors import PlanningError
from .planner import QueryPlan


class PlanSelector:
    """Interface: pick one plan from the enumerated candidates.

    ``span`` (optional, trailing) is an observability
    :class:`~repro.observability.tracing.Span`; selectors record one
    ``candidate`` event per considered plan and a ``chosen`` event for
    the winner so EXPLAIN ANALYZE can show *why* a plan won.
    ``tail_rows`` (optional, aligned with ``plans``) is how many rows were
    written since each plan's index was built — exact-scan work the
    executor adds to that plan, which a cost-based choice must price.
    """

    def select(
        self,
        plans: list[QueryPlan],
        indexes: dict[str, Any],
        n: int,
        k: int,
        selectivity: float,
        span: Any = None,
        tail_rows: Sequence[int] = (),
    ) -> QueryPlan:
        raise NotImplementedError


class FirstPlanSelector(PlanSelector):
    """Take the only/first plan (pairs with :class:`PredefinedPlanner`)."""

    def select(self, plans, indexes, n, k, selectivity, span=None, tail_rows=()):
        if not plans:
            raise PlanningError("no plans to select from")
        if span is not None:
            span.event("chosen", plan=plans[0].describe(), rule="first")
        return plans[0]


class RuleBasedSelector(PlanSelector):
    """Selectivity-threshold rules.

    * s < ``prefilter_below`` -> pre-filter (few survivors; exact scan of
      them is cheapest and guarantees k results).
    * s > ``postfilter_above`` -> post-filter (filter rarely rejects, so
      plain index speed wins).
    * otherwise -> single-stage (visit-first on a graph index when
      available, else block-first).
    """

    def __init__(self, prefilter_below: float = 0.01, postfilter_above: float = 0.5):
        if not 0 <= prefilter_below <= postfilter_above <= 1:
            raise PlanningError("thresholds must satisfy 0<=low<=high<=1")
        self.prefilter_below = prefilter_below
        self.postfilter_above = postfilter_above

    @staticmethod
    def _pick(plans: list[QueryPlan], *strategies: str) -> QueryPlan | None:
        for strategy in strategies:
            for plan in plans:
                if plan.strategy == strategy:
                    return plan
        return None

    def select(self, plans, indexes, n, k, selectivity, span=None, tail_rows=()):
        if not plans:
            raise PlanningError("no plans to select from")
        if len(plans) == 1:
            chosen = plans[0]
        elif plans[0].strategy in ("brute_force", "index_scan"):
            # Non-hybrid: prefer any index over brute force.
            chosen = self._pick(plans, "index_scan") or plans[0]
        else:
            if selectivity < self.prefilter_below:
                chosen = self._pick(plans, "partition", "pre_filter")
            elif selectivity > self.postfilter_above:
                chosen = self._pick(plans, "post_filter")
            else:
                chosen = self._pick(
                    plans, "partition", "visit_first", "block_first"
                )
            if chosen is None:
                chosen = plans[0]
        if chosen.strategy == "post_filter" and chosen.oversample is None:
            chosen.oversample = max(1.0, 1.0 / max(selectivity, 1e-6))
        if span is not None:
            for plan in plans:
                span.event("candidate", plan=plan.describe())
            span.event(
                "chosen",
                plan=chosen.describe(),
                rule="selectivity_threshold",
                selectivity=round(float(selectivity), 6),
            )
        return chosen


class CostBasedSelector(PlanSelector):
    """Minimum-estimated-cost selection through :class:`WorkCostModel`."""

    def __init__(self, cost_model: WorkCostModel | None = None):
        self.cost_model = cost_model or WorkCostModel()

    def select(self, plans, indexes, n, k, selectivity, span=None, tail_rows=()):
        if not plans:
            raise PlanningError("no plans to select from")
        best: QueryPlan | None = None
        for plan, tail in zip_longest(plans, tail_rows, fillvalue=0):
            if plan.strategy == "post_filter" and plan.oversample is None:
                plan.oversample = max(1.0, 1.0 / max(selectivity, 1e-6))
            index = indexes.get(plan.index_name) if plan.index_name else None
            plan.estimated_cost = self.cost_model.estimate(
                plan, index, n, k, selectivity, tail_rows=tail
            )
            if span is not None:
                span.event(
                    "candidate",
                    plan=plan.describe(),
                    cost_us=round(float(plan.estimated_cost) * 1e6, 3),
                )
            if best is None or plan.estimated_cost < best.estimated_cost:
                best = plan
        if span is not None:
            span.event(
                "chosen",
                plan=best.describe(),
                rule="min_cost",
                selectivity=round(float(selectivity), 6),
            )
        return best
