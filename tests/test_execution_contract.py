"""The execution contract: every query kind, under every strategy, runs
plan → frame → resolve → body through one path.

* kind × strategy × {observability off, on}: identical ids either way;
  with it on, exactly one ``record_query`` per execution (per member on
  per-member batches, one for a shared-scan batch) under exactly one
  root span; ``explain_analyze`` attributes every strategy exactly.
* The regression tests of the defects the seven hand-copied paths had
  drifted into: a deleted id surfacing through ``partition``; the
  planner's own ``partition`` choice crashing range / multi-vector
  queries; caller params and the shared bitmask's cost dropped outside
  ``_dispatch``; the empty batch; API batches the auditor never saw.
* One more axis, "written since the build": after an insert, a bulk
  insert, a vector update and a delete, every plan the planner
  enumerates and every explicit plan over each index answers every kind
  with the written row — the index for the rows it was built on, the
  exact scan of its tail for the rest.
"""

import copy

import numpy as np
import pytest

from repro import Field, Observability, VectorDatabase
from repro.core.planner import STRATEGIES, QueryPlan
from repro.core.query import SearchQuery
from repro.observability import STAT_FIELDS
from repro.observability.profiler import QueryProfile, build_profile_tree
from repro.serving import ServingRequest, execute_coalesced

N, DIM, K, RADIUS = 400, 12, 5, 4.4
PREDICATE = Field("g") == 1
KINDS = ("search", "range", "batch", "multivector")
PLANS = {
    "brute_force": QueryPlan("brute_force"),
    "index_scan": QueryPlan("index_scan", "flat"),
    "pre_filter": QueryPlan("pre_filter"),
    "block_first": QueryPlan("block_first", "flat"),
    "post_filter": QueryPlan("post_filter", "flat", oversample=8.0),
    "visit_first": QueryPlan("visit_first", "graph"),
    "partition": QueryPlan("partition", "byg"),
}
#: Plans whose batch is one shared scan, recorded once for the batch.
SHARED_SCAN = ("brute_force", "pre_filter")


@pytest.fixture(scope="module")
def template() -> tuple[VectorDatabase, np.ndarray]:
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((N, DIM)).astype(np.float32)
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows, [{"g": i % 8} for i in range(N)])
    db.create_index("flat", "flat")
    db.create_index("graph", "hnsw", m=8, seed=0)
    db.create_partitioned_index("byg", "flat", "g")
    return db, rows


@pytest.fixture()
def make_db(template):
    """Fresh copies of one built database (a test may delete from its own)."""
    def make(observability=None) -> tuple[VectorDatabase, np.ndarray]:
        db = copy.deepcopy(template[0])
        db.set_observability(observability)
        return db, template[1]
    return make


def run(db, kind, vectors, plan=None, predicate=PREDICATE, **params):
    """One execution of ``kind``; the answers as a list of id lists."""
    common = dict(predicate=predicate, plan=plan, **params)
    if kind == "search":
        return [db.search(vectors[0], k=K, **common).ids]
    if kind == "range":
        return [db.range_search(vectors[0], radius=RADIUS, **common).ids]
    if kind == "batch":
        return [r.ids for r in db.batch_search(vectors, k=K, **common)]
    return [db.multi_vector_search(vectors[:2], k=K, **common).ids]


def oracle(rows, alive, query, predicate=True):
    """Ascending (distance, id) over the live rows passing the predicate."""
    keep = alive & (np.arange(N) % 8 == 1 if predicate else True)
    dists = np.linalg.norm(rows - query, axis=1)
    return [int(i) for i in np.argsort(dists, kind="stable") if keep[i]], dists


# ----------------------------------------------------- kind × strategy × obs


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", KINDS)
def test_same_answer_one_record_one_root(kind, strategy, make_db):
    plain, rows = make_db()
    obs = Observability()
    watched, _ = make_db(obs)
    records = []
    rollup = obs.record_query
    obs.record_query = lambda k, s, stats, **kw: (
        records.append((k, s)), rollup(k, s, stats, **kw))
    vectors = rows[40:44] + 0.05
    expected = run(plain, kind, vectors, PLANS[strategy])
    assert run(watched, kind, vectors, PLANS[strategy]) == expected
    assert all(expected), "every answer is non-empty"
    per_member = kind == "batch" and strategy not in SHARED_SCAN
    assert records == [(kind, strategy)] * (len(vectors) if per_member else 1)
    roots = obs.tracer.roots()
    assert [r.name for r in roots] == ["batch" if kind == "batch" else "query"]
    assert roots[0].attributes["kind"] == kind
    assert roots[0].attributes["strategy"] == strategy
    members = [s for s in obs.tracer.spans if s.parent_id == roots[0].span_id
               and s.name == "query"]
    assert len(members) == (len(vectors) if per_member else 0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_multivector_without_candidates_still_answers_through_the_frame(
    strategy, make_db
):
    obs = Observability()
    db, rows = make_db(obs)
    result = db.multi_vector_search(
        rows[:2], k=K, predicate=Field("g") == 99, plan=PLANS[strategy])
    assert result.hits == [] and result.ids == []
    assert result.stats.plan_name.startswith("multivector:")
    (root,) = obs.tracer.roots()
    assert root.attributes["hits"] == 0
    queries = obs.metrics.counter("vdbms_queries_total", "")
    assert queries.value(kind="multivector", strategy=strategy) == 1


def test_multi_score_runs_in_the_frame(make_db):
    obs = Observability(slow_query_seconds=0.0)
    db, rows = make_db(obs)
    out = db.multi_score_search(rows[3], k=K, scores=["l2", "cosine"])
    plain = make_db()[0].multi_score_search(rows[3], k=K, scores=["l2", "cosine"])
    assert {n: r.ids for n, r in out.items()} == {n: r.ids for n, r in plain.items()}
    assert [r.stats.plan_name for r in out.values()] == [
        "multi_score:l2", "multi_score:cosine"]
    queries = obs.metrics.counter("vdbms_queries_total", "")
    assert queries.value(kind="multi_score", strategy="brute_force") == 2
    assert [r.attributes["kind"] for r in obs.tracer.roots()] == ["multi_score"] * 2
    assert obs.slow_log.recorded == 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_explain_analyze_attributes_every_strategy_exactly(strategy, make_db):
    db, rows = make_db()
    profile = db.explain_analyze(
        vector=rows[7], k=K, predicate=PREDICATE, plan=PLANS[strategy])
    assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
    for f in STAT_FIELDS:
        assert profile.root.stats_total[f] == getattr(profile.result.stats, f)


# ------------------------------------------------- regression: deleted rows


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", KINDS)
def test_deleted_id_never_surfaces(kind, strategy, make_db):
    db, rows = make_db()
    victims = [9, 17, 25]  # g == 1: each is its own query's nearest row
    vectors = rows[victims]
    before = run(db, kind, vectors, PLANS[strategy])
    assert victims[0] in before[0], "the victim answers until it is deleted"
    for victim in victims:
        db.delete(victim)
    after = run(db, kind, vectors, PLANS[strategy])
    assert all(after)
    assert not set(victims) & {i for ids in after for i in ids}


def test_deleted_id_never_surfaces_in_multi_score_or_the_planners_choice(make_db):
    db, rows = make_db()
    chosen = db.search(rows[9], k=K, predicate=PREDICATE).stats.plan_name
    assert chosen.startswith("partition")
    db.delete(9)
    assert db.search(rows[9], k=K, predicate=PREDICATE).stats.plan_name.startswith(
        "partition")
    for kind in KINDS:
        assert 9 not in run(db, kind, rows[[9, 17]])[0]
        assert 9 not in run(db, kind, rows[[9, 17]], predicate=None)[0]
    for result in db.multi_score_search(rows[9], k=K).values():
        assert 9 not in result.ids


def test_partition_mask_costs_nothing_until_a_row_is_deleted(make_db):
    db, rows = make_db()
    plan = PLANS["partition"]
    clean = db.search(rows[9], k=K, predicate=PREDICATE, plan=plan).stats
    assert clean.predicate_evaluations == 0
    db.delete(17)
    masked = db.search(rows[9], k=K, predicate=PREDICATE, plan=plan).stats
    # Charged as VectorIndex._brute_force charges any mask: once per
    # candidate row of the scanned partition, one rejection per tombstone.
    assert masked.predicate_evaluations == N // 8
    assert masked.predicate_rejections == 1


# ------------------------------------------- written since the build


#: Strategies that answer exactly over this fixture: the two scans and
#: every plan whose index is flat (index ∪ tail is then exact too).
EXACT_HERE = ("brute_force", "pre_filter", "index_scan", "block_first", "partition")
WRITES = ("insert", "insert_many", "update_vector")


def write(db, how) -> tuple[int, np.ndarray, np.ndarray | None]:
    """One write the indexes have not seen, to a g == 1 row: the row's
    id, its vector now and (when rewritten) the vector it had."""
    rng = np.random.default_rng(5)
    vector = (rng.standard_normal(DIM) * 0.5).astype(np.float32)
    if how == "insert":
        return db.insert(vector, {"g": 1}), vector, None
    if how == "insert_many":
        block = np.stack([vector + 9.0, vector, vector - 9.0])
        return db.insert_many(block, [{"g": 1}] * 3)[1], vector, None
    old = db.get(33)[0]
    db.update_vector(33, vector)
    return 33, vector, old


def plans_over(db, vector, predicate):
    """Every plan the planner enumerates for the query, then every
    explicit one over each index the fixture holds."""
    enumerated = db.plan(SearchQuery(vector, K, predicate=predicate))[1]
    explicit = [
        plan for plan in PLANS.values()
        if predicate is not None or plan.strategy in ("brute_force", "index_scan")
    ]
    if predicate is None:
        explicit.append(QueryPlan("index_scan", "graph"))
    else:
        explicit += [
            QueryPlan("block_first", "graph"), QueryPlan("post_filter", "graph"),
            QueryPlan("post_filter", "flat"),
        ]
    return enumerated + explicit


def live_oracle(db, query, predicate):
    """(ids ascending by (distance, id), distances) over the rows as they
    are now: alive, passing the predicate."""
    collection = db.collection
    keep = collection.alive.copy()
    if predicate is not None:
        keep &= collection.columns["g"] == 1
    dists = np.linalg.norm(collection.vectors - query, axis=1)
    order = np.lexsort((np.arange(dists.size), dists))
    return [int(i) for i in order if keep[i]], dists


@pytest.mark.parametrize("predicate", [None, PREDICATE], ids=["plain", "hybrid"])
@pytest.mark.parametrize("how", WRITES)
@pytest.mark.parametrize("kind", KINDS)
def test_every_plan_sees_a_row_written_since_the_build(kind, how, predicate, make_db):
    db, rows = make_db()
    victim = 9  # g == 1
    db.delete(victim)
    target, vector, old = write(db, how)
    assert db.has_stale_indexes
    common = dict(predicate=predicate)
    for plan in plans_over(db, vector, predicate):
        label = plan.describe()
        exact = plan.strategy in EXACT_HERE and plan.index_name != "graph"
        order, dists = live_oracle(db, vector, predicate)
        if kind == "search":
            results = [db.search(vector, k=K, plan=plan, **common)]
            want = order[:K]
        elif kind == "range":
            results = [db.range_search(vector, radius=RADIUS, plan=plan, **common)]
            want = [i for i in order if dists[i] <= RADIUS]
        elif kind == "batch":
            results = db.batch_search(
                np.stack([vector] * 3), k=K, plan=plan, **common)
            want = order[:K]
        else:
            results = [db.multi_vector_search(
                np.stack([vector] * 2), k=K, plan=plan, **common)]
            want = order[:K]
        for result in results:
            assert result.ids[0] == target, label
            assert result.distances[0] == 0.0, label
            assert victim not in result.ids, label
            assert len(set(result.ids)) == len(result.ids), label
            assert result.distances == sorted(result.distances), label
            if exact:
                assert result.ids == want, label  # min(k, matching), id for id
        if old is not None and kind == "search":
            # The rewritten row answers with its new vector only: asked for
            # the one it had, it is where the new one puts it or nowhere.
            again = db.search(old, k=K, plan=plan, **common)
            there = dict(zip(again.ids, again.distances))
            if target in there:
                assert there[target] == pytest.approx(
                    float(np.linalg.norm(vector - old)), rel=1e-5), label
            if exact:
                assert again.ids == live_oracle(db, old, predicate)[0][:K], label
    db.rebuild_indexes()
    assert not db.has_stale_indexes
    for plan in plans_over(db, vector, predicate):
        assert db.search(vector, k=K, plan=plan, **common).ids[0] == target


@pytest.mark.parametrize("how", ["empty", "all_deleted", "deleted_then_rebuilt"])
def test_an_index_built_over_nothing_answers_nothing(how):
    """Indexes created on an empty collection (no partitioned one and no
    predicate: both need the attribute column), created on one whose
    every row is deleted, and rebuilt after every row was deleted: every
    kind answers empty under every plan over them."""
    rows = np.random.default_rng(3).standard_normal((8, DIM)).astype(np.float32)
    db = VectorDatabase(dim=DIM)
    if how != "empty":
        db.insert_many(rows, [{"g": i % 8} for i in range(8)])
    if how == "all_deleted":
        for item_id in range(8):
            db.delete(item_id)
    db.create_index("flat", "flat")
    db.create_index("graph", "hnsw", m=8, seed=0)
    if how != "empty":
        db.create_partitioned_index("byg", "flat", "g")
    if how == "deleted_then_rebuilt":
        for item_id in range(8):
            db.delete(item_id)
        db.rebuild_indexes()
    plans = (*PLANS.values(), QueryPlan("post_filter", "flat"),
             QueryPlan("index_scan", "graph"))
    for predicate in (None,) if how == "empty" else (None, PREDICATE):
        for plan in plans:
            if plan.strategy == "partition" and predicate is None:
                continue
            for kind in KINDS:
                answers = run(db, kind, rows[:3], plan, predicate=predicate)
                want = [[]] * (3 if kind == "batch" else 1)
                assert answers == want, (how, kind, plan.describe())


def test_the_tail_scan_is_a_child_span_and_attribution_stays_exact(make_db):
    db, rows = make_db()
    target, vector, _ = write(db, "insert_many")
    for strategy in STRATEGIES:
        profile = db.explain_analyze(
            vector=vector, k=K, predicate=PREDICATE, plan=PLANS[strategy])
        assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
        tails = [n for n in profile.root.walk() if n.name == "tail_scan"]
        assert len(tails) == (1 if PLANS[strategy].index_name else 0), strategy
        for node in tails:  # charged like every exact scan: the 3 new rows
            assert node.stats_total["distance_computations"] == 3
            assert node.stats_total["candidates_examined"] == 3


def test_the_planner_keeps_its_index_plan_after_one_insert():
    rng = np.random.default_rng(0)
    db = VectorDatabase(dim=16)
    db.insert_many(rng.standard_normal((6000, 16)).astype(np.float32))
    db.create_index("ivf", "ivf_flat", nlist=64)
    vector = rng.standard_normal(16).astype(np.float32)
    assert db.search(vector, k=K).stats.plan_name.startswith("index_scan")
    new_id = db.insert(vector)
    result = db.search(vector, k=K)
    assert result.stats.plan_name.startswith("index_scan via ivf")
    assert result.ids[0] == new_id
    # ...and by cost, not by flag: a tail that outweighs what the index
    # saves (here: every row it holds was rewritten) makes the scan cheaper.
    for item_id, row in enumerate(rng.standard_normal((6000, 16))):
        db.update_vector(item_id, row)
    result = db.search(vector, k=K)
    assert result.stats.plan_name.startswith("brute_force")
    assert result.ids[0] == new_id
    db.rebuild_indexes()
    assert db.search(vector, k=K).stats.plan_name.startswith("index_scan")


def test_a_coalesced_group_on_a_graph_sees_a_row_written_since_the_build(
    make_db, monkeypatch
):
    db, rows = make_db()
    plan = QueryPlan("index_scan", "graph")
    monkeypatch.setattr(db, "plan", lambda query, parent=None: (plan, []))
    group = [ServingRequest("t", rows[i], k=K) for i in (3, 4, 5)]
    assert execute_coalesced(db, group)[2] == "batched_graph"
    target, vector, _ = write(db, "insert")
    group = [ServingRequest("t", vector + 0.001 * i, k=K) for i in range(3)]
    hits, _, mode, _ = execute_coalesced(db, group)
    # The merged-frontier kernel reads the graph alone, so a group over an
    # index with a tail takes the executor's member path.
    assert mode == "batched_scan"
    assert [member.ids[0] for member in hits] == [target] * 3


# ------------------------------------ regression: the planner's own choice


@pytest.mark.parametrize("predicate", [None, PREDICATE], ids=["plain", "hybrid"])
@pytest.mark.parametrize("kind", KINDS)
def test_default_planner_answers_every_kind_beside_a_partitioned_index(
    kind, predicate, make_db
):
    db, rows = make_db()
    vectors = rows[60:63] + 0.05
    answers = run(db, kind, vectors, predicate=predicate)  # no plan handed in
    alive = db.collection.alive
    if kind == "multivector":
        dists = np.linalg.norm(
            rows[:, None, :] - vectors[None, :2, :], axis=2).mean(axis=1)
        keep = alive & (np.arange(N) % 8 == 1 if predicate is not None else True)
        want = [int(i) for i in np.argsort(dists, kind="stable") if keep[i]][:K]
        assert answers == [want]
        return
    for query, ids in zip(vectors, answers):
        order, dists = oracle(rows, alive, query, predicate is not None)
        if kind == "range":
            assert ids == [i for i in order if dists[i] <= RADIUS]
        else:
            assert ids == order[:K]


# --------------------------- regression: caller params, shared-mask charge


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if PLANS[s].index_name])
@pytest.mark.parametrize("kind", KINDS)
def test_unknown_keyword_raises_on_every_index_path(kind, strategy, make_db):
    db, rows = make_db()
    with pytest.raises(TypeError):
        run(db, kind, rows[:3], PLANS[strategy], bogus=1)


@pytest.mark.parametrize("members", [1, 3], ids=["solo", "batched"])
@pytest.mark.parametrize("name", ["bogus", "c", "entity", "plan"])
def test_a_coalesced_request_param_is_an_index_param_whatever_its_name(
    name, members, make_db, monkeypatch
):
    db, rows = make_db()
    monkeypatch.setattr(db, "plan", lambda query, parent=None: (PLANS["index_scan"], []))
    group = [ServingRequest("t", rows[i], k=K, params={name: 1}) for i in range(members)]
    with pytest.raises(TypeError, match="unknown params"):
        execute_coalesced(db, group)


def test_ef_search_reaches_an_hnsw_range_query(make_db):
    db, rows = make_db()
    visited = [
        db.range_search(
            rows[5], radius=RADIUS, plan=PLANS["visit_first"], ef_search=ef
        ).stats.nodes_visited
        for ef in (1, 200)
    ]
    assert visited[0] < visited[1]


def test_block_first_batch_charges_its_one_bitmask_once(make_db):
    obs = Observability()
    db, rows = make_db(obs)
    plan = PLANS["block_first"]
    batch = db.batch_search(rows[:4], k=K, predicate=PREDICATE, plan=plan)
    single = db.search(rows[0], k=K, predicate=PREDICATE, plan=plan)
    evaluations = [r.stats.predicate_evaluations for r in batch]
    # The member that builds the mask pays what a lone search pays; the
    # rest pay only the index's own per-candidate checks.
    assert evaluations[0] == single.stats.predicate_evaluations
    assert evaluations[1:] == [evaluations[0] - db.collection.capacity] * 3
    assert [r.ids for r in batch] == [
        db.search(q, k=K, predicate=PREDICATE, plan=plan).ids for q in rows[:4]
    ]
    # ...and the attribution still telescopes, member by member.
    root = build_profile_tree(obs.tracer.spans)[0]
    members = [node for node in root.children if node.name == "query"]
    assert len([n for m in members for n in m.walk() if n.name == "bitmask"]) == 1
    for node, result in zip(members, batch):
        assert QueryProfile(result, node).attribution_residual() == {
            f: 0 for f in STAT_FIELDS}
        for f in STAT_FIELDS:
            assert node.stats_total[f] == getattr(result.stats, f)


# ------------------------------- regression: empty batch, unaudited batches


def test_empty_batch_answers_empty(make_db):
    db, _ = make_db()
    assert db.batch_search(np.empty((0, DIM), dtype=np.float32), k=K) == []


@pytest.mark.parametrize("strategy", ["brute_force", "index_scan"])
def test_api_batch_offers_every_member_to_the_auditor_in_order(strategy, make_db):
    obs = Observability(audit_fraction=1.0, audit_k=K)
    db, rows = make_db(obs)
    results = db.batch_search(rows[:4], k=K, plan=PLANS[strategy])
    assert obs.auditor.considered == 4
    assert [set(record.served) for record in obs.auditor.recent] == [
        set(result.ids) for result in results]
