"""The lifecycle machine, bare-database surface (ROADMAP item 1(1)).

A hypothesis ``RuleBasedStateMachine`` interleaves every way a
``VectorDatabase`` can change — insert / insert_many / delete /
update_vector / create_index / create_partitioned_index / drop_index /
rebuild_indexes / save → load — with search, range and batch queries
under every plan the planner enumerates and every explicit plan over
each index, against a dict-plus-brute-force model.

Invariants, whatever the interleaving:

* read-your-writes: a row written since an index was built is answered
  first, at distance 0, by every plan over that index;
* a deleted id never surfaces, no id surfaces twice, every reported
  distance is the row's distance *now* (never a rewritten row's old one);
* exact plans and flat-backed plans equal the oracle id for id
  (``min(k, matching)`` hits), and a masked table-index search fills k
  from its allowed candidates (PR 19's ``mask-fill``, under churn);
* ``has_stale_indexes`` ⇔ some index's ``tail_rows`` > 0, and both agree
  with the model's own count of rows written since each build;
* ``row_aux`` equals a from-scratch recompute;
* a loaded database is query-equivalent on exact plans and a second
  round trip writes the same manifest.
"""

import json
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Field, VectorDatabase
from repro.core.planner import QueryPlan
from repro.core.query import SearchQuery
from repro.storage.persist import load_database, save_database

DIM, K, GROUPS = 6, 4, 3
INDEX_TYPES = {
    "flat": {},
    "ivf_flat": {"nlist": 4, "nprobe": 2, "seed": 0},
    "hnsw": {"m": 4, "ef_construction": 16, "seed": 0},
}
#: Strategies that answer exactly whenever their index (if any) is flat.
EXACT = ("brute_force", "pre_filter", "index_scan", "block_first", "partition")


class DatabaseLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)  # advanced by the rules: replayable
        self.db = VectorDatabase(dim=DIM)
        self.live: dict[int, np.ndarray] = {}
        self.group: dict[int, int] = {}
        self.dead: set[int] = set()
        #: rows written since each index was built, by index name
        self.unindexed: dict[str, set[int]] = {}
        self.workdir = tempfile.mkdtemp(prefix="lifecycle-")

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ---------------------------------------------------------------- model

    def vector(self) -> np.ndarray:
        return self.rng.standard_normal(DIM).astype(np.float32)

    def wrote(self, item_id: int, vector: np.ndarray) -> None:
        self.live[item_id] = vector
        for behind in self.unindexed.values():
            behind.add(item_id)

    def truth(self, query, group=None, radius=None):
        """(ids, distances) ascending by (distance, id) over the model's
        live rows (of one group), all of them or those within ``radius``."""
        ids = np.array(
            [i for i in sorted(self.live) if group is None or self.group[i] == group],
            dtype=np.int64,
        )
        if not ids.size:
            return [], []
        dists = self.db.score.distances(
            query, np.stack([self.live[int(i)] for i in ids])
        ).astype(np.float64)
        order = np.lexsort((ids, dists))
        if radius is not None:
            order = order[dists[order] <= radius]
        return ids[order].tolist(), dists[order].tolist()

    def index_of(self, plan):
        return self.db.index_for(plan) if plan.index_name else None

    def is_exact(self, plan) -> bool:
        index = self.index_of(plan)
        backing = getattr(index, "name", None) if plan.strategy != "partition" else "flat"
        return plan.strategy in EXACT and backing in (None, "flat")

    def plans(self, query, predicate):
        """Every enumerated plan, then every explicit one over each index."""
        plans = list(self.db.plan(SearchQuery(query, K, predicate=predicate))[1])
        for name, index in self.db.indexes.items():
            if predicate is None:
                plans.append(QueryPlan("index_scan", name))
                continue
            plans += [
                QueryPlan("block_first", name), QueryPlan("post_filter", name),
                QueryPlan("post_filter", name, oversample=3.0),
            ]
            if index.family == "graph":
                plans.append(QueryPlan("visit_first", name))
        if predicate is not None:
            plans += [QueryPlan("partition", name) for name in self.db.partitioned]
        return plans

    # ---------------------------------------------------------------- writes

    @initialize(count=st.integers(1, 12))
    def seed_rows(self, count):
        self.insert_many(count)

    @rule(group=st.integers(0, GROUPS - 1))
    def insert(self, group):
        vector = self.vector()
        item_id = self.db.insert(vector, {"g": group})
        assert item_id not in self.group
        self.group[item_id] = group
        self.wrote(item_id, vector)

    @rule(count=st.integers(1, 5))
    def insert_many(self, count):
        vectors = np.stack([self.vector() for _ in range(count)])
        groups = self.rng.integers(0, GROUPS, count).tolist()
        ids = self.db.insert_many(vectors, [{"g": g} for g in groups])
        assert len(set(ids) | set(self.group)) == len(self.group) + count
        for item_id, vector, group in zip(ids, vectors, groups):
            self.group[item_id] = group
            self.wrote(item_id, vector)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        item_id = sorted(self.live)[pick % len(self.live)]
        self.db.delete(item_id)
        del self.live[item_id]
        self.dead.add(item_id)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6))
    def update_vector(self, pick):
        item_id = sorted(self.live)[pick % len(self.live)]
        vector = self.vector()
        self.db.update_vector(item_id, vector)
        self.wrote(item_id, vector)

    # ------------------------------------------------------------------- DDL

    @rule(index_type=st.sampled_from(sorted(INDEX_TYPES)))
    def create_index(self, index_type):
        if index_type in self.db.indexes:
            self.db.drop_index(index_type)
        self.db.create_index(index_type, index_type, **INDEX_TYPES[index_type])
        self.unindexed[index_type] = set()

    @rule()
    def create_partitioned_index(self):
        if "byg" in self.db.partitioned:
            self.db.drop_index("byg")
        self.db.create_partitioned_index("byg", "flat", "g")
        self.unindexed["byg"] = set()

    @precondition(lambda self: self.unindexed)
    @rule(pick=st.integers(0, 10**6))
    def drop_index(self, pick):
        name = sorted(self.unindexed)[pick % len(self.unindexed)]
        self.db.drop_index(name)
        del self.unindexed[name]

    @rule()
    def rebuild_indexes(self):
        self.db.rebuild_indexes()
        for behind in self.unindexed.values():
            behind.clear()

    @rule()
    def save_and_load(self):
        first, second = f"{self.workdir}/a", f"{self.workdir}/b"
        save_database(self.db, first)
        loaded = load_database(first)
        save_database(loaded, second)
        manifests = [
            json.loads(open(f"{path}/manifest.json").read()) for path in (first, second)
        ]
        assert manifests[0]["database"] == manifests[1]["database"]
        assert manifests[0]["checksums"] == manifests[1]["checksums"]
        query = self.vector()
        for predicate in (None, Field("g") == 1):
            for plan in self.plans(query, predicate):
                if self.is_exact(plan):
                    want = self.db.search(query, k=K, predicate=predicate, plan=plan)
                    got = loaded.search(query, k=K, predicate=predicate, plan=plan)
                    assert (got.ids, got.distances) == (want.ids, want.distances)
        # Loading rebuilds every index over the rows as saved: carry on
        # with the loaded database, whose indexes have no tail.
        self.db = loaded
        for behind in self.unindexed.values():
            behind.clear()

    # --------------------------------------------------------------- queries

    def check(self, result, plan, query, truth, exact, fresh=None, k=K):
        """``truth``: every allowed row, ascending; the answer is its first ``k``."""
        label = plan.describe()
        want_ids, want_dists = truth[0][:k], truth[1][:k]
        ids, dists = result.ids, result.distances
        assert len(set(ids)) == len(ids) <= len(truth[0]), label
        assert not self.dead & set(ids), label
        assert set(ids) <= set(truth[0]), label  # live, and in the group asked for
        assert dists == sorted(dists), label
        for item_id, dist in zip(ids, dists):  # its distance now, not an old one
            now = self.db.score.distances(query, self.live[item_id][None, :])[0]
            assert dist == pytest.approx(float(now), rel=1e-5, abs=1e-6), label
        if fresh is not None:  # read-your-writes
            assert ids[0] == fresh and dists[0] == 0.0, label
        if exact:  # id for id, up to a tie in the float's last place
            assert len(ids) == len(want_ids), label
            assert dists == pytest.approx(want_dists, rel=1e-5, abs=1e-6), label

    @precondition(lambda self: self.live)
    @rule(
        pick=st.integers(0, 10**6), at_a_row=st.booleans(),
        group=st.one_of(st.none(), st.integers(0, GROUPS - 1)),
        kind=st.sampled_from(["search", "range", "batch"]),
    )
    def query(self, pick, at_a_row, group, kind):
        db = self.db
        target = None
        query = self.vector()
        if at_a_row:
            target = sorted(self.live)[pick % len(self.live)]
            query = self.live[target]
            if group is not None:
                group = self.group[target]
        predicate = None if group is None else Field("g") == group
        truth = self.truth(query, group)
        all_ids, all_dists = truth
        radius = all_dists[min(len(all_dists), K + 2) - 1] if all_dists else 1.0
        candidates = {}
        for plan in self.plans(query, predicate):
            exact = self.is_exact(plan)
            index = self.index_of(plan)
            # Read-your-writes is owed by every plan for the rows written
            # since its index was built, and by exact plans for every row.
            behind = self.unindexed.get(plan.index_name, ())
            fresh = target if target is not None and (exact or target in behind) else None
            common = dict(predicate=predicate, plan=plan)
            if kind == "search":
                result = db.search(query, k=K, **common)
                self.check(result, plan, query, truth, exact, fresh)
                if plan.strategy == "index_scan" and index.family != "graph":
                    candidates[plan.index_name] = db.search(
                        query, k=max(1, db.collection.capacity), plan=plan).ids
                if plan.strategy == "block_first" and plan.index_name in candidates:
                    allowed = [i for i in candidates[plan.index_name] if i in all_ids]
                    assert len(result) == min(K, len(allowed)), plan.describe()
            elif kind == "range":
                result = db.range_search(query, radius=radius, **common)
                within = self.truth(query, group, radius)
                self.check(result, plan, query, within, exact, fresh, k=None)
            else:
                block = np.stack([query, self.vector()])
                results = db.batch_search(block, k=K, **common)
                self.check(results[0], plan, query, truth, exact, fresh)
                self.check(
                    results[1], plan, block[1], self.truth(block[1], group), exact)

    # ------------------------------------------------------------ invariants

    @invariant()
    def freshness_is_per_index(self):
        database = self.db.health().database
        assert database["live_rows"] == len(self.live) == len(self.db)
        reported = {
            name: entry["tail_rows"]
            for name, entry in database["index_freshness"].items()
        }
        assert reported == {name: len(rows) for name, rows in self.unindexed.items()}
        assert self.db.has_stale_indexes == any(reported.values())
        assert database["stale_indexes"] == self.db.has_stale_indexes

    @invariant()
    def row_aux_matches_a_recompute(self):
        collection, score = self.db.collection, self.db.score
        aux = collection.row_aux(score)
        np.testing.assert_array_equal(aux, score.row_aux(collection.vectors))
        alive = np.zeros(collection.capacity, dtype=bool)
        alive[sorted(self.live)] = True
        np.testing.assert_array_equal(collection.alive, alive)


DatabaseLifecycle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
)
TestDatabaseLifecycle = DatabaseLifecycle.TestCase
