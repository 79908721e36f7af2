"""The exact-scan kernel against the plain oracle.

The oracle is what every exact-scan site used to do, spelled out: score
every row with ``score.distances`` and fully ``argsort``.  The kernel
(:func:`repro.index._scan.scan_topk`) must return the same rows with
*bit-identical* distances (see ``BLAS_SCORES`` for the one caveat) through
every site that calls it, for GEMV-form scores and fallback scores alike,
whatever the mask looks like.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import VectorCollection
from repro.core.database import VectorDatabase
from repro.core.operators import TableScan, batched_table_scan
from repro.core.planner import QueryPlan
from repro.core.types import SearchStats
from repro.hybrid.blockfirst import prefilter_scan
from repro.hybrid.predicates import Field
from repro.index import FlatIndex
from repro.index import _scan
from repro.index._scan import KEYS_PAY_OFF, SCAN_SLACK, scan_topk
from repro.scores import MahalanobisScore, available_scores, get_score
from repro.storage import load_database, save_database

N, DIM = 1200, 16


def make_score(name):
    if name == "mahalanobis":
        return MahalanobisScore.from_data(
            np.random.default_rng(5).normal(size=(200, DIM))
        )
    return get_score(name)


#: Every registered score (aliases included: they are distinct registry
#: entries), a fractional Minkowski, and a parametrised (learned-style) one.
SCORES = sorted(set(available_scores()) | {"minkowski:0.5", "mahalanobis"})
GEMV_SCORES = ("l2", "sqeuclidean", "ip", "cosine")


def make_rows(name, rng, n=N):
    if name == "hamming":
        return (rng.random((n, DIM)) < 0.5).astype(np.float32)
    centers = rng.normal(size=(8, DIM)) * 3
    return (rng.normal(size=(n, DIM)) + centers[rng.integers(0, 8, n)]).astype(
        np.float32
    )


def oracle(score, query, vectors, k, keep=None):
    """(ids, distances) of the k nearest kept rows: full score + full sort."""
    dists = score.distances(query, vectors)
    rows = np.arange(len(vectors)) if keep is None else np.flatnonzero(keep)
    order = rows[np.argsort(dists[rows], kind="stable")][:k]
    return order, dists[order]


#: Scores whose ``distances`` is itself a BLAS product: BLAS rounds a row's
#: dot product differently (by an ulp) depending on the shape of the matrix
#: the row sits in, so "the same distance" means equal up to that — as it
#: always did, when each site scored its own gather of the live rows.
BLAS_SCORES = ("ip", "inner_product", "dot", "cosine", "mahalanobis")


def same(name, got, want):
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    if name in BLAS_SCORES:
        return got.shape == want.shape and np.allclose(got, want, rtol=1e-6, atol=1e-6)
    return np.array_equal(got, want)


def assert_matches(name, hits, want_ids, want_dists, all_dists):
    got_d = [h.distance for h in hits]
    # Bit-identical distances, in order.
    assert same(name, got_d, want_dists)
    # Each hit carries the distance of *its* row.
    assert same(name, got_d, all_dists[[h.id for h in hits]])
    # Distinct rows; and the same ones unless a tie lets another stand in
    # (together with the two checks above that makes any answer a top-k).
    assert len({h.id for h in hits}) == len(hits)
    if len(np.unique(all_dists)) == len(all_dists) and name not in BLAS_SCORES:
        assert [h.id for h in hits] == want_ids.tolist()


def masks(rng, n):
    alive = np.ones(n, dtype=bool)
    alive[rng.choice(n, n // 20, replace=False)] = False
    out = {"none": None, "tombstones": alive}
    for density in (0.5, 0.1, 0.01):
        out[f"dense{density}"] = alive & (rng.random(n) < density)
    out["empty"] = np.zeros(n, dtype=bool)
    return out


# --------------------------------------------------------------- differential


@pytest.mark.parametrize("name", SCORES)
def test_single_query_matches_oracle(name, rng):
    score = make_score(name)
    vectors = make_rows(name, rng)
    aux = score.row_aux(vectors)
    assert (aux is not None) == (name in GEMV_SCORES or name in (
        "euclidean", "inner_product", "dot",
    ))
    queries = make_rows(name, rng, 4)
    for label, keep in masks(rng, N).items():
        kept = N if keep is None else int(keep.sum())
        for k in (1, 10, N + 5):
            for query in queries:
                all_dists = score.distances(query, vectors)
                want_ids, want_d = oracle(score, query, vectors, k, keep)
                stats = SearchStats()
                hits = scan_topk(
                    score, query, vectors, k, aux=aux, keep=keep, stats=stats
                )
                assert len(hits) == min(k, kept), (label, k)
                assert_matches(name, hits, want_ids, want_d, all_dists)
                assert stats.distance_computations == kept
                assert stats.candidates_examined == kept
                # The cached auxiliary is an optimisation, never an input.
                again = scan_topk(score, query, vectors, k, keep=keep)
                assert [h.id for h in again] == [h.id for h in hits]


@pytest.mark.parametrize("name", SCORES)
def test_batched_form_matches_single(name, rng):
    score = make_score(name)
    vectors = make_rows(name, rng)
    queries = make_rows(name, rng, 7)
    keep = masks(rng, N)["dense0.5"]
    stats = SearchStats()
    batched = scan_topk(score, queries, vectors, 10, keep=keep, stats=stats)
    assert stats.distance_computations == int(keep.sum()) * len(queries)
    assert batched == [
        scan_topk(score, query, vectors, 10, keep=keep) for query in queries
    ]
    assert scan_topk(score, queries, vectors, 10, keep=np.zeros(N, bool)) == [
        [] for _ in queries
    ]


@pytest.mark.parametrize("name", GEMV_SCORES)
def test_positions_and_ids(name, rng):
    score = get_score(name)
    vectors = make_rows(name, rng)
    ids = rng.permutation(N).astype(np.int64) + 1000
    positions = np.sort(rng.choice(N, 700, replace=False))
    query = make_rows(name, rng, 1)[0]
    hits = scan_topk(
        score, query, vectors, 10, aux=score.row_aux(vectors), ids=ids,
        positions=positions,
    )
    keep = np.zeros(N, dtype=bool)
    keep[positions] = True
    want_rows, want_d = oracle(score, query, vectors, 10, keep)
    assert [h.id for h in hits] == ids[want_rows].tolist()
    assert [h.distance for h in hits] == want_d.tolist()


@pytest.mark.parametrize("name", SCORES)
def test_radius_form(name, rng):
    score = make_score(name)
    vectors = make_rows(name, rng)
    query = make_rows(name, rng, 1)[0]
    keep = masks(rng, N)["dense0.5"]
    dists = score.distances(query, vectors)
    radius = float(np.sort(dists[keep])[40])
    hits = scan_topk(score, query, vectors, None, keep=keep, radius=radius)
    want = np.flatnonzero(keep & (dists <= radius))
    want = want[np.argsort(dists[want], kind="stable")]
    assert [h.id for h in hits] == want.tolist()
    assert [h.distance for h in hits] == dists[want].tolist()
    everything = scan_topk(score, query, vectors, None, keep=keep, radius=np.inf)
    assert len(everything) == int(keep.sum())  # masked rows stay out


# ------------------------------------------------------------- awkward inputs


class TestAwkwardInputs:
    def counting_exact(self, monkeypatch):
        calls = []
        real = _scan._exact_rank

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(_scan, "_exact_rank", spy)
        return calls

    def test_key_path_is_the_common_case(self, rng, monkeypatch):
        calls = self.counting_exact(monkeypatch)
        vectors = make_rows("l2", rng, 5000)
        for name in GEMV_SCORES:
            score = get_score(name)
            for query in make_rows("l2", rng, 20):
                hits = scan_topk(score, query, vectors, 10)
                want_ids, want_d = oracle(score, query, vectors, 10)
                assert_matches(name, hits, want_ids, want_d, score.distances(query, vectors))
        assert calls == []  # certified every time: no exact fallback

    def test_small_scans_score_everything(self, rng, monkeypatch):
        calls = self.counting_exact(monkeypatch)
        vectors = make_rows("l2", rng, KEYS_PAY_OFF * (10 + SCAN_SLACK))
        scan_topk(get_score("l2"), vectors[0], vectors, 10)
        assert calls == [1]

    def test_duplicate_rows(self, rng):
        base = make_rows("l2", rng, 40)
        vectors = np.repeat(base, 30, axis=0)  # every row 30 times
        for name in GEMV_SCORES:
            score = get_score(name)
            for k in (5, 30, 45):
                hits = scan_topk(score, base[3] + 0.01, vectors, k)
                want_ids, want_d = oracle(score, base[3] + 0.01, vectors, k)
                assert [h.distance for h in hits] == want_d.tolist()
                assert len({h.id for h in hits}) == k

    def test_zero_vectors_under_cosine(self, rng):
        score = get_score("cosine")
        vectors = make_rows("cosine", rng)
        vectors[::7] = 0.0
        for query in (make_rows("cosine", rng, 1)[0], np.zeros(DIM, np.float32)):
            hits = scan_topk(score, query, vectors, N)
            want_ids, want_d = oracle(score, query, vectors, N)
            assert [h.distance for h in hits] == want_d.tolist()
        # A zero row is orthogonal to everything: distance exactly 1.
        hits = scan_topk(score, vectors[1], vectors, N)
        assert {h.distance for h in hits if h.id % 7 == 0} == {1.0}

    def test_tiny_rows_under_cosine_are_not_zero_rows(self, rng):
        score = get_score("cosine")
        vectors = make_rows("cosine", rng)
        vectors[5] = vectors[0] * np.float32(1e-35)  # float32 norm^2 underflows
        hits = scan_topk(score, vectors[0], vectors, 2)
        assert {h.id for h in hits} == {0, 5}

    def test_near_ties_at_the_k_boundary(self, rng, monkeypatch):
        # Rows on a far-off shell: |v|^2 ~ 1e6 while neighbouring distances
        # differ by ~1e-3, below what a float32 ``|v|^2 - 2 v.q`` resolves.
        calls = self.counting_exact(monkeypatch)
        vectors = (1000.0 + rng.normal(size=(N, DIM)) * 0.01).astype(np.float32)
        query = (1000.0 + rng.normal(size=DIM) * 0.01).astype(np.float32)
        for name in ("l2", "sqeuclidean"):
            score = get_score(name)
            hits = scan_topk(score, query, vectors, 10)
            want_ids, want_d = oracle(score, query, vectors, 10)
            assert {h.id for h in hits} == set(want_ids.tolist())
            assert [h.distance for h in hits] == want_d.tolist()
        assert calls  # the certificate failed and the scan ranked exactly

    def test_one_ulp_ties(self, rng):
        vectors = make_rows("l2", rng)
        vectors[100:130] = vectors[100]
        vectors[100:130, 0] += np.arange(30, dtype=np.float32) * np.float32(1e-6)
        score = get_score("l2")
        hits = scan_topk(score, vectors[100], vectors, 10)
        want_ids, want_d = oracle(score, vectors[100], vectors, 10)
        assert [h.distance for h in hits] == want_d.tolist()


# ------------------------------------------------------------------ the sites


class TestSites:
    """Each caller of the kernel, against the same oracle."""

    @pytest.fixture()
    def data(self, rng):
        vectors = make_rows("l2", rng)
        mask = masks(rng, N)["dense0.5"]
        return vectors, make_rows("l2", rng, 5), mask

    @pytest.mark.parametrize("name", ["l2", "cosine", "ip", "l1"])
    def test_table_scan_and_batched(self, name, data):
        vectors, queries, mask = data
        score = get_score(name)
        ids = np.arange(N)
        scan = TableScan(vectors, ids, score)
        stats = SearchStats()
        for query in queries:
            want_ids, want_d = oracle(score, query, vectors, 10, mask)
            hits = scan.run(query, 10, mask=mask, stats=stats)
            assert_matches(name, hits, want_ids, want_d, score.distances(query, vectors))
        kept = int(mask.sum())
        assert stats.predicate_evaluations == N * len(queries)
        assert stats.predicate_rejections == (N - kept) * len(queries)
        assert stats.distance_computations == kept * len(queries)
        batch_stats = SearchStats()
        batched = batched_table_scan(
            queries, vectors, ids, score, 10, mask=mask, stats=batch_stats
        )
        assert batched == [scan.run(q, 10, mask=mask) for q in queries]
        assert batch_stats.distance_computations == stats.distance_computations
        assert batch_stats.predicate_rejections == stats.predicate_rejections

    @pytest.mark.parametrize("name", ["l2", "cosine", "hamming"])
    def test_flat_index(self, name, data):
        vectors, queries, mask = data
        score = get_score(name)
        more = make_rows("l2", np.random.default_rng(9), 50)
        everything = np.vstack([vectors, more])
        index = FlatIndex(score).build(everything)
        allowed = np.concatenate([mask, np.ones(50, dtype=bool)])
        for query in queries:
            stats = SearchStats()
            hits = index.search(query, 10, allowed=allowed, stats=stats)
            want_ids, want_d = oracle(score, query, everything, 10, allowed)
            assert_matches(name, hits, want_ids, want_d, score.distances(query, everything))
            assert stats.predicate_evaluations == N + 50
            assert stats.distance_computations == int(allowed.sum())
            dists = score.distances(query, everything)
            radius = float(np.sort(dists[allowed])[25])
            in_range = index.range_search(query, radius, allowed=allowed)
            assert [h.id for h in in_range] == [
                int(i) for i in np.argsort(dists, kind="stable")
                if allowed[i] and dists[i] <= radius
            ]

    def test_prefilter_and_executor_plans(self, data):
        vectors, queries, _ = data
        attrs = [{"bucket": int(i % 10)} for i in range(N)]
        db = VectorDatabase(dim=DIM)
        db.insert_many(vectors, attrs)
        for victim in range(0, N, 25):
            db.delete(victim)
        alive = db.collection.alive
        for predicate, selector in (
            (None, np.ones(N, bool)),
            (Field("bucket") == 3, np.arange(N) % 10 == 3),  # sparse: gathered
            (Field("bucket") >= 2, np.arange(N) % 10 >= 2),  # dense: masked
        ):
            keep = alive & selector
            for query in queries:
                want_ids, want_d = oracle(db.score, query, vectors, 10, keep)
                strategy = "brute_force" if predicate is None else "pre_filter"
                for plan in (QueryPlan("brute_force"), QueryPlan(strategy)):
                    result = db.search(query, k=10, predicate=predicate, plan=plan)
                    assert result.ids == want_ids.tolist()
                    assert result.distances == want_d.tolist()
                    assert result.stats.distance_computations == int(keep.sum())
                    assert result.stats.candidates_examined == int(keep.sum())
                brute = db.search(
                    query, k=10, predicate=predicate, plan=QueryPlan("brute_force")
                ).stats
                assert brute.predicate_evaluations == int(alive.sum())
                assert brute.predicate_rejections == int(alive.sum() - keep.sum())
                if predicate is not None:
                    stats = SearchStats()
                    prefilter_scan(
                        db.collection, query, 10, predicate, db.score, stats=stats
                    )
                    assert stats.predicate_evaluations == N
                    assert stats.predicate_rejections == 0
            batch = db.batch_search(
                queries, k=10, predicate=predicate, plan=QueryPlan("brute_force")
            )
            assert [r.ids for r in batch] == [
                oracle(db.score, q, vectors, 10, keep)[0].tolist() for q in queries
            ]
            assert batch[0].stats.distance_computations == int(keep.sum()) * len(queries)
            assert batch[0].stats.predicate_evaluations == 0
        within = db.range_search(
            queries[0], radius=6.0, plan=QueryPlan("brute_force")
        )
        dists = db.score.distances(queries[0], vectors)
        assert within.ids == [
            int(i) for i in np.argsort(dists, kind="stable")
            if alive[i] and dists[i] <= 6.0
        ]
        multi = db.multi_score_search(queries[0], k=5, scores=["l2", "cosine", "l1"])
        for name, result in multi.items():
            want_ids, want_d = oracle(get_score(name), queries[0], vectors, 5, alive)
            assert result.ids == want_ids.tolist()
            assert result.distances == want_d.tolist()


# -------------------------------------------------------- auxiliary lifecycle


class TestAuxiliaryLifecycle:
    def test_unbound_collection_offers_nothing(self, rng):
        collection = VectorCollection(DIM)
        collection.insert_many(make_rows("l2", rng, 10))
        assert collection.row_aux(get_score("l2")) is None

    def test_bound_to_another_score_offers_nothing(self, rng):
        db = VectorDatabase(dim=DIM, score="l2")
        db.insert_many(make_rows("l2", rng, 10))
        assert db.collection.row_aux(get_score("cosine")) is None
        assert db.collection.row_aux(get_score("l2")) is not None

    def test_rows_stay_float32_c_contiguous_views(self, rng):
        collection = VectorCollection(DIM)
        for _ in range(40):
            collection.insert(make_rows("l2", rng, 1)[0])
        vectors = collection.vectors
        assert vectors.dtype == np.float32 and vectors.flags["C_CONTIGUOUS"]
        assert vectors.shape == (40, DIM) and collection.alive.shape == (40,)
        assert collection._vec_buf.shape[0] >= 40  # amortised doubling
        assert collection._vec_buf.shape[0] <= 80

    def test_compact_keeps_the_binding(self, rng):
        db = VectorDatabase(dim=DIM, score="cosine")
        db.insert_many(make_rows("cosine", rng, 30))
        db.delete(3)
        fresh = db.collection.compact()
        assert np.array_equal(
            fresh.row_aux(db.score), db.score.row_aux(fresh.vectors)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(GEMV_SCORES),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "insert_many", "delete", "update", "reload"]
                ),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1, max_size=25,
        ),
    )
    def test_auxiliary_tracks_every_mutation(self, name, ops):
        db = VectorDatabase(dim=4, score=name)
        model: dict[int, np.ndarray] = {}
        next_id = 0
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            live = sorted(model)
            if op == "insert":
                vector = rng.normal(size=4).astype(np.float32)
                assert db.insert(vector) == next_id
                model[next_id] = vector
                next_id += 1
            elif op == "insert_many":
                block = rng.normal(size=(int(rng.integers(1, 6)), 4)).astype(np.float32)
                for got, vector in zip(db.insert_many(block), block):
                    assert got == next_id
                    model[next_id] = vector
                    next_id += 1
            elif op == "delete" and live:
                victim = live[int(rng.integers(len(live)))]
                db.delete(victim)
                del model[victim]
            elif op == "update" and live:
                target = live[int(rng.integers(len(live)))]
                vector = rng.normal(size=4).astype(np.float32)
                db.update_vector(target, vector)
                model[target] = vector
            elif op == "reload":
                with tempfile.TemporaryDirectory() as directory:
                    save_database(db, directory)
                    db = load_database(directory)
            collection = db.collection
            assert np.array_equal(
                collection.row_aux(db.score), db.score.row_aux(collection.vectors)
            )
            assert sorted(model) == np.flatnonzero(collection.alive).tolist()
            for item, vector in model.items():
                assert np.array_equal(collection.vectors[item], vector)
            if model:
                probe = next(iter(model.values()))
                keep = collection.alive
                want_ids, want_d = oracle(db.score, probe, collection.vectors, 3, keep)
                result = db.search(probe, k=3, plan=QueryPlan("brute_force"))
                assert result.distances == want_d.tolist()
