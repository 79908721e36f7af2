"""One table-index family: one coarse quantizer, one ranking tail.

Every inverted-file structure (IVF-Flat / IVF-SQ / IVF-ADC, SPANN's
trainer, index-guided sharding) trains, assigns and probes through
:class:`CoarseQuantizer`, and every flat / table / tree search ends in
``VectorIndex._brute_force``: mask → (approximate stage) → shortlist →
exact re-score.  The three regressions below each failed when the pieces
were restated per index: ``ivf_adc`` and the binary hashes shortlisted
*before* masking (a masked search came back short), a first build over a
tiny collection clamped ``nlist`` / ``ks`` for the life of the object,
and the cost model priced ``ivf_adc`` as a whole-collection PQ scan.
"""

import pathlib
import re

import numpy as np
import pytest
from oracles import ivfadc_search_reference

from repro import Field, VectorDatabase
from repro.core.cost import WorkCostModel
from repro.core.planner import QueryPlan
from repro.core.types import SearchStats
from repro.distributed import IndexGuidedSharding
from repro.index import FlatIndex, GraphIndex, available_indexes, make_index
from repro.observability import STAT_FIELDS
from repro.quantization import IvfAdc, assign_topn, kmeans
from repro.quantization.kmeans import CoarseQuantizer
from repro.storage.persist import load_database, save_database
from repro.torture.relations import RELATIONS
from repro.torture.reporting import TortureReport

TABLE_INDEXES = [n for n in available_indexes() if make_index(n).family == "table"]
MASKED_FIRST = [  # every index whose search ends in the ranking tail
    n for n in available_indexes()
    if not isinstance(make_index(n), GraphIndex) and n != "diskann"
]
INVERTED_FILES = ["ivf_flat", "ivf_sq", "ivf_adc", "spann"]
#: The three that shortlisted before masking at the parent commit.
SHORTLISTED_FIRST = ["ivf_adc", "itq_hash", "spectral_hash"]
K = 10


def test_every_registered_table_index_is_covered():
    assert set(TABLE_INDEXES) == {
        "lsh", "spectral_hash", "itq_hash", "ivf_flat", "ivf_sq", "ivf_adc",
        "pq", "opq", "sq", "spann",
    }
    assert set(MASKED_FIRST) - set(TABLE_INDEXES) == {
        "flat", "kdtree", "pca_tree", "randkd_forest", "rp_tree", "annoy",
    }


def make(name, **kwargs):
    if name == "opq":
        kwargs.setdefault("opq_iterations", 2)  # the default 10 only costs time
    try:
        return make_index(name, seed=0, **kwargs)
    except TypeError:
        return make_index(name, **kwargs)


# ------------------------------------------- the coarse quantizer's contract


@pytest.fixture(scope="module")
def coarse():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((400, 8))
    data[300:] = data[:100]  # duplicate rows: k-means may land on ties
    quantizer = CoarseQuantizer(12, seed=0)
    quantizer.train(data)
    quantizer.centroids[5] = quantizer.centroids[2]  # duplicate centroids
    quantizer.centroids[9] = quantizer.centroids[2]
    quantizer._norms = np.einsum("ij,ij->i", quantizer.centroids, quantizer.centroids)
    quantizer._x2t = (2.0 * quantizer.centroids).T
    return quantizer, data


@pytest.mark.parametrize("nprobe", [1, 3, 12, 50])
def test_probe_is_assign_topn_order_and_ties(coarse, nprobe):
    quantizer, data = coarse
    want = assign_topn(data, quantizer.centroids, nprobe)
    np.testing.assert_array_equal(quantizer.probe(data, nprobe), want)
    for row, cells in zip(data[:40], want):
        np.testing.assert_array_equal(quantizer.probe(row, nprobe), cells)
        row32 = row.astype(np.float32)  # what an index hands it
        np.testing.assert_array_equal(
            quantizer.probe(row32, nprobe),
            assign_topn(row32[None, :], quantizer.centroids, nprobe)[0],
        )
    assert len(quantizer.probe(data[0], 0)) == 1  # clamped, as IvfFlat always did


def test_training_clamps_without_writing_the_clamp_back():
    quantizer = CoarseQuantizer(64, seed=0)
    rng = np.random.default_rng(1)
    assert len(set(quantizer.train(rng.standard_normal((20, 4))))) == 20
    assert (len(quantizer.lists), quantizer.nlist) == (20, 64)
    quantizer.train(rng.standard_normal((500, 4)))
    assert (len(quantizer.lists), quantizer.nlist) == (64, 64)
    tiny = rng.standard_normal((5, 4))  # the trainer is kmeans over min(nlist, n)
    np.testing.assert_array_equal(
        CoarseQuantizer(9, seed=0).train(tiny), kmeans(tiny, 5, seed=0).assignments
    )
    with pytest.raises(ValueError):
        CoarseQuantizer(0)


def test_ivfadc_batched_tables_equal_the_cell_at_a_time_reference():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((800, 16))
    core = IvfAdc(nlist=12, m=4, ks=32, seed=0).train(data)
    core.add(np.arange(800), data)
    for q in data[:10] + 0.05:
        cells, ids = core.probe(q, 5)
        ref_ids, ref_d, stats = ivfadc_search_reference(core, q, len(ids), nprobe=5)
        dists = core.adc(q, cells)
        order = np.argsort(dists, kind="stable")
        np.testing.assert_array_equal(ids[order], ref_ids)
        np.testing.assert_array_equal(dists[order], ref_d)
        assert (stats.cells_probed, stats.codes_scanned) == (len(cells), len(ids))
        keep = np.flatnonzero(ids % 3 == 0)
        np.testing.assert_array_equal(core.adc(q, cells, keep), dists[keep])


@pytest.mark.parametrize("nprobe", [1, 8, 12])
def test_ivfadc_search_is_the_cell_at_a_time_reference(nprobe):
    # Flat layout, at one cell, some and all of them: same ids, same
    # distance bits, same counters (rerank=0 is ignored by the flat layout).
    rng = np.random.default_rng(4)
    data = rng.standard_normal((800, 16))
    core = IvfAdc(nlist=12, m=4, ks=32, seed=0).train(data)
    core.add(np.arange(800), data)
    for q in np.concatenate([data[:5] + 0.05, rng.standard_normal((5, 16))]):
        got = core.search(q, 10, nprobe=nprobe, rerank=0)
        want = ivfadc_search_reference(core, q, 10, nprobe=nprobe)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]


# ------------------------------------ defect (a): mask first, then shortlist


@pytest.fixture(scope="module")
def masked_case():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((2000, 16)).astype(np.float32)
    queries = rng.standard_normal((6, 16)).astype(np.float32)
    allowed = np.zeros(2000, dtype=bool)
    allowed[rng.choice(2000, size=100, replace=False)] = True  # a 5 % mask
    return data, queries, allowed


@pytest.fixture(scope="module")
def built(masked_case):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = make(name).build(masked_case[0])
        return cache[name]

    return get


def candidate_ids(index, query):
    """What the index ranks for this query when nothing is masked."""
    if index.name == "lsh":
        positions = index._candidates(query.astype(np.float64), index.num_probes)
        return index._ids[positions]
    return np.array([h.id for h in index.search(query, len(index))], dtype=np.int64)


@pytest.mark.parametrize("name", MASKED_FIRST)
def test_masked_search_fills_k_from_its_allowed_candidates(name, built, masked_case):
    _, queries, allowed = masked_case
    index = built(name)
    params = [{}]
    if name in INVERTED_FILES:
        params.append({"nprobe": index.nlist})  # the candidate set is the collection
    for kwargs in params:
        for q in queries:
            hits = index.search(q, K, allowed=allowed, **kwargs)
            if kwargs:
                expected = K
            else:
                expected = min(K, int(allowed[candidate_ids(index, q)].sum()))
            assert len(hits) == expected, (name, kwargs)
            assert all(allowed[h.id] for h in hits)
            assert [h.distance for h in hits] == sorted(h.distance for h in hits)
    if name not in ("lsh",):  # enough candidates by default to owe a full answer
        assert len(index.search(queries[0], K, allowed=allowed)) == K


@pytest.mark.parametrize("name", SHORTLISTED_FIRST)
def test_masking_first_is_never_worse_than_masking_the_shortlist(
    name, built, masked_case
):
    _, queries, allowed = masked_case
    index = built(name)
    shortlist = 4 * K if name == "ivf_adc" else max(K, index.rerank)
    gained = 0
    for q in queries:
        legacy = [h for h in index.search(q, shortlist) if allowed[h.id]][:K]
        hits = index.search(q, K, allowed=allowed)
        assert len(hits) >= len(legacy)
        for mine, theirs in zip(hits, legacy):
            assert mine.distance <= theirs.distance
        gained += len(hits) - len(legacy)
    assert gained > 0  # the parent's rule came back short on this very case


def test_block_first_over_ivf_adc_returns_k_passing_rows(masked_case):
    data, queries, _ = masked_case
    db = VectorDatabase(dim=16)
    db.insert_many(data, [{"g": i % 20} for i in range(2000)])  # selectivity 0.05
    db.create_index("a", "ivf_adc", nprobe=32, seed=0)  # ~50 passing rows probed
    for q in queries:
        result = db.search(
            q, k=K, predicate=Field("g") == 7, plan=QueryPlan("block_first", "a")
        )
        assert len(result.ids) == K and all(i % 20 == 7 for i in result.ids)


def test_exact_kdtree_stays_exact_under_a_sparse_mask(small_data, small_queries):
    # Same class of defect, found by MR-MASK-FILL: the branch-and-bound
    # used the 4k-th *unmasked* neighbour as its bound and came back short.
    allowed = np.random.default_rng(45).random(300) < 0.08
    flat, tree = FlatIndex().build(small_data), make("kdtree").build(small_data)
    for q in small_queries:
        want = [h.id for h in flat.search(q, K, allowed=allowed)]
        assert [h.id for h in tree.search(q, K, allowed=allowed)] == want


def test_mask_fill_relation_is_registered_and_green():
    report = TortureReport(depth="smoke", seed=42)
    for name in ("flat", "ivf_adc", "itq_hash", "spectral_hash", "kdtree", "hnsw"):
        RELATIONS["mask-fill"].run(name, 42, report)
    assert report.findings == []
    assert report.checks["metamorphic"] == 5 * 8  # hnsw: exempt, says so, counts none
    assert "exempt" in RELATIONS["mask-fill"].description


# --------------------------------------------------------- one charge rule


@pytest.mark.parametrize("name", TABLE_INDEXES)
def test_one_charge_rule_for_every_table_index(name, built, masked_case):
    _, queries, allowed = masked_case
    index = built(name)
    stats = SearchStats()  # shared: the rule is about per-search deltas
    for q in queries:
        before = (stats.predicate_evaluations, stats.predicate_rejections,
                  stats.candidates_examined)
        plain = SearchStats()
        index.search(q, K, stats=plain)
        assert (plain.predicate_evaluations, plain.predicate_rejections) == (0, 0)
        index.search(q, K, allowed=allowed, stats=stats)
        evaluated = stats.predicate_evaluations - before[0]
        rejected = stats.predicate_rejections - before[1]
        if name == "spann":  # closure replicas are candidates once per posting
            assert evaluated - rejected == stats.candidates_examined - before[2]
            assert evaluated >= len(candidate_ids(index, q))
            continue
        candidates = candidate_ids(index, q)
        assert evaluated == len(candidates)
        assert rejected == int((~allowed[candidates]).sum())


@pytest.mark.parametrize("index_type", ["ivf_adc", "itq_hash"])
def test_explain_analyze_attributes_block_first_exactly(index_type):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((600, 16)).astype(np.float32)
    db = VectorDatabase(dim=16)
    db.insert_many(rows, [{"g": i % 8} for i in range(600)])
    db.create_index("t", index_type, seed=0)
    profile = db.explain_analyze(
        vector=rows[7], k=5, predicate=Field("g") == 1,
        plan=QueryPlan("block_first", "t"),
    )
    assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
    assert len(profile.result.ids) == 5


# -------------------------------- defect (b): a small first build is not forever


def cells_in_use(index):
    if hasattr(index, "cell_sizes"):
        return len(index.cell_sizes())
    if index.name == "ivf_adc":
        return len(index.core._cell_ids)
    return len(index.posting_page_counts())


def codewords_in_use(index):
    if index.name == "ivf_adc":
        return index.core.pq._codebooks.shape[1]
    quantizer = getattr(index.quantizer, "pq", index.quantizer)
    return quantizer._codebooks.shape[1]


@pytest.fixture(scope="module")
def growth_case():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((1500, 16)).astype(np.float32)
    queries = rng.standard_normal((50, 16)).astype(np.float32)
    flat = FlatIndex().build(rows)
    truth = [{h.id for h in flat.search(q, K)} for q in queries]
    return rows, queries, truth


@pytest.mark.parametrize(
    "name", ["ivf_adc", "pq", "opq", "ivf_flat", "ivf_sq", "spann", "diskann"]
)
def test_rebuild_after_a_tiny_first_build_uses_the_requested_shape(name, growth_case):
    rows, queries, truth = growth_case
    index = make(name).build(rows[:20])
    if name in INVERTED_FILES:
        assert cells_in_use(index) == 20
    index.build(rows)
    fresh = make(name).build(rows)
    if name in INVERTED_FILES:
        assert cells_in_use(index) == cells_in_use(fresh) == 64 == index.nlist
    if name in ("ivf_adc", "pq", "opq"):
        assert codewords_in_use(index) == codewords_in_use(fresh) == 256
    if name == "diskann":
        assert index.pq._codebooks.shape[1] == fresh.pq._codebooks.shape[1] == 256
        queries, truth = queries[:10], truth[:10]

    def recall(ix):
        answers = [{h.id for h in ix.search(q, K)} for q in queries]
        return sum(len(t & a) for t, a in zip(truth, answers)) / (K * len(queries))

    assert recall(index) == recall(fresh)


@pytest.mark.parametrize("index_type", ["ivf_adc", "pq", "opq"])
def test_loaded_database_answers_like_the_one_that_was_saved(
    index_type, growth_case, tmp_path
):
    rows, queries, _ = growth_case
    db = VectorDatabase(dim=16)
    db.insert_many(rows[:20])
    db.create_index("t", index_type, **make(index_type).definition[1])
    db.insert_many(rows[20:])
    db.rebuild_indexes()
    save_database(db, tmp_path)
    restored = load_database(tmp_path)
    plan = QueryPlan("index_scan", "t")
    for q in queries:
        want = db.search(q, k=K, plan=plan).ids
        assert restored.search(q, k=K, plan=plan).ids == want


def test_no_build_assigns_a_constructor_argument():
    pattern = re.compile(r"\.(nlist|ks|num_postings)\s*=[^=]")
    for path in pathlib.Path(make_index.__code__.co_filename).parent.glob("*.py"):
        inside_build = False
        for line in path.read_text().splitlines():
            if line.lstrip().startswith("def "):
                inside_build = line.lstrip().startswith("def _build(")
            assert not (inside_build and pattern.search(line)), (path.name, line)


# ------------------------------ defect (c): ivf_adc is costed as the IVF it is


def test_cost_model_prices_every_inverted_file_by_its_cells():
    model = WorkCostModel()
    n, plan = 5000, QueryPlan("index_scan", "x")

    def estimate(name, **kwargs):
        return model.estimate(plan, make(name, **kwargs), n, K, 1.0)

    inverted = model.distance * (64 + n / 64 * 8)
    for name in ("ivf_flat", "ivf_sq", "ivf_adc"):
        assert estimate(name) == pytest.approx(inverted)
    # Counted in the distances its kernel charges it is the smaller scan:
    # 689 against the 5 000 codes of a whole-collection PQ scan.
    operations = WorkCostModel(distance=1.0, predicate=1.0, page_read=1.0)
    assert operations.estimate(plan, make("ivf_adc"), n, K, 1.0) == 689
    assert operations.estimate(plan, make("pq"), n, K, 1.0) == n
    spann = make("spann")
    assert spann.nlist == spann.num_postings == 64
    assert estimate("spann") == pytest.approx(
        inverted + model.page_read * spann.expected_pages_per_probe() * 8
    )
    # Whole-collection codes: one distance per code, then the re-rank;
    # binary hashes charge only the exact re-rank.
    codes = n * model.distance
    assert estimate("pq") == estimate("opq") == estimate("sq") == pytest.approx(codes)
    assert estimate("pq", rerank=40) == pytest.approx(codes + 40 * model.distance)
    assert estimate("itq_hash") == estimate("spectral_hash") == pytest.approx(
        100 * model.distance
    )
    assert estimate("lsh") == pytest.approx(8 * (n / 16) * model.distance)


# ------------------------------------------------- index-guided sharding


def test_index_guided_sharding_is_train_assign_probe(small_data, small_queries):
    rng = np.random.default_rng(9)
    rows = np.vstack([small_data, rng.standard_normal((1200, 12)).astype(np.float32)])
    strategy = IndexGuidedSharding(8, cells_per_shard=4, seed=0)  # the E11 shape
    shards = strategy.assign(rows)

    fitted = kmeans(rows.astype(np.float64), 32, seed=0)
    np.testing.assert_array_equal(strategy.centroids, fitted.centroids)
    loads = np.zeros(8, dtype=np.int64)
    cell_to_shard = np.zeros(32, dtype=np.int64)
    sizes = np.bincount(fitted.assignments, minlength=32)
    for cell in np.argsort(sizes)[::-1]:  # largest-first onto the emptiest shard
        cell_to_shard[cell] = loads.argmin()
        loads[cell_to_shard[cell]] += sizes[cell]
    np.testing.assert_array_equal(shards, cell_to_shard[fitted.assignments])

    later = rng.standard_normal((50, 12)).astype(np.float32)
    np.testing.assert_array_equal(
        strategy.assign(later),
        cell_to_shard[assign_topn(later, fitted.centroids, 1)[:, 0]],
    )
    for q in small_queries:
        for nprobe in (1, 2, 4, 100):
            cells = assign_topn(q[None, :], fitted.centroids, nprobe)[0]
            want = list(dict.fromkeys(int(cell_to_shard[c]) for c in cells))
            assert strategy.route(q, nprobe) == want
