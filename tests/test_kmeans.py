"""Tests for the from-scratch k-means."""

import tracemalloc

import numpy as np
import pytest
from oracles import (
    assign_reference,
    assign_topn_reference,
    kmeans_pp_init_reference,
    kmeans_reference,
    squared_distances_reference,
)

from repro.quantization import assign, assign_topn, kmeans, kmeans_pp_init
from repro.quantization.kmeans import (
    CoarseQuantizer,
    _distance_blocks,
    _distances,
    _nearest,
    _row_norms,
)


@pytest.fixture
def blobs(rng):
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    labels = rng.integers(3, size=300)
    return centers[labels] + 0.3 * rng.standard_normal((300, 2)), centers


class TestKMeans:
    def test_recovers_separated_clusters(self, blobs):
        data, centers = blobs
        result = kmeans(data, 3, seed=0)
        # Each true center should be within 0.5 of some learned centroid.
        for center in centers:
            d = np.linalg.norm(result.centroids - center, axis=1).min()
            assert d < 0.5

    def test_inertia_nonincreasing_with_k(self, blobs):
        data, _ = blobs
        inertias = [kmeans(data, k, seed=0).inertia for k in (1, 3, 10)]
        assert inertias[0] >= inertias[1] >= inertias[2]

    def test_assignments_match_nearest_centroid(self, blobs):
        data, _ = blobs
        result = kmeans(data, 3, seed=0)
        np.testing.assert_array_equal(
            result.assignments, assign(data, result.centroids)
        )

    def test_k_equals_n_zero_inertia(self, rng):
        data = rng.standard_normal((8, 3))
        result = kmeans(data, 8, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_one_is_mean(self, rng):
        data = rng.standard_normal((50, 4))
        result = kmeans(data, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], data.mean(axis=0), atol=1e-9)

    def test_invalid_k(self, rng):
        data = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            kmeans(data, 0)
        with pytest.raises(ValueError):
            kmeans(data, 6)

    def test_deterministic_given_seed(self, blobs):
        data, _ = blobs
        a = kmeans(data, 3, seed=42)
        b = kmeans(data, 3, seed=42)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_handles_duplicate_points(self):
        data = np.ones((20, 3))
        result = kmeans(data, 4, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_no_empty_clusters_on_clustered_data(self, blobs):
        data, _ = blobs
        result = kmeans(data, 16, seed=0)
        counts = np.bincount(result.assignments, minlength=16)
        assert (counts > 0).all()


class TestAssignTopN:
    def test_first_column_is_nearest(self, blobs):
        data, _ = blobs
        result = kmeans(data, 5, seed=0)
        top2 = assign_topn(data, result.centroids, 2)
        np.testing.assert_array_equal(top2[:, 0], assign(data, result.centroids))

    def test_columns_sorted_by_distance(self, rng):
        centroids = rng.standard_normal((6, 3))
        points = rng.standard_normal((10, 3))
        top = assign_topn(points, centroids, 4)
        for i in range(10):
            d = np.linalg.norm(centroids[top[i]] - points[i], axis=1)
            assert (np.diff(d) >= -1e-9).all()

    def test_n_clamped_to_k(self, rng):
        centroids = rng.standard_normal((3, 2))
        top = assign_topn(rng.standard_normal((4, 2)), centroids, 10)
        assert top.shape == (4, 3)


class TestKMeansPP:
    def test_spreads_centroids(self, blobs):
        data, centers = blobs
        rng = np.random.default_rng(0)
        init = kmeans_pp_init(data, 3, rng)
        # Initial centroids should not all come from one blob.
        dists = np.linalg.norm(init[:, None] - centers[None], axis=2)
        assert len(set(dists.argmin(axis=1))) >= 2


# ------------------------------------------ bit identity with the oracle


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _duplicated(rng, n=60, d=4, distinct=3):
    """Rows drawn from ``distinct`` points: k-means++ runs out of spread
    and seeds duplicate centroids, so Lloyd's first step leaves cells
    empty and the repair runs."""
    return rng.standard_normal((distinct, d))[rng.integers(distinct, size=n)]


def _blobs(rng, n, d, count):
    """Rows around ``count`` well-separated centers: Lloyd's loop reaches
    a fixpoint (a last shift of exactly 0.0) well inside its iteration
    budget."""
    centers = 20 * rng.standard_normal((count, d))
    return centers[rng.integers(count, size=n)] + rng.standard_normal((n, d))


def _grid():
    rng = np.random.default_rng(11)
    tied = rng.standard_normal((400, 8))
    tied[300:] = tied[:100]
    base = rng.standard_normal((500, 16))
    wide = rng.standard_normal((20000, 32))
    # Shapes whose row blocks (2**17 // k rows) are strict fractions of
    # n, the last block overlapping its predecessor.
    return {
        "f64": (base, 10),
        "f32": (base.astype(np.float32), 10),
        "k=1": (rng.standard_normal((200, 8)), 1),
        "k=n": (rng.standard_normal((40, 5)), 40),
        "repair": (_duplicated(rng), 6),
        "tied rows": (tied, 12),
        "pq subspace d=8 ks=256": (rng.standard_normal((2000, 8)), 256),
        "3000x64 k=128": (rng.standard_normal((3000, 64)).astype(np.float32), 128),
        "20000x64 k=16": (rng.standard_normal((20000, 64)), 16),
        "3000x16 k=1024": (rng.standard_normal((3000, 16)), 1024),
        # PQ trains each subspace on a strided column slice.
        "pq subspace 20000x4 ks=256": (wide[:, 4:8], 256),
        "pq subspace 20000x8 ks=256": (wide[:, 16:24], 256),
        "fixpoint 3000x16 k=64": (_blobs(rng, 3000, 16, 40), 64),
    }


GRID = _grid()


@pytest.fixture(scope="module")
def fitted():
    return {
        name: (kmeans(data, k, seed=3), kmeans_reference(data, k, seed=3))
        for name, (data, k) in GRID.items()
    }


@pytest.mark.parametrize("name", list(GRID))
class TestBitIdentity:
    """``kmeans`` / ``kmeans_pp_init`` / ``assign`` / ``assign_topn`` equal
    the retained implementations (``tests/oracles.py``) bit for bit."""

    def test_kmeans(self, name, fitted):
        got, want = fitted[name]
        assert _same_bits(got.centroids, want.centroids)
        assert _same_bits(got.assignments, want.assignments)
        assert got.inertia.hex() == want.inertia.hex()
        assert got.iterations == want.iterations

    def test_kmeans_pp_init(self, name):
        data, k = GRID[name]
        got = kmeans_pp_init(data, k, np.random.default_rng(5))
        want = kmeans_pp_init_reference(data, k, np.random.default_rng(5))
        assert _same_bits(got, want)

    def test_distance_kernel(self, name):
        # Every arithmetic step shows here: argmin and top-n only see the
        # order of the distances, the kernel's own output every bit.
        data, k = GRID[name]
        centroids = kmeans_reference(data, k, seed=3, max_iterations=2).centroids
        want = squared_distances_reference(data, centroids)
        assert _same_bits(_distances(data, _row_norms(data), centroids), want)
        assert _same_bits(_blocked(data, centroids), want)
        points = np.asarray(data, dtype=np.float64)
        assignments, nearest = _nearest(
            points, _row_norms(points), (2.0 * centroids).T, _row_norms(centroids)
        )
        want = squared_distances_reference(points, centroids)
        assert _same_bits(assignments, want.argmin(axis=1))
        assert _same_bits(nearest, want[np.arange(len(points)), assignments])

    def test_assign_and_assign_topn(self, name, fitted):
        data, k = GRID[name]
        centroids = fitted[name][1].centroids
        queries = np.random.default_rng(8).standard_normal((300, data.shape[1]))
        queries = np.concatenate([queries, np.asarray(data, dtype=np.float64)])
        want = assign_reference(queries, centroids)
        assert _same_bits(assign(queries, centroids), want)
        for n in (1, 3, k, k + 5):
            assert _same_bits(
                assign_topn(queries, centroids, n),
                assign_topn_reference(queries, centroids, n),
            )


def _blocked(points, centroids):
    """The blocked pass's distances, assembled into the (n, k) matrix."""
    out = np.empty((len(points), len(centroids)))
    x2t, c_sq = (2.0 * centroids).T, _row_norms(centroids)
    for rows, sq in _distance_blocks(points, _row_norms(points), x2t, c_sq):
        out[rows] = sq
    return out


def test_distance_kernel_where_row_blocks_round_differently():
    # At 20 000 x 64, k = 16, 512-row blocks round some cells of their
    # short 32-row last block differently from the whole product
    # (OpenBLAS's small-matrix kernel takes 512 cells; one thread or
    # two); the pass's equal 8 192-row blocks must not.  At 2 049 x 64,
    # k = 128, a short last block would be one row, which numpy sends
    # to GEMV.
    rng = np.random.default_rng(12)
    for n, k in ((20000, 16), (2049, 128)):
        points, centroids = rng.standard_normal((n, 64)), rng.standard_normal((k, 64))
        want = squared_distances_reference(points, centroids)
        assert _same_bits(_blocked(points, centroids), want)


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 3000])
def test_row_blocks_cover_every_row_at_full_size(n):
    # k = 128: blocks of 1 024 rows, the last ending at row n.
    points = np.zeros((n, 4))
    blocks = [
        rows
        for rows, _ in _distance_blocks(
            points, _row_norms(points), np.zeros((4, 128)), np.zeros(128)
        )
    ]
    assert {r.stop - r.start for r in blocks} == {min(n, 1024)}
    assert blocks[-1].stop == n
    assert all(a.stop >= b.start for a, b in zip(blocks, blocks[1:]))


def test_final_pass_reused_at_a_fixpoint_and_run_otherwise(fitted):
    # A last shift of exactly 0.0 ends the loop with the pass it just
    # ran as the final pass; any other stop runs the final pass.  Both
    # equal the reference, which always runs it (TestBitIdentity).
    for name, fixpoint in (("fixpoint 3000x16 k=64", True), ("20000x64 k=16", False)):
        data, k = GRID[name]
        got, _ = fitted[name]
        earlier = kmeans_reference(data, k, seed=3, max_iterations=got.iterations - 1)
        assert _same_bits(earlier.centroids, got.centroids) == fixpoint
        assert (got.iterations < 25) == fixpoint  # 25: max_iterations


def test_repair_case_seeds_duplicate_centroids():
    data, k = GRID["repair"]
    init = kmeans_pp_init_reference(np.asarray(data), k, np.random.default_rng(3))
    assert len(np.unique(init, axis=0)) < k


@pytest.mark.parametrize("nprobe", [1, 8, 128, 200])
def test_one_query_probe_is_assign_topn(nprobe):
    data, _ = GRID["3000x64 k=128"]
    quantizer = CoarseQuantizer(128, seed=0)
    quantizer.train(data)
    queries = np.random.default_rng(9).standard_normal((3000, 64)).astype(np.float32)
    want = assign_topn_reference(queries, quantizer.centroids, nprobe)
    got = np.stack([quantizer.probe(q, nprobe) for q in queries])
    assert _same_bits(got, want)
    assert _same_bits(quantizer.probe(queries, nprobe), want)


def test_no_n_by_k_buffer_outlives_kmeans():
    n, k = 3000, 128
    data = np.random.default_rng(4).standard_normal((n, 64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert kmeans(data, k, seed=0).iterations >= 1
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nk = n * k * 8
    assert after - before < nk // 4
    assert peak - before < nk  # one row block's two buffers, never n × k


def test_coarse_assign_breaks_ties_as_assign():
    # Integer rows and centroids in {0, 1, 2}^8 put many rows at the same
    # distance from several centroids: the quantizer's nearest cell must
    # be the one `assign` (and k-means training) picks, the first.
    rng = np.random.default_rng(3)
    centroids = np.unique(rng.integers(3, size=(80, 8)), axis=0)[:64].astype(float)
    quantizer = CoarseQuantizer(64, seed=0)
    quantizer.train(centroids)  # k = n distinct rows: each row its own cell
    assert np.array_equal(np.unique(quantizer.centroids, axis=0), centroids)
    rows = rng.integers(3, size=(5000, 8)).astype(np.float32)
    assert np.array_equal(quantizer.assign(rows), assign(rows, quantizer.centroids))
