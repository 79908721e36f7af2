"""Tests for the basic similarity scores (§2.1)."""

import numpy as np
import pytest

from repro.scores import (
    CosineScore,
    EuclideanScore,
    HammingScore,
    InnerProductScore,
    MahalanobisScore,
    MinkowskiScore,
    SquaredEuclideanScore,
    normalize_rows,
)

ALL_SCORES = [
    EuclideanScore(),
    SquaredEuclideanScore(),
    InnerProductScore(),
    CosineScore(),
    MinkowskiScore(1.0),
    MinkowskiScore(3.0),
    MinkowskiScore(np.inf),
    MinkowskiScore(0.5),
    HammingScore(),
]


class TestEuclidean:
    def test_known_value(self):
        d = EuclideanScore().distances(np.array([0.0, 0.0]), np.array([[3.0, 4.0]]))
        assert d[0] == pytest.approx(5.0)

    def test_pairwise_matches_rowwise(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((9, 5))
        score = EuclideanScore()
        pw = score.pairwise(a, b)
        for i in range(7):
            np.testing.assert_allclose(pw[i], score.distances(a[i], b), atol=1e-5)

    def test_self_distance_zero(self, rng):
        x = rng.standard_normal((4, 6))
        pw = EuclideanScore().pairwise(x, x)
        np.testing.assert_allclose(np.diag(pw), 0.0, atol=1e-5)


class TestSquaredEuclidean:
    def test_is_square_of_l2(self, rng):
        x = rng.standard_normal(8)
        ys = rng.standard_normal((5, 8))
        l2 = EuclideanScore().distances(x, ys)
        sq = SquaredEuclideanScore().distances(x, ys)
        np.testing.assert_allclose(sq, l2**2, rtol=1e-5)

    def test_same_ordering_as_l2(self, rng):
        x = rng.standard_normal(8)
        ys = rng.standard_normal((20, 8))
        l2 = EuclideanScore().distances(x, ys)
        sq = SquaredEuclideanScore().distances(x, ys)
        np.testing.assert_array_equal(np.argsort(l2), np.argsort(sq))


class TestInnerProduct:
    def test_negated(self):
        d = InnerProductScore().distances(
            np.array([1.0, 2.0]), np.array([[3.0, 4.0]])
        )
        assert d[0] == pytest.approx(-11.0)

    def test_similarity_recovers_ip(self):
        score = InnerProductScore()
        assert score.similarity(-11.0) == pytest.approx(11.0)

    def test_higher_ip_means_smaller_distance(self):
        q = np.array([1.0, 0.0])
        d = InnerProductScore().distances(q, np.array([[2.0, 0.0], [1.0, 0.0]]))
        assert d[0] < d[1]


class TestCosine:
    def test_parallel_is_zero(self):
        d = CosineScore().distances(np.array([1.0, 1.0]), np.array([[2.0, 2.0]]))
        assert d[0] == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_is_one(self):
        d = CosineScore().distances(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
        assert d[0] == pytest.approx(1.0)

    def test_opposite_is_two(self):
        d = CosineScore().distances(np.array([1.0, 0.0]), np.array([[-1.0, 0.0]]))
        assert d[0] == pytest.approx(2.0)

    def test_zero_vector_treated_orthogonal(self):
        d = CosineScore().distances(np.array([1.0, 0.0]), np.array([[0.0, 0.0]]))
        assert d[0] == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        q = rng.standard_normal(6)
        ys = rng.standard_normal((5, 6))
        d1 = CosineScore().distances(q, ys)
        d2 = CosineScore().distances(3.5 * q, 0.2 * ys)
        np.testing.assert_allclose(d1, d2, atol=1e-6)

    def test_equals_ip_on_normalized(self, rng):
        data = normalize_rows(rng.standard_normal((20, 8)))
        q = normalize_rows(rng.standard_normal((1, 8)))[0]
        cos = CosineScore().distances(q, data)
        ip = InnerProductScore().distances(q, data)
        # cosine distance = 1 + negative inner product on the sphere
        np.testing.assert_allclose(cos, 1.0 + ip, atol=1e-5)


class TestMinkowski:
    def test_l1_known(self):
        d = MinkowskiScore(1.0).distances(np.zeros(2), np.array([[1.0, -2.0]]))
        assert d[0] == pytest.approx(3.0)

    def test_linf_known(self):
        d = MinkowskiScore(np.inf).distances(np.zeros(2), np.array([[1.0, -2.0]]))
        assert d[0] == pytest.approx(2.0)

    def test_p2_matches_euclidean(self, rng):
        q = rng.standard_normal(5)
        ys = rng.standard_normal((6, 5))
        np.testing.assert_allclose(
            MinkowskiScore(2.0).distances(q, ys),
            EuclideanScore().distances(q, ys),
            rtol=1e-5,
        )

    def test_fractional_norm_not_metric_flag(self):
        assert not MinkowskiScore(0.5).is_metric
        assert MinkowskiScore(1.0).is_metric

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            MinkowskiScore(0.0)

    def test_norm_ordering_with_p(self):
        # For a fixed vector, ||x||_p decreases as p increases.
        x = np.array([[1.0, 1.0, 1.0, 1.0]])
        q = np.zeros(4)
        d1 = MinkowskiScore(1.0).distances(q, x)[0]
        d2 = MinkowskiScore(2.0).distances(q, x)[0]
        dinf = MinkowskiScore(np.inf).distances(q, x)[0]
        assert d1 > d2 > dinf


class TestHamming:
    def test_known_value(self):
        d = HammingScore().distances(
            np.array([1, 0, 1, 0]), np.array([[1, 1, 0, 0]])
        )
        assert d[0] == 2

    def test_binarizes_floats(self):
        d = HammingScore().distances(
            np.array([0.9, 0.1]), np.array([[1.0, 0.0]])
        )
        assert d[0] == 0

    def test_pairwise_symmetric(self, rng):
        bits = (rng.uniform(size=(10, 16)) > 0.5).astype(np.float32)
        pw = HammingScore().pairwise(bits, bits)
        np.testing.assert_array_equal(pw, pw.T)


class TestMahalanobis:
    def test_identity_matrix_is_euclidean(self, rng):
        q = rng.standard_normal(4)
        ys = rng.standard_normal((6, 4))
        m = MahalanobisScore(np.eye(4))
        np.testing.assert_allclose(
            m.distances(q, ys), EuclideanScore().distances(q, ys), rtol=1e-5
        )

    def test_from_data_whitens(self, rng):
        # Strongly correlated 2-d data: whitened distance should treat the
        # low-variance direction as more significant.
        base = rng.standard_normal(500)
        data = np.stack([base, base + 0.01 * rng.standard_normal(500)], axis=1)
        score = MahalanobisScore.from_data(data)
        q = np.array([0.0, 0.0])
        along = score.distances(q, np.array([[1.0, 1.0]]))[0]  # with correlation
        against = score.distances(q, np.array([[1.0, -1.0]]))[0]  # across it
        assert against > along

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MahalanobisScore(np.ones((2, 3)))

    def test_rejects_non_psd(self):
        with pytest.raises(np.linalg.LinAlgError):
            MahalanobisScore(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestNormalizeRows:
    def test_unit_norms(self, rng):
        out = normalize_rows(rng.standard_normal((10, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-5)

    def test_zero_rows_preserved(self):
        out = normalize_rows(np.zeros((2, 3)))
        np.testing.assert_array_equal(out, 0.0)


@pytest.mark.parametrize("score", ALL_SCORES, ids=lambda s: s.name)
class TestScoreContract:
    def test_distances_shape(self, score, rng):
        q = rng.uniform(size=8).astype(np.float32)
        ys = rng.uniform(size=(13, 8)).astype(np.float32)
        d = score.distances(q, ys)
        assert d.shape == (13,)

    def test_pairwise_shape(self, score, rng):
        a = rng.uniform(size=(3, 8)).astype(np.float32)
        b = rng.uniform(size=(5, 8)).astype(np.float32)
        assert score.pairwise(a, b).shape == (3, 5)

    def test_pairwise_consistent_with_distances(self, score, rng):
        a = rng.uniform(size=(3, 8)).astype(np.float32)
        b = rng.uniform(size=(5, 8)).astype(np.float32)
        pw = score.pairwise(a, b)
        for i in range(3):
            np.testing.assert_allclose(pw[i], score.distances(a[i], b), atol=1e-4)

    def test_paired_keys_are_each_rows_own_key(self, score, rng):
        """Row i keyed against query i, as ``keys`` keys it; a score
        without a GEMV form has no paired form either."""
        queries = rng.standard_normal((6, 8)).astype(np.float32)
        rows = rng.standard_normal((6, 8)).astype(np.float32)
        aux = score.row_aux(rows)
        if aux is None:
            with pytest.raises(NotImplementedError):
                score.paired_keys(queries, rows, aux)
            return
        want = [score.keys(q, rows[i : i + 1], aux[i : i + 1])[0] for i, q in enumerate(queries)]
        np.testing.assert_allclose(
            score.paired_keys(queries, rows, aux), want, rtol=1e-5, atol=1e-5
        )

    @pytest.mark.parametrize("dim", [1, 7, 24, 65])
    def test_paired_distances_are_the_distances_bit_for_bit(self, score, dim, rng):
        """Each element of a paired block — broadcast or gathered, in
        any shape — is the one ``distances`` returns for that row."""
        vectors = (rng.standard_normal((40, dim)) * 30).astype(np.float32)
        queries = vectors[:5]
        got = score.paired_distances(queries[:, None, :], vectors[None, :, :])
        if got is None:
            return
        for i, q in enumerate(queries):
            assert got[i].tolist() == score.distances(q, vectors).tolist()
            assert got[i, 3:9].tolist() == score.distances(q, vectors[3:9]).tolist()
        picks = rng.integers(40, size=(3, 11))
        got = score.paired_distances(queries[:3, None, :], vectors.take(picks, axis=0))
        for i, q in enumerate(queries[:3]):
            assert got[i].tolist() == score.distances(q, vectors[picks[i]]).tolist()
