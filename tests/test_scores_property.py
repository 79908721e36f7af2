"""Property-based tests (hypothesis) for score invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.scores import (
    CosineScore,
    EuclideanScore,
    HammingScore,
    MinkowskiScore,
    get_score,
)

finite_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False, width=32
)


#: Components that survive rescaling: zero, or far enough inside float32's
#: normal range that a factor in [0.01, 100] cannot underflow one (or its
#: square, inside a norm) to zero — 1e-45 * 0.5 is the zero vector.
scalable_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=2.0**-10, max_value=100, width=32),
    st.floats(min_value=-100, max_value=-(2.0**-10), width=32),
)


def vec(dim, elements=finite_floats):
    return arrays(np.float32, (dim,), elements=elements)


METRICS = [EuclideanScore(), MinkowskiScore(1.0), MinkowskiScore(np.inf)]


@pytest.mark.parametrize("score", METRICS, ids=lambda s: s.name)
class TestMetricAxioms:
    @given(x=vec(6), y=vec(6))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, score, x, y):
        d_xy = float(score.distances(x, y[None, :])[0])
        d_yx = float(score.distances(y, x[None, :])[0])
        assert d_xy == pytest.approx(d_yx, rel=1e-4, abs=1e-4)

    @given(x=vec(6))
    @settings(max_examples=50, deadline=None)
    def test_identity(self, score, x):
        assert float(score.distances(x, x[None, :])[0]) == pytest.approx(
            0.0, abs=1e-3
        )

    @given(x=vec(6), y=vec(6))
    @settings(max_examples=50, deadline=None)
    def test_non_negative(self, score, x, y):
        assert float(score.distances(x, y[None, :])[0]) >= -1e-6

    @given(x=vec(6), y=vec(6), z=vec(6))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, score, x, y, z):
        d_xz = float(score.distances(x, z[None, :])[0])
        d_xy = float(score.distances(x, y[None, :])[0])
        d_yz = float(score.distances(y, z[None, :])[0])
        assert d_xz <= d_xy + d_yz + 1e-3


class TestCosineProperties:
    @given(x=vec(5), y=vec(5))
    @settings(max_examples=50, deadline=None)
    def test_range(self, x, y):
        d = float(CosineScore().distances(x, y[None, :])[0])
        assert -1e-6 <= d <= 2.0 + 1e-6

    @given(x=vec(5, scalable_floats), scale=st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_positive_scale_invariance(self, x, scale):
        y = x + 1.0  # arbitrary second vector
        d1 = float(CosineScore().distances(x, y[None, :])[0])
        d2 = float(CosineScore().distances(x * np.float32(scale), y[None, :])[0])
        assert d1 == pytest.approx(d2, abs=1e-3)


class TestHammingProperties:
    @given(
        bits=arrays(np.int8, (2, 12), elements=st.integers(min_value=0, max_value=1))
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_dim(self, bits):
        d = float(HammingScore().distances(bits[0], bits[1:])[0])
        assert 0 <= d <= 12

    @given(
        bits=arrays(np.int8, (3, 8), elements=st.integers(min_value=0, max_value=1))
    )
    @settings(max_examples=50, deadline=None)
    def test_triangle(self, bits):
        score = HammingScore()
        d = lambda a, b: float(score.distances(a, b[None, :])[0])
        assert d(bits[0], bits[2]) <= d(bits[0], bits[1]) + d(bits[1], bits[2])


class TestPairwiseConsistency:
    @given(
        a=arrays(np.float32, (3, 4), elements=finite_floats),
        b=arrays(np.float32, (4, 4), elements=finite_floats),
        name=st.sampled_from(["l2", "l1", "cosine", "ip", "linf", "sqeuclidean"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairwise_equals_rowwise(self, a, b, name):
        score = get_score(name)
        pw = score.pairwise(a, b)
        for i in range(a.shape[0]):
            np.testing.assert_allclose(
                pw[i], score.distances(a[i], b), rtol=1e-3, atol=1e-3
            )
