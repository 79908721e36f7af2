"""Additional property-based tests: quantizers, SQL, top-k."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.sql import parse_sql
from repro.core.types import Hits
from repro.quantization import ProductQuantizer, ResidualQuantizer, ScalarQuantizer

finite = st.floats(min_value=-20, max_value=20, allow_nan=False, width=32)


class TestScalarQuantizerProperties:
    @given(data=arrays(np.float32, (20, 6), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_within_analytic_bound(self, data):
        sq = ScalarQuantizer(bits=8).train(data)
        recon = sq.decode(sq.encode(data))
        bound = sq.max_reconstruction_error()
        assert (np.abs(recon - data) <= bound[None, :] + 1e-4).all()

    @given(
        data=arrays(np.float32, (20, 4), elements=finite),
        point=arrays(np.float32, (4,), elements=finite),
    )
    @settings(max_examples=50, deadline=None)
    def test_codes_within_range(self, data, point):
        sq = ScalarQuantizer(bits=4).train(data)
        codes = sq.encode(point[None, :])
        assert codes.min() >= 0
        assert codes.max() <= sq.levels

    @given(data=arrays(np.float32, (30, 4), elements=finite))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_decoded_values(self, data):
        """decode(encode(.)) must be a fixed point (projection)."""
        sq = ScalarQuantizer(bits=6).train(data)
        once = sq.decode(sq.encode(data))
        twice = sq.decode(sq.encode(once))
        np.testing.assert_allclose(once, twice, atol=1e-4)


class TestPqProperties:
    @given(
        seed=st.integers(min_value=0, max_value=100),
        m=st.sampled_from([2, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_adc_self_distance_equals_quantization_error(self, seed, m):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((80, 8))
        pq = ProductQuantizer(m=m, ks=16, seed=0).train(data)
        codes = pq.encode(data[:10])
        for i in range(10):
            adc = pq.adc_distances(data[i], codes[i : i + 1])[0]
            recon = pq.decode(codes[i : i + 1]).astype(np.float64)[0]
            err = float(np.sum((data[i] - recon) ** 2))
            assert adc == pytest.approx(err, rel=1e-5, abs=1e-6)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_encoding_is_loss_minimizing_per_subspace(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((60, 4))
        pq = ProductQuantizer(m=2, ks=8, seed=0).train(data)
        x = rng.standard_normal(4)
        code = pq.encode(x[None, :])[0]
        for sub in range(2):
            block = x[sub * 2 : (sub + 1) * 2]
            dists = np.sum((pq._codebooks[sub] - block) ** 2, axis=1)
            assert dists[code[sub]] == pytest.approx(dists.min())


class TestResidualQuantizerProperties:
    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_error_never_grows_with_level(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((60, 6))
        rq = ResidualQuantizer(levels=3, ks=8, seed=0).train(data)
        # Using only the first j levels of the code must not decrease error.
        codes = rq.encode(data)
        prev = np.inf
        for j in range(1, 4):
            partial = np.zeros((data.shape[0], 6))
            for level in range(j):
                partial += rq._codebooks[level][codes[:, level]]
            err = float(np.mean(np.sum((data - partial) ** 2, axis=1)))
            assert err <= prev + 1e-9
            prev = err


class TestTopKProperties:
    @given(
        dists=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1, max_size=200,
        ),
        k=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_prefix(self, dists, k):
        arr = np.asarray(dists)
        ids = np.arange(arr.shape[0])
        hits = Hits.topk(ids, arr, k)
        expected = sorted(arr)[: min(k, arr.shape[0])]
        assert [h.distance for h in hits] == pytest.approx(expected)


class TestSqlEvaluationEquivalence:
    """Parsed SQL predicates evaluate identically to hand-built ones."""

    @given(
        values=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                        max_size=30),
        a=st.integers(min_value=0, max_value=9),
        b=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_and_or_equivalence(self, values, a, b):
        from repro.hybrid.predicates import Field

        columns = {"x": np.asarray(values)}
        parsed = parse_sql(
            f"SELECT * FROM t WHERE x < {a} OR x > {b} AND x != {a} "
            "ORDER BY DISTANCE(v, [1]) LIMIT 1"
        ).predicate
        manual = (Field("x") < a) | ((Field("x") > b) & (Field("x") != a))
        np.testing.assert_array_equal(
            parsed.evaluate(columns), manual.evaluate(columns)
        )

    @given(
        low=st.integers(min_value=0, max_value=5),
        high=st.integers(min_value=5, max_value=10),
        values=st.lists(st.integers(min_value=0, max_value=10), min_size=1,
                        max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_between_equivalence(self, low, high, values):
        from repro.hybrid.predicates import Field

        columns = {"x": np.asarray(values)}
        parsed = parse_sql(
            f"SELECT * FROM t WHERE x BETWEEN {low} AND {high} "
            "ORDER BY DISTANCE(v, [1]) LIMIT 1"
        ).predicate
        manual = Field("x").between(low, high)
        np.testing.assert_array_equal(
            parsed.evaluate(columns), manual.evaluate(columns)
        )


class TestBenchRunnerCli:
    def test_quick_run_prints_tables(self, capsys):
        from repro.bench.runner import main

        assert main(["--n", "300", "--dim", "8", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "master comparison" in out
        assert "Pareto frontier" in out
        assert "hnsw" in out
