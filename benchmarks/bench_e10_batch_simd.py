"""E10 (§2.3 hardware acceleration): blocked ADC and batched execution.

Regenerates the two acceleration claims:

* Quick-ADC-style register-blocked, 8-bit-quantized table scans beat
  the scalar gather baseline [26, 27] — in our substrate, the blocked
  contiguous numpy gather vs the per-row Python loop — at negligible
  ranking loss;
* batched queries amortize memory traffic: one (b, n) kernel beats b
  independent scans [50, 79].
"""

import time

import numpy as np
import pytest

from _util import emit
from repro.bench.reporting import format_table
from repro.core.operators import batched_table_scan
from repro.quantization import (
    ProductQuantizer,
    blocked_adc_scan,
    naive_adc_scan,
    transpose_codes,
)
from repro.scores import EuclideanScore


@pytest.fixture(scope="module")
def adc_setup(workload):
    pq = ProductQuantizer(m=8, ks=256, seed=0).train(
        workload.train.astype(np.float64)
    )
    codes = pq.encode(workload.train)
    return pq, codes, transpose_codes(codes)


@pytest.fixture(scope="module")
def e10_adc_table(adc_setup, workload):
    pq, codes, codes_t = adc_setup
    table = pq.adc_table(workload.queries[0].astype(np.float64))
    rows = []

    def timed(fn, repeats=5):
        start = time.perf_counter()
        for _ in range(repeats):
            out = fn()
        return (time.perf_counter() - start) / repeats, out

    t_naive, d_naive = timed(lambda: naive_adc_scan(table, codes), repeats=2)
    t_exact, d_exact = timed(lambda: blocked_adc_scan(table, codes_t, exact=True))
    t_quant, d_quant = timed(lambda: blocked_adc_scan(table, codes_t, exact=False))

    top_naive = set(np.argsort(d_naive)[:10])
    for name, t, d in (
        ("naive scalar gather", t_naive, d_naive),
        ("blocked (exact table)", t_exact, d_exact),
        ("blocked + uint8 table", t_quant, d_quant),
    ):
        top = set(np.argsort(d)[:10])
        rows.append(
            {
                "scan": name,
                "time_ms": round(t * 1e3, 3),
                "speedup": round(t_naive / t, 1),
                "top10_overlap": round(len(top & top_naive) / 10, 2),
            }
        )
    emit("e10_adc", format_table(
        rows, "E10a: ADC scan layouts (Quick-ADC analogue [26, 27])"
    ))
    return rows


@pytest.fixture(scope="module")
def e10_batch_table(workload):
    score = EuclideanScore()
    ids = np.arange(len(workload.train), dtype=np.int64)
    rows = []

    def best_of_3(fn):
        fn()  # warm-up: the first call pays allocation and cache misses
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    for batch_size in (1, 8, 32):
        queries = np.repeat(workload.queries, 2, axis=0)[:batch_size]
        independent = best_of_3(lambda: [
            batched_table_scan(q[None, :], workload.train, ids, score, 10)
            for q in queries
        ])
        batched = best_of_3(
            lambda: batched_table_scan(queries, workload.train, ids, score, 10)
        )
        rows.append(
            {
                "batch": batch_size,
                "independent_ms": round(independent * 1e3, 2),
                "batched_ms": round(batched * 1e3, 2),
                "speedup": round(independent / batched, 2),
            }
        )
    emit("e10_batch", format_table(
        rows, "E10b: batched vs independent brute-force execution"
    ))
    return rows


@pytest.fixture(scope="module")
def e10_shared_traversal_table(workload):
    """Shared-route batched graph search vs independent searches [50, 79]."""
    from repro.core.batched import batched_graph_search
    from repro.core.types import SearchStats
    from repro.index import HnswIndex

    index = HnswIndex(m=12, ef_construction=64, seed=0).build(workload.train)
    rng = np.random.default_rng(2)
    rows = []
    for spread, label in ((0.05, "near-duplicate batch"),
                          (1.0, "diverse batch")):
        base = workload.queries[:4]
        batch = np.vstack([
            b + spread * rng.standard_normal((8, workload.dim)) for b in base
        ]).astype(np.float32)
        shared = SearchStats()
        batched_graph_search(index, batch, 10, ef_search=48, stats=shared)
        independent = SearchStats()
        for q in batch:
            index.search(q, 10, ef_search=48, stats=independent)
        rows.append(
            {
                "batch": label,
                "shared_dists": shared.distance_computations,
                "independent_dists": independent.distance_computations,
                "savings": round(
                    independent.distance_computations
                    / max(1, shared.distance_computations), 2,
                ),
            }
        )
    emit("e10_shared", format_table(
        rows, "E10c: shared-route batched graph search"
    ))
    return rows


def test_e10_shared_traversal_helps_similar_batches(e10_shared_traversal_table):
    near = e10_shared_traversal_table[0]
    assert near["savings"] >= 0.9  # never much worse; usually better
    # Sharing helps near-duplicates at least as much as diverse batches.
    assert near["savings"] >= e10_shared_traversal_table[1]["savings"] - 0.1


def test_e10_blocked_beats_naive(e10_adc_table):
    blocked = [r for r in e10_adc_table if r["scan"].startswith("blocked")]
    assert all(r["speedup"] > 2.0 for r in blocked)


def test_e10_quantized_table_preserves_ranking(e10_adc_table):
    quant = next(r for r in e10_adc_table if "uint8" in r["scan"])
    assert quant["top10_overlap"] >= 0.8


def test_e10_batching_amortizes(e10_batch_table):
    by_batch = {r["batch"]: r["speedup"] for r in e10_batch_table}
    # A single-query scan is one GEMV since the shared scan kernel, so the
    # speedup no longer *grows* with the batch; what holds is that every
    # real batch beats independent execution (a batch of one is the same
    # call on both sides — it only has to be no slower, within noise).
    assert by_batch[1] > 0.7
    assert by_batch[8] > 1.2
    assert by_batch[32] > 1.2


def test_bench_e10_blocked_scan(benchmark, adc_setup, workload, e10_adc_table,
                                e10_batch_table, e10_shared_traversal_table):
    pq, codes, codes_t = adc_setup
    table = pq.adc_table(workload.queries[0].astype(np.float64))
    benchmark(lambda: blocked_adc_scan(table, codes_t, exact=False))


def test_bench_e10_naive_scan(benchmark, adc_setup, workload):
    pq, codes, codes_t = adc_setup
    table = pq.adc_table(workload.queries[0].astype(np.float64))
    benchmark.pedantic(lambda: naive_adc_scan(table, codes), rounds=3,
                       iterations=1)


def test_bench_e10_batched_kernel(benchmark, workload):
    score = EuclideanScore()
    ids = np.arange(len(workload.train), dtype=np.int64)
    benchmark(
        lambda: batched_table_scan(
            workload.queries, workload.train, ids, score, 10
        )
    )
