"""Tests for the register-blocked (Quick-ADC analogue) scan."""

import numpy as np
import pytest
from oracles import ivfadc_search_reference

from repro.quantization import (
    FastScanPQ,
    IvfAdc,
    ProductQuantizer,
    blocked_adc_scan,
    concat_blocked,
    fastscan_accumulate,
    gather_packed_cells,
    naive_adc_scan,
    pack_codes_blocked,
    quantize_table,
    quantize_tables,
    table_quantization_error,
    transpose_codes,
)


@pytest.fixture(scope="module")
def pq_and_codes():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((300, 16))
    pq = ProductQuantizer(m=4, ks=16, seed=0).train(data)
    codes = pq.encode(data)
    return pq, data, codes


class TestQuantizeTable:
    def test_roundtrip_error_within_bound(self, pq_and_codes):
        pq, data, _ = pq_and_codes
        table = pq.adc_table(data[0])
        qt = quantize_table(table)
        recon = qt.table.astype(np.float64) * qt.scale + qt.offset
        bound = table_quantization_error(table)
        assert np.abs(recon - table).max() <= bound * 2 + 1e-9

    def test_constant_table(self):
        qt = quantize_table(np.full((2, 4), 7.0))
        assert (qt.table == 0).all()
        assert qt.offset == 7.0

    def test_subnormal_span_regression(self):
        # Span so small that span / 255 underflows: dividing by the
        # underflowed scale used to emit inf and make the uint8 cast
        # undefined.  The degenerate path must treat it as constant.
        tiny = np.float64(5e-324)
        table = np.array([[0.0, tiny], [tiny, 0.0]])
        with np.errstate(all="raise"):
            qt = quantize_table(table)
        assert qt.scale == 0.0
        assert (qt.table == 0).all()
        recon = qt.dequantize(np.zeros(3, dtype=np.uint32), m=2)
        assert np.isfinite(recon).all()
        np.testing.assert_allclose(recon, 0.0, atol=1e-300)

    def test_constant_table_roundtrips_to_m_lo(self):
        qt = quantize_table(np.full((3, 8), -2.5))
        acc = np.zeros(5, dtype=np.uint32)
        np.testing.assert_allclose(qt.dequantize(acc, m=3), 3 * -2.5)


class TestScans:
    def test_exact_blocked_equals_naive(self, pq_and_codes):
        pq, data, codes = pq_and_codes
        table = pq.adc_table(data[3])
        naive = naive_adc_scan(table, codes)
        blocked = blocked_adc_scan(table, transpose_codes(codes), exact=True)
        np.testing.assert_allclose(naive, blocked, rtol=1e-10)

    def test_quantized_blocked_close_to_naive(self, pq_and_codes):
        pq, data, codes = pq_and_codes
        table = pq.adc_table(data[3])
        naive = naive_adc_scan(table, codes)
        approx = blocked_adc_scan(table, transpose_codes(codes), exact=False)
        per_entry = table_quantization_error(table)
        assert np.abs(naive - approx).max() <= pq.m * per_entry * 2 + 1e-6

    def test_quantized_preserves_ranking(self, pq_and_codes):
        pq, data, codes = pq_and_codes
        table = pq.adc_table(data[3])
        naive = naive_adc_scan(table, codes)
        approx = blocked_adc_scan(table, transpose_codes(codes), exact=False)
        top_naive = set(np.argsort(naive)[:10])
        top_approx = set(np.argsort(approx)[:20])
        assert len(top_naive & top_approx) >= 8

    def test_transpose_layout(self, pq_and_codes):
        _, _, codes = pq_and_codes
        t = transpose_codes(codes)
        assert t.shape == (codes.shape[1], codes.shape[0])
        assert t.flags["C_CONTIGUOUS"]


class TestFastScanPQ:
    def test_search_self_is_top(self, pq_and_codes):
        pq, data, _ = pq_and_codes
        fs = FastScanPQ(pq)
        fs.add(np.arange(len(data)), data)
        ids, dists = fs.search(data[11], k=5, exact=True)
        assert ids[0] == 11 or 11 in ids[:3]
        assert (np.diff(dists) >= -1e-9).all()

    def test_incremental_add(self, pq_and_codes):
        pq, data, _ = pq_and_codes
        fs = FastScanPQ(pq)
        fs.add(np.arange(100), data[:100])
        fs.add(np.arange(100, 200), data[100:200])
        assert len(fs) == 200
        ids, _ = fs.search(data[150], k=3)
        assert 150 in ids

    def test_empty_search(self, pq_and_codes):
        pq, _, _ = pq_and_codes
        fs = FastScanPQ(pq)
        ids, dists = fs.search(np.zeros(16), k=5)
        assert ids.size == 0


class TestBlockedLayout:
    def test_pair_fusion_engages_and_roundtrips(self, pq_and_codes):
        pq, _, codes = pq_and_codes
        blocked = pack_codes_blocked(codes, pq.ks)
        assert blocked.paired  # ks=16, m=4
        assert blocked.m_eff == pq.m // 2
        assert blocked.lut_size == 256
        for p in range(blocked.m_eff):
            fused = (codes[:, 2 * p].astype(np.uint8) << 4) | codes[:, 2 * p + 1]
            np.testing.assert_array_equal(blocked.packed[p], fused)

    def test_unpaired_when_codebook_too_wide(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 200, size=(40, 4), dtype=np.uint8)
        blocked = pack_codes_blocked(codes, ks=256)
        assert not blocked.paired
        assert blocked.m_eff == 4
        np.testing.assert_array_equal(blocked.packed, codes.T)

    def test_blocks_view_pads_tail(self, pq_and_codes):
        pq, _, codes = pq_and_codes
        blocked = pack_codes_blocked(codes[:50], pq.ks)
        tiles = blocked.blocks()
        assert tiles.shape == (blocked.m_eff, 2, 32)
        np.testing.assert_array_equal(
            tiles.reshape(blocked.m_eff, -1)[:, :50], blocked.packed
        )
        assert (tiles.reshape(blocked.m_eff, -1)[:, 50:] == 0).all()

    def test_concat_blocked_preserves_sequence(self, pq_and_codes):
        pq, _, codes = pq_and_codes
        a = pack_codes_blocked(codes[:30], pq.ks)
        b = pack_codes_blocked(codes[30:75], pq.ks)
        cat = concat_blocked([a, b])
        whole = pack_codes_blocked(codes[:75], pq.ks)
        assert cat.n == 75
        np.testing.assert_array_equal(cat.packed, whole.packed)

    def test_accumulate_matches_float_lookup_within_bound(self, pq_and_codes):
        pq, data, codes = pq_and_codes
        table = pq.adc_table(data[5])
        blocked = pack_codes_blocked(codes, pq.ks)
        qluts = quantize_tables(table, paired=blocked.paired)
        approx = qluts.dequantize(fastscan_accumulate(qluts.luts, blocked.packed))
        exact = pq.lookup(table, codes)
        bound = pq.m * table_quantization_error(table) * 2 + 1e-6
        assert np.abs(approx - exact).max() <= bound

    def test_slot_offsets_select_per_cell_luts(self, pq_and_codes):
        pq, data, codes = pq_and_codes
        tables = pq.adc_tables(data[:3])  # 3 "cells"
        parts = [
            pack_codes_blocked(codes[:20], pq.ks),
            pack_codes_blocked(codes[20:50], pq.ks),
            pack_codes_blocked(codes[50:60], pq.ks),
        ]
        blocked = gather_packed_cells(parts, np.array([2, 0]))
        # The LUT stack is built in probe order (slot = probe position),
        # exactly as IvfAdc stacks the probed cells' residual tables.
        qluts = quantize_tables(tables[np.array([2, 0])], paired=blocked.paired)
        slots = np.repeat(np.array([0, 1], dtype=np.int32), [10, 20])
        acc = fastscan_accumulate(
            qluts.luts, blocked.packed, slots * qluts.lut_size
        )
        # Each candidate must be scored against its own cell's table:
        # cell 2's codes against tables[2], cell 0's against tables[0].
        exact = np.concatenate(
            [pq.lookup(tables[2], codes[50:60]), pq.lookup(tables[0], codes[:20])]
        )
        bound = pq.m * (float(tables.max() - tables.min()) / 255.0) + 1e-6
        assert np.abs(qluts.dequantize(acc) - exact).max() <= bound

    def test_joint_quantization_shares_scale(self, pq_and_codes):
        pq, data, _ = pq_and_codes
        tables = pq.adc_tables(data[:4])
        qluts = quantize_tables(tables, paired=True)
        assert qluts.luts.shape == (pq.m // 2, 4, 256)
        assert qluts.luts.flags["C_CONTIGUOUS"]
        # One affine map across the stack: global extrema hit 0 / 255
        # (pair-fused entries sum two uint8 codes, max 510).
        assert qluts.scale >= 0
        assert qluts.luts.max() <= 510


class TestIvfAdcBlockedDifferential:
    """Blocked FastScan vs the per-cell float-table reference scan."""

    @pytest.fixture(scope="class")
    def cores(self):
        rng = np.random.default_rng(11)
        centers = rng.standard_normal((16, 32)) * 3.0
        data = (
            centers[rng.integers(0, 16, size=1500)]
            + rng.standard_normal((1500, 32))
        )
        core = IvfAdc(nlist=16, m=16, ks=16, seed=0, layout="blocked").train(data)
        core.add(np.arange(1500), data)
        queries = data[rng.integers(0, 1500, size=12)] + 0.05 * rng.standard_normal(
            (12, 32)
        )
        return core, data, queries

    def test_exact_rerank_preserves_topk_quality(self, cores):
        core, data, queries = cores
        k = 10
        for q in queries:
            ref_ids, ref_d, _ = ivfadc_search_reference(core, q, k, nprobe=8)
            vec_ids, vec_d, _ = core.search(q, k, nprobe=8)
            assert vec_ids.shape == ref_ids.shape
            # The rerank tail re-scores exactly, so the blocked top-k's
            # true distances can't trail the reference's ADC estimates
            # by more than the estimates' own error; compare against
            # brute-force truth instead of id identity (duplicate PQ
            # codes tie, and tie order is layout-dependent).
            true_vec = np.sum((data[vec_ids] - q) ** 2, axis=1)
            assert np.median(true_vec) <= np.median(ref_d) * 1.5 + 1e-9

    def test_recall_floor_vs_float_adc(self, cores):
        core, data, queries = cores
        k = 10
        ref_hits = vec_hits = 0
        for q in queries:
            truth = set(np.argsort(np.sum((data - q) ** 2, axis=1))[:k].tolist())
            ref_ids, _, _ = ivfadc_search_reference(core, q, k, nprobe=8)
            vec_ids, _, _ = core.search(q, k, nprobe=8)
            ref_hits += len(truth & set(ref_ids.tolist()))
            vec_hits += len(truth & set(vec_ids.tolist()))
        # Bounded-recall contract: the blocked path (quantized LUT +
        # exact rerank) must not trail the float-table reference by
        # more than half a hit per query on average.
        assert vec_hits >= ref_hits - len(queries) // 2

    def test_rerank_zero_returns_lut_estimates(self, cores):
        core, _, queries = cores
        q = queries[0]
        ids, dists, _ = core.search(q, 10, nprobe=8, rerank=0)
        assert ids.shape == (10,)
        assert (np.diff(dists) >= -1e-9).all()
        ref_ids, ref_d, _ = ivfadc_search_reference(core, q, 40, nprobe=8)
        # LUT estimates carry bounded quantization error; the raw top-10
        # must still land inside the float ADC top-40.
        assert len(set(ids.tolist()) & set(ref_ids.tolist())) >= 7

    def test_stats_parity(self, cores):
        core, _, queries = cores
        q = queries[3]
        _, _, ref_stats = ivfadc_search_reference(core, q, 10, nprobe=8)
        _, _, vec_stats = core.search(q, 10, nprobe=8)
        assert vec_stats.cells_probed == ref_stats.cells_probed
        assert vec_stats.codes_scanned == ref_stats.codes_scanned

    def test_adc_tables_match_per_query_table(self, cores):
        core, _, queries = cores
        residuals = queries[:4] - core.centroids[0]
        stacked = core.pq.adc_tables(residuals)
        for i in range(4):
            np.testing.assert_array_equal(
                stacked[i], core.pq.adc_table(residuals[i])
            )

    def test_deterministic(self, cores):
        core, _, queries = cores
        q = queries[5]
        a = core.search(q, 10, nprobe=8)
        b = core.search(q, 10, nprobe=8)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
