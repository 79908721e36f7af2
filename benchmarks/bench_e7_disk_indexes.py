"""E7 (§2.2 disk-resident): DiskANN and SPANN I/O economics.

Regenerates:

* I/Os (page reads) per query at matched recall for DiskANN, SPANN,
  and the naive baseline of IVF posting lists on disk (SPANN with
  closure disabled) — graph beams read far fewer pages than posting
  scans;
* SPANN closure-assignment ablation: replication buys recall at fixed
  nprobe at a bounded storage overhead [32];
* RAM footprint: both disk indexes keep a small fraction of the raw
  vectors resident (DiskANN: PQ codes; SPANN: centroids);
* DiskANN beside the in-memory Vamana graph built with its graph
  parameters: one beam kernel, ranked by ADC code keys over pages or by
  exact keys over a resident slot matrix.
"""

import time

import numpy as np
import pytest

from _util import emit, recall_of
from repro.bench.reporting import format_table
from repro.core.types import SearchStats
from repro.index import DiskAnnIndex, SpannIndex, VamanaIndex

#: DiskANN's graph parameters in E7 (Vamana's ``beam_width`` is its
#: build beam).
GRAPH = {"max_degree": 24, "alpha": 1.2, "seed": 0}


@pytest.fixture(scope="module")
def disk_indexes(workload):
    return {
        "diskann": DiskAnnIndex(
            build_beam_width=64, pq_m=16, pq_ks=64, beam_width=32, **GRAPH
        ).build(workload.train),
        "spann(closure)": SpannIndex(
            num_postings=64, closure_epsilon=0.25, max_replicas=3, nprobe=8,
            seed=0,
        ).build(workload.train),
        "spann(no closure)": SpannIndex(
            num_postings=64, closure_epsilon=0.0, max_replicas=1, nprobe=8,
            seed=0,
        ).build(workload.train),
    }


@pytest.fixture(scope="module")
def e7_io_table(disk_indexes, workload, truth10):
    raw = workload.train.nbytes
    rows = []
    for name, index in disk_indexes.items():
        stats = SearchStats()
        recalls = [
            recall_of(index.search(q, 10, stats=stats), truth10[i])
            for i, q in enumerate(workload.queries)
        ]
        rows.append(
            {
                "index": name,
                "recall@10": round(float(np.mean(recalls)), 3),
                "pages/query": round(stats.page_reads / len(workload.queries), 1),
                "ram_frac_of_raw": round(index.memory_bytes() / raw, 3),
            }
        )
    emit("e7_io", format_table(
        rows, "E7a: disk-resident index I/O per query at default settings"
    ))
    return rows


@pytest.fixture(scope="module")
def e7_closure_table(workload, truth10):
    rows = []
    for eps, replicas in ((0.0, 1), (0.15, 2), (0.3, 3), (0.5, 4)):
        index = SpannIndex(
            num_postings=64, closure_epsilon=eps, max_replicas=replicas, seed=0
        ).build(workload.train)
        stats = SearchStats()
        recalls = [
            recall_of(index.search(q, 10, nprobe=4, stats=stats), truth10[i])
            for i, q in enumerate(workload.queries)
        ]
        rows.append(
            {
                "closure_eps": eps,
                "max_replicas": replicas,
                "replication": round(index.replication_factor, 2),
                "recall@10(nprobe=4)": round(float(np.mean(recalls)), 3),
                "pages/query": round(stats.page_reads / len(workload.queries), 1),
            }
        )
    emit("e7_closure", format_table(
        rows, "E7b: SPANN closure-assignment ablation [32]"
    ))
    return rows


def _us_per_query(index, queries, passes=3, **params):
    """Best of ``passes`` timed passes over ``queries``, µs a query."""
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for q in queries:
            index.search(q, 10, **params)
        best = min(best, time.perf_counter() - start)
    return best / len(queries) * 1e6


@pytest.fixture(scope="module")
def e7_graph_table(disk_indexes, workload, truth10):
    vamana = VamanaIndex(beam_width=64, **GRAPH).build(workload.train)
    cases = [("diskann (L=32)", disk_indexes["diskann"], {})]
    cases += [
        (f"vamana (ef={ef})", vamana, {"ef_search": ef}) for ef in (10, 32)
    ]
    rows = []
    for name, index, params in cases:
        stats = SearchStats()
        recalls = [
            recall_of(index.search(q, 10, stats=stats, **params), truth10[i])
            for i, q in enumerate(workload.queries)
        ]
        rows.append(
            {
                "index": name,
                "recall@10": round(float(np.mean(recalls)), 3),
                "pages/query": round(stats.page_reads / len(workload.queries), 1),
                "dists/query": round(
                    stats.distance_computations / len(workload.queries), 1
                ),
                "us/query": round(_us_per_query(index, workload.queries, **params)),
            }
        )
    emit("e7_graph", format_table(
        rows, "E7c: DiskANN beside in-memory Vamana, same graph parameters"
    ))
    return rows


def test_e7_diskann_reads_fewer_pages_than_posting_scan(e7_io_table):
    by_name = {r["index"]: r for r in e7_io_table}
    assert by_name["diskann"]["pages/query"] < by_name["spann(no closure)"][
        "pages/query"
    ] * 2  # beams, not full postings (postings pack many vectors per page)
    assert by_name["diskann"]["recall@10"] >= 0.8


def test_e7_ram_fraction_small(e7_io_table):
    for row in e7_io_table:
        assert row["ram_frac_of_raw"] < 0.8


def test_e7_resident_graph_bounds_diskann_recall(e7_graph_table):
    # Exact keys over the resident graph rank at least as well as ADC
    # keys over its pages at the same search list size.
    by_name = {r["index"]: r for r in e7_graph_table}
    assert by_name["vamana (ef=32)"]["recall@10"] >= by_name["diskann (L=32)"][
        "recall@10"
    ]
    assert by_name["vamana (ef=32)"]["pages/query"] == 0


def test_e7_closure_buys_recall(e7_closure_table):
    recalls = [r["recall@10(nprobe=4)"] for r in e7_closure_table]
    assert recalls[-1] >= recalls[0] - 0.01
    replications = [r["replication"] for r in e7_closure_table]
    assert replications[-1] > replications[0]


def test_bench_e7_diskann_search(benchmark, disk_indexes, workload,
                                 e7_io_table, e7_closure_table, e7_graph_table):
    index = disk_indexes["diskann"]
    q = workload.queries[0]
    benchmark(lambda: index.search(q, 10))


def test_bench_e7_spann_search(benchmark, disk_indexes, workload):
    index = disk_indexes["spann(closure)"]
    q = workload.queries[0]
    benchmark(lambda: index.search(q, 10))
