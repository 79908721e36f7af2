"""E17 (§2.3 fault path): recall/latency/coverage under injected faults.

Sweeps fault rate x replication factor with seeded chaos plans and
regenerates ``benchmarks/results/e17_faults.txt``: per cell the mean
recall@10, simulated latency (failover + backoff cost included),
coverage fraction, and failover/retry counts.  The headline behaviors:

* at replication_factor >= 2 moderate fault rates cost latency, not
  recall — failover preserves coverage;
* at replication_factor = 1 the same faults surface as partial results
  (coverage < 1) and recall tracks coverage.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from _util import emit, recall_of
from repro.bench.reporting import format_table
from repro.core.cost import WorkCostModel
from repro.core.errors import PartialResultWarning
from repro.distributed import (
    DistributedSearchCluster,
    UniformSharding,
)
from repro.reliability import FaultPlan

#: A 0.5 ms network and 2e-7 s per distance — distances dearer than
#: the fitted price, so that the shard work, not the fixed execution
#: price, sets the simulated latency at this data size.
PRICES = dict(
    cost_model=dataclasses.replace(WorkCostModel(), distance=2e-7),
    network_seconds=5e-4,
)
SHARDS = 8
FAULT_RATES = (0.0, 0.05, 0.15, 0.30)
REPLICATION = (1, 2, 3)


def _run_cell(workload, truth10, fault_rate, replicas):
    plan = FaultPlan.random_plan(
        seed=17, crash_rate=fault_rate / 2, flaky_rate=fault_rate,
        slow_rate=fault_rate, slowdown=5.0, crash_duration_ops=6,
    )
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(SHARDS), replication_factor=replicas,
        index_type="flat", **PRICES, injector=plan.injector(),
        strict=False,
    )
    cluster.load(workload.train)
    recalls, latencies, coverages = [], [], []
    failovers = retries = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialResultWarning)
        for i, q in enumerate(workload.queries):
            result, dstats = cluster.search(q, 10)
            recalls.append(recall_of(result.hits, truth10[i]))
            latencies.append(dstats.simulated_latency_seconds)
            coverages.append(dstats.coverage_fraction)
            failovers += dstats.failovers
            retries += dstats.retries
    return {
        "fault_rate": fault_rate,
        "replicas": replicas,
        "recall@10": round(float(np.mean(recalls)), 3),
        "coverage": round(float(np.mean(coverages)), 3),
        "sim_latency_ms": round(float(np.mean(latencies)) * 1e3, 3),
        "failovers": failovers,
        "retries": retries,
    }


@pytest.fixture(scope="module")
def e17_fault_table(workload, truth10):
    rows = [
        _run_cell(workload, truth10, rate, replicas)
        for rate in FAULT_RATES
        for replicas in REPLICATION
    ]
    emit("e17_faults", format_table(
        rows,
        "E17: fault rate x replication factor (seeded chaos, non-strict)",
    ))
    return rows


def test_e17_no_faults_means_full_coverage(e17_fault_table):
    for row in e17_fault_table:
        if row["fault_rate"] == 0.0:
            assert row["coverage"] == 1.0
            assert row["recall@10"] == 1.0
            assert row["failovers"] == 0


def test_e17_replication_preserves_coverage(e17_fault_table):
    """At equal fault rate, more replicas -> coverage no worse."""
    for rate in FAULT_RATES:
        cells = sorted(
            (r for r in e17_fault_table if r["fault_rate"] == rate),
            key=lambda r: r["replicas"],
        )
        coverages = [c["coverage"] for c in cells]
        assert coverages == sorted(coverages)


def test_e17_faults_trigger_failover_work(e17_fault_table):
    faulty = [r for r in e17_fault_table
              if r["fault_rate"] > 0 and r["replicas"] > 1]
    assert any(r["failovers"] > 0 for r in faulty)
    assert any(r["retries"] > 0 for r in faulty)


def test_e17_recall_tracks_coverage(e17_fault_table):
    """Uniform sharding spreads true neighbors evenly, so mean recall
    stays within a small band of mean coverage."""
    for row in e17_fault_table:
        assert abs(row["recall@10"] - row["coverage"]) <= 0.1


def test_e17_query_throughput(benchmark, workload):
    """pytest-benchmark timing: one query under chaos at rf=2."""
    plan = FaultPlan.random_plan(seed=17, crash_rate=0.05, flaky_rate=0.1,
                                 slow_rate=0.1)
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(SHARDS), replication_factor=2,
        index_type="flat", **PRICES, injector=plan.injector(),
        strict=False,
    )
    cluster.load(workload.train)
    query = workload.queries[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialResultWarning)
        benchmark(lambda: cluster.search(query, 10))
