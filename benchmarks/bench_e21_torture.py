"""E21 (testing roadmap): the torture rig as a measurable experiment.

Runs the three pillars at smoke depth over every registered index type
and regenerates ``benchmarks/results/e21_torture.txt``: oracle checks
executed per pillar, the per-relation check counts over the full zoo,
and the crash-loop enumeration sizes.  The headline claims:

* the crash loop enumerates *every* write-prefix (plus torn variants)
  of two successive snapshot saves, and recovery is old-or-new at
  each one;
* all metamorphic relations and the differential oracles hold over all
  registered index types at their declared tolerances;
* every check is regenerable from its seed alone (asserted by running
  one cell twice and comparing reports).
"""

import tempfile

import pytest

from _util import emit
from repro.bench.reporting import format_table
from repro.index.registry import available_indexes
from repro.torture import (
    RELATIONS,
    TortureReport,
    run_crash,
    run_differential,
    run_metamorphic,
)

SEED = 42


@pytest.fixture(scope="module")
def index_names():
    return available_indexes()


def test_e21_crash_loops_every_prefix(tmp_path):
    report = run_crash(SEED, tmp_path, depth="smoke")
    assert report.ok, report.render()
    assert report.checks["crash"] >= 30


def test_e21_rig_report(index_names):
    with tempfile.TemporaryDirectory(prefix="e21-") as tmp:
        crash = run_crash(SEED, tmp, depth="smoke")
    relation_rows = []
    meta = TortureReport(depth="smoke", seed=SEED)
    for name in sorted(RELATIONS):
        rep = run_metamorphic(index_names, SEED, relations=[name])
        meta.merge(rep)
        relation_rows.append({
            "relation": name,
            "checks": rep.total_checks,
            "findings": len(rep.findings),
        })
    diff = run_differential(index_names, SEED)

    assert crash.ok, crash.render()
    assert meta.ok, meta.render()
    assert diff.ok, diff.render()

    pillar_rows = [
        {"pillar": "crash", "checks": crash.total_checks,
         "findings": len(crash.findings),
         "scope": "save_database x 2 generations, every prefix"},
        {"pillar": "metamorphic", "checks": meta.total_checks,
         "findings": len(meta.findings),
         "scope": f"{len(RELATIONS)} relations x {len(index_names)} indexes"},
        {"pillar": "differential", "checks": diff.total_checks,
         "findings": len(diff.findings),
         "scope": f"flat oracle x {len(index_names)} indexes"},
    ]
    emit(
        "e21_torture",
        "\n\n".join([
            format_table(
                pillar_rows,
                title=f"E21: torture rig, smoke depth, seed {SEED}",
            ),
            format_table(relation_rows, title="metamorphic relations"),
        ]),
    )


def test_e21_reports_are_seed_reproducible(index_names):
    subset = [n for n in ("flat", "hnsw", "pq") if n in index_names]
    first = run_differential(subset, seed=7)
    second = run_differential(subset, seed=7)
    assert first.to_json() == second.to_json()


def test_e21_torture_smoke_timing(benchmark):
    """pytest-benchmark timing: one metamorphic cell (the rig's unit of
    reproduction — relation x index x seed)."""
    result = benchmark(
        lambda: run_metamorphic(["hnsw"], SEED, relations=["delete-liveness"])
    )
    assert result.ok
