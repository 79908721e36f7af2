"""Smoke test of vdbench: ``pytest benchmarks/e2e`` or ``python test_smoke.py``.

One ``--quick`` run of every workload in both modes (seconds, not
minutes), checked against ``BENCHMARK.json`` and ``catalog.py``.  It is
not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest
from catalog import PER_LAYER

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("vdbench") / "quick.json"
    done = run("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_declaration_is_well_formed():
    names = WORKLOADS + list(END_TO_END) + [m["name"] for m in BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert END_TO_END["setup_s"]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert declared == {n: row[:2] for n, row in PER_LAYER.items()}


def test_every_layer_metric_names_a_workload_and_what_it_moves():
    for name, (_, _, workloads, moves, _) in PER_LAYER.items():
        assert workloads and set(workloads) <= set(WORKLOADS), name
        assert moves is None or moves in END_TO_END, name


def test_quick_run_reports_every_declared_metric(quick):
    assert list(quick["workloads"]) == WORKLOADS
    assert quick["environment"]["blas_threads"] == 1
    for workload, modes in quick["workloads"].items():
        untraced, traced = modes["untraced"], modes["traced"]
        assert set(untraced["metrics"]) == set(END_TO_END), workload
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        measured_here = {n for n, row in PER_LAYER.items() if workload in row[2]}
        assert set(traced["metrics"]) == measured_here, workload
        for mode in (untraced, traced):
            assert mode["correct"] and mode["failed"] == 0, mode
            assert mode["attempted"] > 0 and mode["failed_share"] == 0
        spans = ROOT / ".vdbench" / f"{workload}.spans.jsonl"
        assert json.loads(spans.read_text().splitlines()[0])["name"]


def test_hybrid_plan_mix_has_all_four_strategies(quick):
    metrics = quick["workloads"]["hybrid_ivf"]["traced"]["metrics"]
    for strategy in ("index_scan", "partition", "post_filter", "pre_filter"):
        assert metrics[f"core.plan_mix.{strategy}"]["value"] > 0, strategy


def test_one_line_result_carries_every_metric_of_its_mode():
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        done = run("--workload", "churn_mixed", "--quick", "--seed", "5",
                   "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}


def test_compare_finds_no_regression_against_itself(quick, tmp_path):
    document = tmp_path / "same.json"
    document.write_text(json.dumps(quick))
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(document), str(document)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "no regression" in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
