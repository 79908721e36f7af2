#!/usr/bin/env python3
"""Compare two vdbench documents: ``compare.py A.json B.json``.

A is the parent, B the change; both are ``--out`` documents of full
runs of ``run.py``.  Every (end-to-end metric, workload) pair is judged
against the bound ``BENCHMARK.json`` fixes for the metric:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     it is better by more than the bound;
* ``same``       it is within the bound;
* ``unresolved`` the spread between passes (interquartile range over
  median, the larger of the two sides) exceeds the bound, so the pair
  cannot be called unchanged — unless B's quartiles all read better
  than A's, which is ``better``.

One row per workload.  Count metrics of the traced runs that differ are
listed under the table: a changed count is a changed plan or workload,
not a speed-up.  Exits 1 on any ``worse`` or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import pathlib
import sys

from catalog import PER_LAYER

ROOT = pathlib.Path(__file__).resolve().parents[2]


def spread(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, signed relative change where positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    if max(spread(a), spread(b)) > bound:
        apart = "q1" in a and "q1" in b and (
            b["q3"] < a["q1"] if better == "lower" else b["q1"] > a["q3"])
        return ("better" if apart else "unresolved"), change
    if change > bound:
        return "worse", change
    return ("better" if change < -bound else "same"), change


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    parent, change = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    failed = False
    notes = []
    print(f"{'workload':<18} " + " ".join(f"{m['name']:>20}" for m in declared)
          + f" {'failed_share':>20}")
    for workload, sides in parent["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            notes.append(f"{workload}: missing from the second document")
            failed = True
            continue
        a, b = sides["untraced"], other["untraced"]
        cells = []
        for metric in declared:
            verdict, moved = judge(
                a["metrics"][metric["name"]], b["metrics"][metric["name"]],
                metric["better"], metric["bound"])
            failed = failed or verdict == "worse"
            cells.append(f"{verdict} {moved * 100:+.1f}%")
        share = f"{a['failed_share']:.4g}->{b['failed_share']:.4g}"
        if b["failed_share"] > a["failed_share"]:
            failed = True
            share += " WORSE"
        print(f"{workload:<18} " + " ".join(f"{c:>20}" for c in cells)
              + f" {share:>20}")
        if "traced" in sides and "traced" in other:
            for name, row in PER_LAYER.items():
                if not row[4]:
                    continue
                before, after = (
                    side["traced"]["metrics"].get(name, {}).get("value")
                    for side in (sides, other))
                if before != after:
                    notes.append(
                        f"{workload}: count {name} {before!r} -> {after!r}")
    print("(positive change = worse; bounds: "
          + ", ".join(f"{m['name']} {m['bound']:g}" for m in declared) + ")")
    for note in notes:
        print(note)
    print("REGRESSION" if failed else "no regression")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
