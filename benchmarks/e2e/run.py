#!/usr/bin/env python3
"""vdbench: the repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py                    # every workload, both modes
    python3 benchmarks/e2e/run.py --workload knn_hnsw --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --check-counts --quick

With ``--workload`` one workload runs in this process and the last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``.  Without it,
each workload runs in a subprocess of its own (so peak memory and caches
do not leak from one into the next), untraced and then traced, and one
JSON document of everything is written to ``--out``.

The exit code is 1 when any answer was wrong or ``recall_at_10`` fell
under the workload's floor.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKDIR = ROOT / ".vdbench"
SETUP_REPEATS = 3


def pin_threads() -> None:
    """One BLAS thread, set before numpy is first imported: an unpinned
    flat scan swung 865 -> 16 500 QPS between passes on this 2-core box."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas, "blas_threads": 1,
        "machine": platform.machine(),
    }


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in declared()["workloads"]]


# ------------------------------------------------------------- one workload


TIME_UNITS = ("s", "ms", "us", "ns")
RATE_UNITS = ("1/s", "MB/s")


def at_reference_speed(entry: dict, unit: str, slowdown: float) -> dict:
    """Seconds divided, rates multiplied, by the yardstick's slowdown;
    the value as timed stays beside it as ``raw``."""
    if unit in TIME_UNITS:
        factor = 1.0 / slowdown
    elif unit in RATE_UNITS:
        factor = slowdown
    else:
        return entry
    scaled = {k: v * factor if k in ("value", "q1", "q3") else v
              for k, v in entry.items()}
    return {**scaled, "raw": entry["value"]}


def run_one(args) -> int:
    """Run one workload in this process; print its metrics and the
    one-line result."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("vdbench: no src/repro in this checkout to measure")
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from catalog import PER_LAYER
    from harness import Samples, Spans, Yardstick, now
    from workloads import WORKLOADS

    bench = declared()
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.quick, WORKDIR)

    # Set-up is repeated and its median reported, so that work moved
    # from the timed phase into index build shows up as steadily as the
    # timed phase itself.  A traced run reports no set-up time.
    setup_yard = Yardstick()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        setup_yard.tick()
        start = now()
        workload.setup()
        setups.append(now() - start)
    setup_yard.tick()

    yard = Yardstick(workload.yardstick)
    if args.trace:
        spans = Spans()
        measured = workload.trace(args.seconds, spans, yard)
        spans.add("setup", start, start + setups[-1])
        spans.write(WORKDIR / f"{args.workload}.spans.jsonl")
        measured["yardstick.slowdown"] = yard.slowdown
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        measured = workload.measure(args.seconds, yard)
        measured["setup_s"] = Samples(setups)
        measured["peak_rss_mb"] = max(  # checkpoints end before the oracle
            setup_yard.peak_resident_mb, yard.peak_resident_mb)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    verdict = workload.verify()
    if not args.trace:
        measured["recall_at_10"] = verdict.recall

    # Exact counts carry no machine time, whatever their unit: the
    # serving latencies on the simulated clock are in ms and stay as they are.
    simulated = {name for name, row in PER_LAYER.items() if row[4]}
    metrics = {}
    for name, value in measured.items():
        if value is None:  # too few samples to report
            continue
        entry = value.summary() if isinstance(value, Samples) else {
            "value": float(value)}
        if name not in simulated:
            # Set-up has its own yardstick: it ran before the timed phase.
            slowdown = (setup_yard if name.startswith(("setup_s", "index.build"))
                        else yard).slowdown
            entry = at_reference_speed(entry, units[name], slowdown)
        metrics[name] = {**entry, "unit": units[name]}

    correct = verdict.failed == 0 and verdict.recall >= workload.recall_floor
    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "environment": environment(),
        "slowdown": {"setup": setup_yard.slowdown, "timed": yard.slowdown},
        "correct": correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failed_share": verdict.failed / verdict.attempted,
        "failure_reasons": verdict.reasons,
        "recall_at_10": verdict.recall, "recall_floor": workload.recall_floor,
        "metrics": metrics,
    }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    print_metrics(args.workload, metrics)
    print(f"  machine slowdown against the reference yardstick:"
          f" set-up x{setup_yard.slowdown:.3f}, timed x{yard.slowdown:.3f}"
          " (times and rates above are at reference speed)")
    print(f"  oracle: attempted={verdict.attempted} failed={verdict.failed}"
          f" {verdict.reasons or ''} recall_at_10={verdict.recall:.4f}"
          f" (floor {workload.recall_floor}) short={verdict.short}")
    # The one-line result carries every declared metric of this mode; a
    # layer metric this workload does not measure reads 0 there.
    print(json.dumps({
        "correct": correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {
                "value": metrics[name]["value"] if args.trace == 0
                else metrics.get(name, {"value": 0})["value"],
                "unit": unit,
            }
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def print_metrics(workload: str, metrics: dict) -> None:
    print(f"{workload}:")
    for name, entry in metrics.items():
        samples = f"  (n={entry['n']})" if "n" in entry else ""
        print(f"  {name:<46} {entry['value']:>14.6g} {entry['unit']}{samples}")


# ------------------------------------------------------------ all workloads


def child(workload: str, trace: int, args, seconds: float | None = None) -> dict:
    """Run one (workload, mode) in a subprocess and return its document."""
    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"{workload}.trace{trace}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--trace", str(trace), "--out", str(out),
        "--seconds", str(args.seconds if seconds is None else seconds),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if not out.exists():
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}"
                         " without a result")
    return json.loads(out.read_text())


def run_all(args) -> int:
    modes = (0, 1) if args.trace is None else (args.trace,)
    names = ("untraced", "traced")
    document = {"seed": args.seed, "seconds": args.seconds,
                "quick": args.quick, "workloads": {}}
    ok = True
    for workload in workload_names():
        entry = document["workloads"][workload] = {}
        for trace in modes:
            result = entry[names[trace]] = child(workload, trace, args)
            document["environment"] = result["environment"]
            print_metrics(f"{workload} [{names[trace]}]", result["metrics"])
            print(f"  failed_share {result['failed']}/{result['attempted']}"
                  f" {result['failure_reasons'] or ''}"
                  f" recall_at_10={result['recall_at_10']:.4f}"
                  f" correct={result['correct']}")
            ok = ok and result["correct"]
    print("environment:", json.dumps(document["environment"]))
    out = pathlib.Path(args.out) if args.out else WORKDIR / "vdbench.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}; spans in {WORKDIR}")
    return 0 if ok else 1


def check_counts(args) -> int:
    """Run every count metric twice; any difference fails.

    The counts come from the first measured traced pass, whose history
    (set-up, one warm-up) does not depend on the machine's speed, so they
    must repeat exactly for a seed however short the run.
    """
    from catalog import PER_LAYER

    exact = [name for name, row in PER_LAYER.items() if row[4]]
    workloads = [args.workload] if args.workload else workload_names()
    differing = 0
    for workload in workloads:
        first, second = (
            child(workload, 1, args, seconds=1.0)["metrics"] for _ in range(2))
        for name in exact:
            a, b = (run.get(name, {}).get("value") for run in (first, second))
            if a != b:
                differing += 1
                print(f"DIFFERS {workload} {name}: {a!r} != {b!r}")
        counted = sum(name in first for name in exact)
        print(f"{workload}: {counted} count metrics compared")
    print("counts repeat" if not differing else f"{differing} counts differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds"
                             " of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--quick", action="store_true",
                        help="an eighth of the size, for the smoke test")
    parser.add_argument("--check-counts", action="store_true",
                        help="run the count metrics twice; fail if any differs")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(declared()["run_seconds"])
    if args.check_counts:
        return check_counts(args)
    if args.workload is None:
        return run_all(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
