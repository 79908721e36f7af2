"""Measurement plumbing shared by the four vdbench workloads.

Everything here is the benchmark's own: the span recorder, the pass
loop, the data generators, the brute-force oracle and the flat-scan
roofline.  Nothing in this file imports ``repro`` — the oracle must not
share code with the program it checks.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time

import numpy as np

now = time.perf_counter

K = 10
DIM = 64


# ------------------------------------------------------------------- spans


class Spans:
    """In-memory span recorder: (name, start, end, parent, request id).

    Spans are appended as plain tuples while a run is measured and
    written out once, as JSON lines, when it ends.  ``tags`` carries the
    few facts a layer metric is grouped by (plan strategy, cache
    hit/miss, fresh/stale).
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up passes)."""
        self.rows: list[tuple] = []
        self.passes = 0

    def next_pass(self) -> int:
        """Number of the traced pass about to run; request ids are
        ``<pass>.<query>``, so pass 0 is the first measured one."""
        self.passes += 1
        return self.passes - 1

    def add(self, name, start, end, parent=None, rid=None, **tags) -> int:
        self.rows.append((name, start, end, parent, rid, tags))
        return len(self.rows) - 1

    def durations(self, name, **tags) -> np.ndarray:
        """Seconds of every span called ``name`` whose tags match."""
        return np.array([
            end - start
            for span, start, end, _, _, have in self.rows
            if span == name and all(have.get(k) == v for k, v in tags.items())
        ])

    def mean_us(self, name, **tags) -> float | None:
        """Mean microseconds, or None with fewer than ten samples."""
        found = self.durations(name, **tags)
        return float(found.mean() * 1e6) if found.size >= 10 else None

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, (name, start, end, parent, rid, tags) in enumerate(self.rows):
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": rid, **tags,
                }) + "\n")


# ------------------------------------------------------------------ passes


class Yardstick:
    """A fixed slice of work timed between passes: how slow the machine
    is *right now*, against the speed the benchmark was sized on.

    This sandbox shares its core with neighbours.  For minutes at a time
    interpreter-bound code runs up to twice as slow (a busy sibling vCPU
    reproduces it exactly), which no median over ten seconds of passes
    can remove.  So every run times a yardstick alongside its passes and
    reports its time and rate metrics at reference speed: seconds
    divided, rates multiplied, by ``slowdown``.  The raw values and the
    factor stay in the ``--out`` document.

    There are two kinds, because the slow periods do not slow all code
    alike: over ten minutes the log-amplitude was 0.15 for dispatch-bound
    work (interpreter, ``einsum`` over 32 rows, a GEMV over 4 096) and for
    the HNSW and hybrid passes, but 0.07 for whole-matrix streaming
    (gather 10 000 rows, subtract, reduce) and for brute-force searches.
    A workload names the kind that matches its timed phase.
    """

    #: Quiet-machine seconds of one sample, on the machine and commit the
    #: workloads were sized on; re-measure if the sample bodies change.
    REFERENCE_S = {"dispatch": 0.0041, "stream": 0.00365}
    #: A tick is ~50 ms between passes of ~1 s.  Its first samples run
    #: on caches the pass just emptied and are dropped; with five samples
    #: a tick and none dropped the factor itself moved +-7 % between runs
    #: of one seed, with eight kept it holds normalised QPS within 2 %.
    WARMUP_SAMPLES = 4
    KEPT_SAMPLES = 8

    def __init__(self, kind: str = "dispatch"):
        self.kind = kind
        self._once = {"dispatch": self._dispatch, "stream": self._stream}[kind]
        self.rows = np.random.default_rng(0).standard_normal(
            (10_000, DIM)).astype(np.float32)
        self.every = np.arange(len(self.rows))
        self.samples: list[float] = []
        self.peak_resident_mb = 0.0

    def _dispatch(self) -> float:
        rows, few, acc = self.rows[:4096], self.rows[:32], 0
        start = now()
        for i in range(100):
            query = rows[i]
            diff = few - query
            np.einsum("ij,ij->i", diff, diff)
            np.argpartition(rows @ query, 9)
            acc += sum(j * j % 7 for j in range(60))
        return now() - start

    def _stream(self) -> float:
        rows = self.rows
        start = now()
        for i in range(5):
            diff = rows[self.every] - rows[i]
            np.einsum("ij,ij->i", diff, diff)
        return now() - start

    def tick(self) -> None:
        """The checkpoint between passes (and set-ups): note how much
        memory is resident, then time the yardstick."""
        self.peak_resident_mb = max(self.peak_resident_mb, resident_mb())
        for _ in range(self.WARMUP_SAMPLES):
            self._once()
        for _ in range(self.KEPT_SAMPLES):
            self.samples.append(self._once())

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) / self.REFERENCE_S[self.kind]


def timed_passes(one_pass, seconds: float, yard: Yardstick,
                 min_passes: int = 3) -> list:
    """One discarded warm-up pass, then measured passes for ``seconds``,
    a yardstick tick between each.

    ``one_pass`` returns whatever the workload wants to keep per pass.
    At least ``min_passes`` are measured even on a machine too slow to
    fit them into ``seconds``, so a median always has something under it.
    """
    return rotate([one_pass], seconds, yard, min_rounds=min_passes)[0]


def rotate(passes, seconds: float, yard: Yardstick, min_rounds: int = 2,
           after_warmup=None) -> list[list]:
    """Run each of ``passes`` once to warm up, then take turns for
    ``seconds``; returns one list of per-pass values per callable.

    Taking turns puts machine drift into every variant alike, which is
    what makes the ratio between two of them (an overhead) readable.
    """
    for one_pass in passes:
        one_pass()
    if after_warmup is not None:
        after_warmup()
    out = [[] for _ in passes]
    yard.tick()
    deadline = now() + seconds
    while len(out[0]) < min_rounds or now() < deadline:
        for kept, one_pass in zip(out, passes):
            gc.collect()  # a pass does not pay for its predecessor's garbage
            kept.append(one_pass())
            yard.tick()
    return out


def overhead_pct(slow: list[float], fast: list[float]) -> float:
    """How much longer ``slow`` takes than ``fast``: the median over
    rounds of the ratio within a round, so drift between rounds cancels."""
    return 100.0 * (statistics.median(s / f for s, f in zip(slow, fast)) - 1.0)


class Samples:
    """Per-pass values of one metric.  What gets reported is their
    median unless the caller has a steadier estimate of the same
    quantity; the quartiles are what ``compare.py`` calls the spread."""

    def __init__(self, values, value: float | None = None):
        self.values = [float(v) for v in values]
        self.value = statistics.median(self.values) if value is None else value

    def summary(self) -> dict:
        q1, _, q3 = (
            statistics.quantiles(self.values, n=4)
            if len(self.values) > 1 else (self.values[0],) * 3
        )
        return {"value": float(self.value), "n": len(self.values),
                "q1": q1, "q3": q3}


def latency_summary(passes: list[np.ndarray]) -> dict[str, Samples]:
    """search_qps / p50 / p99 from per-pass arrays of per-call seconds.

    Every pass makes the same calls in the same order, so call ``i`` has
    one latency per pass; its *median over passes* is what a call costs
    when no burst from a neighbour lands on it (in bad minutes here two
    passes in five ran 50 % long, and a median over whole passes moved
    with them).  Throughput is calls over the sum of those typical
    latencies, p50 and p99 are percentiles over the calls.  The per-pass
    values are kept for the spread.
    """
    typical = np.median(np.stack(passes), axis=0)
    return {
        "search_qps": Samples(
            (len(p) / p.sum() for p in passes), len(typical) / typical.sum()),
        "search_p50_ms": Samples(
            (np.percentile(p, 50) * 1e3 for p in passes),
            np.percentile(typical, 50) * 1e3),
        "search_p99_ms": Samples(
            (np.percentile(p, 99) * 1e3 for p in passes),
            np.percentile(typical, 99) * 1e3),
    }


def resident_mb() -> float:
    """Resident set of this process now, from ``/proc/self/statm``.

    Sampled at the checkpoints between set-ups and passes rather than
    read as the kernel's high-water mark: ``ru_maxrss`` is only brought
    up to date at certain events, and whether it caught a 10 MB k-means
    temporary made identical ``serving_frontdoor`` runs read 161, 170 or
    180 MB.
    """
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2 ** 20


# -------------------------------------------------------------------- data


def clustered(rng, n: int, centers: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """``n`` float32 rows scattered with ``sigma`` around random centers."""
    labels = rng.integers(len(centers), size=n)
    rows = centers[labels] + sigma * rng.standard_normal((n, centers.shape[1]))
    return rows.astype(np.float32)


class Attributes:
    """The benchmark's own columnar copy of category / price / rating.

    The program receives the rows as attribute dicts; the oracle filters
    on these arrays, so a predicate the program evaluates wrongly cannot
    hide behind a shared implementation.
    """

    CATEGORIES = 20

    def __init__(self, rng, n: int):
        self.category = rng.integers(self.CATEGORIES, size=n)
        self.price = np.round(rng.lognormal(3.0, 0.7, size=n), 2)
        self.rating = rng.integers(1, 6, size=n)

    def dicts(self) -> list[dict]:
        """The rows as the attribute dicts ``insert_many`` takes."""
        return [
            {"category": int(c), "price": float(p), "rating": int(r)}
            for c, p, r in zip(self.category, self.price, self.rating)
        ]

    def mask(self, spec) -> np.ndarray | None:
        """Boolean row mask for a predicate spec (see ``workloads``)."""
        if spec is None:
            return None
        kind = spec[0]
        if kind == "cat":
            return self.category == spec[1]
        if kind == "rating_le":
            return self.rating <= spec[1]
        if kind == "cat_rating":
            return (self.category == spec[1]) & (self.rating == spec[2])
        if kind == "price_gt":
            return self.price > spec[1]
        raise ValueError(f"unknown predicate spec {spec!r}")


# ------------------------------------------------------------------ oracle


class Verdict:
    """Counts of what the oracle saw; failures stay counted, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.short = 0
        self.recalls: list[float] = []
        self.reasons: dict[str, int] = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 0.0


def exact_topk(rows: np.ndarray, queries: np.ndarray, k: int,
               masks: list[np.ndarray | None]) -> list[np.ndarray]:
    """Exact nearest ids per query under its own row mask.

    One float32 GEMM per block of queries gives squared L2 to every row;
    each query then hides its masked-out rows and takes its top ``k``.
    """
    norms = np.einsum("ij,ij->i", rows, rows)
    out = []
    for lo in range(0, len(queries), 256):
        block = queries[lo:lo + 256]
        dist = norms[None, :] - 2.0 * (block @ rows.T)
        for i, row in enumerate(dist):
            mask = masks[lo + i]
            matching = len(row)
            if mask is not None:
                row = np.where(mask, row, np.inf)
                matching = int(mask.sum())
            take = min(k, matching)
            if take == 0:
                out.append(np.empty(0, dtype=np.int64))
                continue
            part = np.argpartition(row, take - 1)[:take]
            out.append(part[np.argsort(row[part])])
    return out


def check_answers(verdict: Verdict, rows, queries, masks, answers,
                  exact_plans: list[bool] | None = None, k: int = K) -> None:
    """Judge one list of answers (each a list of ids, or None if the call
    raised) against the exact scan of ``rows`` under ``masks``.

    Wrong, and counted as failed: an exception, an id outside the mask
    (deleted row surfaced / predicate violated), a repeated id, more
    than ``k`` hits, or an exact plan that returned fewer than
    min(k, matching).  An approximate plan that comes up short loses
    recall and is counted in ``short`` — post-filtering documents that
    behaviour — but is not an error.
    """
    truth = exact_topk(rows, queries, k, masks)
    for i, ids in enumerate(answers):
        verdict.attempted += 1
        if ids is None:
            verdict.fail("exception")
            continue
        ids = np.asarray(ids, dtype=np.int64)
        mask = masks[i]
        want = truth[i]
        if ids.size and (ids.min() < 0 or ids.max() >= len(rows)):
            verdict.fail("unknown_id")
            continue
        if mask is not None and ids.size and not mask[ids].all():
            verdict.fail("outside_mask")
            continue
        found = set(ids.tolist())
        if len(found) != ids.size or ids.size > k:
            verdict.fail("malformed")
            continue
        if ids.size < want.size:
            if exact_plans is not None and exact_plans[i]:
                verdict.fail("exact_plan_short")
                continue
            verdict.short += 1
        verdict.recalls.append(
            len(found & set(want.tolist())) / want.size
            if want.size else 1.0
        )


# ---------------------------------------------------------------- roofline


def flat_roofline(rows: np.ndarray, queries: np.ndarray, seconds: float,
                  yard: Yardstick, k: int = K) -> dict[str, float]:
    """Single-thread numpy scan of the same matrix: the machine yardstick.

    ``flat_scan_qps`` is one GEMV + ``argpartition`` per query,
    ``flat_batched_qps`` one GEMM over a block of 256.  Neither is a
    metric of the program; they normalise its numbers across machines.
    """
    norms = np.einsum("ij,ij->i", rows, rows)
    k = min(k, len(rows))

    def single():
        start = now()
        for q in queries:
            dist = norms - 2.0 * (rows @ q)
            part = np.argpartition(dist, k - 1)[:k]
            part[np.argsort(dist[part])]
        return len(queries) / (now() - start)

    def batched():
        start = now()
        for lo in range(0, len(queries), 256):
            dist = norms[None, :] - 2.0 * (queries[lo:lo + 256] @ rows.T)
            part = np.argpartition(dist, k - 1, axis=1)[:, :k]
            np.take_along_axis(dist, part, axis=1).argsort(axis=1)
        return len(queries) / (now() - start)

    return {
        "roofline.flat_scan_qps": statistics.median(
            timed_passes(single, seconds / 2, yard)),
        "roofline.flat_batched_qps": statistics.median(
            timed_passes(batched, seconds / 2, yard)),
    }
