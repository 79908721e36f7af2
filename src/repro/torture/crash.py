"""Seeded crash-recovery loop over the snapshot path.

The loop is exhaustive, not sampled: each of two successive snapshot
saves runs once under :class:`~repro.torture.fsshim.TortureFS`, which
journals every filesystem primitive the storage layer performs.  Then
*every* operation prefix — and every torn half-write after a prefix —
is replayed into a fresh directory and reopened.  The oracle is strict
old-or-new per save:

* reopening must always succeed (a crash must never produce an
  unreadable store), and
* the recovered state must equal the pre-save state or the post-save
  state bit-for-bit (vectors, tombstones, attributes) and answer the
  probe queries identically — never a torn hybrid.

The second save starts from the generation the first one published, so
the loop also covers replacing and retiring a generation that was
itself written by a save.  This is the prefix-consistency property the
bug study (arXiv:2506.02617) finds real VDBMSs violating, made a
regression test.
"""

from __future__ import annotations

import pathlib

import numpy as np

from ..core.errors import StorageError
from .fsshim import TortureFS
from .reporting import TortureFinding, TortureReport
from .zoo import torture_hybrid_dataset

__all__ = ["run_crash", "crash_recovery_database"]


def _collection_state(collection) -> dict:
    return {
        "vectors": np.array(collection.vectors, copy=True),
        "alive": np.array(collection.alive, copy=True),
        "columns": {
            name: list(collection._columns_raw[name])
            for name in collection.attribute_names
        },
    }


def _states_equal(collection, state: dict) -> bool:
    if collection.vectors.shape != state["vectors"].shape:
        return False
    if not np.array_equal(collection.vectors, state["vectors"]):
        return False
    if not np.array_equal(collection.alive, state["alive"]):
        return False
    columns = {
        name: list(collection._columns_raw[name])
        for name in collection.attribute_names
    }
    return columns == state["columns"]


def _emit(report, seed, rule, subject, message):
    report.add(TortureFinding(
        rule=rule,
        pillar="crash",
        subject=subject,
        seed=seed,
        message=message,
        repro=f"torture --pillar crash --seed {seed}",
    ))


def _new_rows(db, rng, count: int) -> None:
    extra = rng.standard_normal((count, db.dim)).astype(np.float32)
    extra_attrs = [
        {"category": int(rng.integers(4)), "price": 1.0, "rating": 3}
        for _ in range(count)
    ]
    db.insert_many(extra, extra_attrs)


def crash_recovery_database(
    seed: int, workdir, report: TortureReport
) -> None:
    """Kill two successive ``save_database`` calls at every prefix;
    reopen must be old-or-new for each."""
    from ..core.database import VectorDatabase
    from ..storage.persist import load_database, save_database

    workdir = pathlib.Path(workdir)
    ds = torture_hybrid_dataset(seed, n=64, dim=8, num_queries=4)
    db = VectorDatabase(dim=ds.dim)
    db.insert_many(ds.train, ds.attributes)
    db.create_index("exact", "flat")
    db.create_index("graph", "hnsw", m=6, ef_construction=32, seed=seed)

    def committed() -> tuple[dict, list]:
        state = _collection_state(db.collection)
        return state, [db.search(q, k=5).ids for q in ds.queries]

    snapshot = workdir / "db-snapshot"
    save_database(db, snapshot)  # committed state A

    def journaled_save(generation: int, old: tuple) -> tuple:
        """Save under a fresh journal; every prefix must reopen as the
        ``old`` committed state or the one being saved."""
        new = committed()
        fs = TortureFS(snapshot)
        save_database(db, snapshot, fs=fs)
        for k in range(fs.num_ops + 1):
            for torn in (False, True):
                if torn and k >= fs.num_ops:
                    continue
                subject = f"save_database#{generation}@op{k}" + (
                    "+torn" if torn else ""
                )
                replay = fs.replay_prefix(k, workdir / "db-replay", torn=torn)
                report.count("crash")
                try:
                    loaded = load_database(replay)
                except StorageError as exc:
                    _emit(report, seed, "CRASH-DB-LOAD", subject,
                          f"snapshot unreadable after crash: {exc}")
                    continue
                matches = [
                    answers for state, answers in (old, new)
                    if _states_equal(loaded.collection, state)
                ]
                if not matches:
                    _emit(report, seed, "CRASH-DB-TORN", subject,
                          "recovered collection is neither the old nor the "
                          "new snapshot")
                    continue
                answers = [loaded.search(q, k=5).ids for q in ds.queries]
                if answers != matches[0]:
                    _emit(report, seed, "CRASH-DB-ANSWERS", subject,
                          "recovered database answers probe queries "
                          "differently from its snapshot state: "
                          f"{answers} vs {matches[0]}")
        return new

    state_a = committed()
    rng = np.random.default_rng(seed + 1)
    # State B: new rows, tombstones.
    _new_rows(db, rng, 8)
    for victim in rng.choice(len(ds.train), size=5, replace=False):
        db.delete(int(victim))
    db.rebuild_indexes()
    state_b = journaled_save(1, state_a)

    # State C, saved over the generation the first save published: more
    # rows, tombstones among the live ones and one rewritten vector.
    _new_rows(db, rng, 8)
    *victims, rewritten = rng.choice(
        np.flatnonzero(db.collection.alive), size=6, replace=False
    )
    db.update_vector(
        int(rewritten), rng.standard_normal(ds.dim).astype(np.float32)
    )
    for victim in victims:
        db.delete(int(victim))
    db.rebuild_indexes()
    journaled_save(2, state_b)


def run_crash(seed: int, workdir, depth: str = "smoke") -> TortureReport:
    """The crash loop; nightly re-runs it at three derived seeds."""
    report = TortureReport(depth=depth, seed=seed)
    seeds = [seed] if depth == "smoke" else [seed, seed + 1000, seed + 2000]
    for loop_seed in seeds:
        crash_recovery_database(loop_seed, workdir, report)
    return report
