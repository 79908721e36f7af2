"""Tests for the torture rig (repro.torture) and the crash-safe storage.

The heart of the file is the acceptance criterion of the rig itself:
killing two successive ``save_database`` calls at *every* journaled write
prefix (and at torn half-writes) must always reopen to a committed
state.  Around it: TortureFS journal/replay unit tests, corrupt-file
error hygiene, the metamorphic relations and differential search over
every registered index type, and the CLI contract.
"""

import io
import json
import zlib

import numpy as np
import pytest

from repro.core.database import VectorDatabase
from repro.core.errors import StorageError
from repro.index.registry import available_indexes
from repro.storage.atomic import atomic_write_bytes, checksum, npz_bytes
from repro.storage.persist import (
    MANIFEST_NAME,
    load_collection,
    load_database,
    save_database,
)
from repro.torture import (
    RELATIONS,
    TortureFS,
    TortureReport,
    run_crash,
    run_differential,
    run_metamorphic,
)
from repro.torture.driver import main


def small_database(seed=3, n=40, dim=6):
    rng = np.random.default_rng(seed)
    db = VectorDatabase(dim=dim)
    db.insert_many(
        rng.standard_normal((n, dim)).astype(np.float32),
        [{"tag": int(i % 3)} for i in range(n)],
    )
    db.create_index("exact", "flat")
    return db


# ---------------------------------------------------------------- TortureFS


class TestTortureFS:
    def test_journal_captures_writes_and_replays_prefixes(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (root / "base.txt").write_bytes(b"base")
        fs = TortureFS(root)
        fs.write_file(root / "a.tmp", b"payload")
        fs.replace(root / "a.tmp", root / "a.txt")
        fs.remove(root / "base.txt")
        assert fs.num_ops == 3
        assert fs.describe_ops()[0].startswith("write a.tmp")

        # Prefix 0 is the untouched base image.
        dest = fs.replay_prefix(0, tmp_path / "replay")
        assert (dest / "base.txt").read_bytes() == b"base"
        assert not (dest / "a.tmp").exists()
        # Prefix 2: write + publish happened, remove did not.
        dest = fs.replay_prefix(2, tmp_path / "replay")
        assert (dest / "a.txt").read_bytes() == b"payload"
        assert (dest / "base.txt").exists()
        # Full replay matches the live directory.
        dest = fs.replay_prefix(3, tmp_path / "replay")
        assert not (dest / "base.txt").exists()

    def test_torn_replay_half_writes_the_next_op(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        fs = TortureFS(root)
        fs.write_file(root / "f.tmp", b"0123456789")
        dest = fs.replay_prefix(0, tmp_path / "replay", torn=True)
        assert (dest / "f.tmp").read_bytes() == b"01234"

    def test_operations_outside_root_are_rejected(self, tmp_path):
        fs = TortureFS(tmp_path / "root")
        with pytest.raises(StorageError, match="outside journaled root"):
            fs.write_file(tmp_path / "elsewhere.txt", b"x")

    def test_prefix_out_of_range_is_an_error(self, tmp_path):
        fs = TortureFS(tmp_path / "root")
        with pytest.raises(ValueError):
            fs.replay_prefix(1, tmp_path / "replay")


# ------------------------------------------------- crash-recovery acceptance


class TestCrashRecovery:
    def test_save_database_every_prefix_is_old_or_new(self, tmp_path):
        report = TortureReport()
        from repro.torture.crash import crash_recovery_database

        crash_recovery_database(11, tmp_path, report)
        assert report.checks["crash"] > 10  # the loop really enumerated
        assert report.findings == []

    def test_run_crash_merges_both_loops(self, tmp_path):
        report = run_crash(5, tmp_path, depth="smoke")
        assert report.ok
        assert report.checks["crash"] > 20

    def test_snapshot_overwrite_keeps_old_generation_until_commit(
        self, tmp_path
    ):
        db = small_database()
        save_database(db, tmp_path)
        db.insert(np.zeros(6, dtype=np.float32), {"tag": 9})
        fs = TortureFS(tmp_path)
        save_database(db, tmp_path, fs=fs)
        # Every journaled write lands under a fresh generation or a
        # temp name: committed files are never opened for overwrite.
        manifest_rel = MANIFEST_NAME
        for op in fs.ops:
            if op.kind == "write":
                assert op.path.endswith(".tmp")
            if op.kind == "replace" and op.dest == manifest_rel:
                break


# -------------------------------------------------------- corrupt snapshots


class TestCorruptSnapshots:
    def corrupt(self, directory, pattern, data):
        (victim,) = directory.glob(pattern)
        victim.write_bytes(data)
        return victim.name

    def test_truncated_npz_names_the_file(self, tmp_path):
        db = small_database()
        save_database(db, tmp_path)
        (victim,) = tmp_path.glob("collection-*.npz")
        payload = victim.read_bytes()
        victim.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(StorageError, match=victim.name):
            load_database(tmp_path)

    def test_garbage_json_names_the_file_not_jsondecodeerror(self, tmp_path):
        db = small_database()
        save_database(db, tmp_path)
        # Keep checksums consistent so the parse failure is what fires.
        (victim,) = tmp_path.glob("attributes-*.json")
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        garbage = b"{not json"
        manifest["files"][victim.name] = checksum(garbage)
        victim.write_bytes(garbage)
        atomic_write_bytes(
            tmp_path / MANIFEST_NAME,
            json.dumps(manifest).encode("utf-8"),
        )
        with pytest.raises(StorageError, match=victim.name):
            load_database(tmp_path)

    def test_checksum_mismatch_names_the_file(self, tmp_path):
        db = small_database()
        save_database(db, tmp_path)
        (victim,) = tmp_path.glob("attributes-*.json")
        victim.write_bytes(b'{"attributes": []}')
        with pytest.raises(StorageError, match=f"checksum.*{victim.name}"):
            load_database(tmp_path)

    def test_missing_data_file_names_the_file(self, tmp_path):
        db = small_database()
        save_database(db, tmp_path)
        (victim,) = tmp_path.glob("collection-*.npz")
        victim.unlink()
        with pytest.raises(StorageError, match=victim.name):
            load_database(tmp_path)

    def test_corrupt_manifest_names_the_manifest(self, tmp_path):
        db = small_database()
        save_database(db, tmp_path)
        (tmp_path / MANIFEST_NAME).write_bytes(b"\x00\x01")
        with pytest.raises(StorageError, match=MANIFEST_NAME):
            load_database(tmp_path)

    def test_missing_directory_is_a_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            load_collection(tmp_path / "nowhere")


# -------------------------------------------- metamorphic + differential


class TestMetamorphicRelations:
    def test_at_least_five_relations_are_registered(self):
        assert len(RELATIONS) >= 5
        for rel in RELATIONS.values():
            assert rel.description

    def test_smoke_over_every_registered_index_type(self):
        report = run_metamorphic(available_indexes(), seed=42)
        assert report.findings == [], report.render()
        assert report.checks["metamorphic"] > len(available_indexes())

    def test_violation_becomes_rule_tagged_finding_with_repro(self):
        # An intentionally broken "index" cannot sneak past the
        # delete-liveness oracle: monkeypatch-free, we just run the
        # relation against a seed and verify the finding schema via a
        # synthetic report.
        report = TortureReport()
        RELATIONS["delete-liveness"].run("flat", 7, report)
        assert report.ok
        # Schema check on a hand-built finding, as emit would produce.
        from repro.torture.reporting import TortureFinding

        f = TortureFinding(
            rule="MR-DELETE-LIVENESS",
            pillar="metamorphic",
            subject="delete-liveness:flat",
            seed=7,
            message="deleted ids [1] returned",
            repro="torture --pillar metamorphic --relation "
            "delete-liveness --index flat --seed 7",
        )
        assert "--seed 7" in f.render()
        assert f.to_dict()["rule"] == "MR-DELETE-LIVENESS"


class TestDifferentialSearch:
    def test_smoke_over_every_registered_index_type(self):
        report = run_differential(available_indexes(), seed=42)
        assert report.findings == [], report.render()
        assert report.checks["differential"] >= len(available_indexes())

    def test_exact_indexes_match_the_oracle_verbatim(self):
        # flat vs kdtree agree exactly on any seeded instance, so a
        # green differential run over just the exact pair proves the
        # DIFF-EXACT oracle is reachable and satisfied.
        report = run_differential(["flat", "kdtree"], seed=9)
        assert report.ok


# ----------------------------------------------------------------- the CLI


class TestTortureCli:
    def test_green_cell_exits_zero(self, capsys):
        code = main([
            "--pillar", "metamorphic", "--relation", "delete-liveness",
            "--index", "flat", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_unknown_index_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--index", "definitely-not-an-index"])
        assert exc.value.code == 2

    def test_unknown_relation_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--relation", "definitely-not-a-relation"])
        assert exc.value.code == 2

    def test_list_relations(self, capsys):
        assert main(["--list-relations"]) == 0
        out = capsys.readouterr().out
        for name in RELATIONS:
            assert name in out

    def test_json_artifact_is_written(self, tmp_path, capsys):
        artifact = tmp_path / "findings.json"
        code = main([
            "--pillar", "differential", "--index", "flat",
            "--seed", "7", "--json", str(artifact),
        ])
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        assert payload["checks"]["differential"] > 0


# ------------------------------------------------------- atomic primitives


class TestAtomicPrimitives:
    def test_atomic_write_replaces_not_appends(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write_bytes(target, b"longer original payload")
        atomic_write_bytes(target, b"short")
        assert target.read_bytes() == b"short"
        assert not list(tmp_path.glob("*.tmp"))

    def test_checksum_is_crc32(self):
        assert checksum(b"abc") == f"crc32:{zlib.crc32(b'abc'):08x}"

    def test_npz_bytes_roundtrip(self):
        data = npz_bytes(x=np.arange(4), y=np.zeros((2, 2)))
        with np.load(io.BytesIO(data)) as npz:
            assert npz["x"].tolist() == [0, 1, 2, 3]
