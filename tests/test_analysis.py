"""Tests for vdblint (repro.analysis): rules, baseline, CLI, self-check.

Each rule family gets a positive fixture (the violation fires) and a
negative fixture (the approved idiom stays silent); the self-check at
the end runs the full linter over ``src/repro`` and asserts the tree is
clean modulo the checked-in baseline — i.e. the repo obeys its own
declared invariants.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import contracts
from repro.analysis.baseline import Baseline, Suppression
from repro.analysis.driver import (
    analyze_paths,
    analyze_source,
    main,
    module_name_for,
)
from repro.analysis.registry import all_rules, get_rule
from repro.core.types import SearchStats

ROOT = Path(__file__).resolve().parents[1]


def lint(code: str, path: str, rule_id: str):
    """Run one rule over a dedented source fixture."""
    return analyze_source(textwrap.dedent(code), path, [get_rule(rule_id)])


class TestRegistry:
    def test_rules_registered_and_well_formed(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert len(rules) == 15
        for rule in rules:
            assert rule.id.startswith("VDB")
            assert rule.invariant
            assert rule.severity in ("error", "warning", "info")

    def test_module_name_for(self):
        assert module_name_for("src/repro/index/hnsw.py") == "repro.index.hnsw"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("tests/test_sql.py") == "tests.test_sql"

    def test_finding_positions_are_one_based_columns(self):
        (f,) = lint(
            "import time\nx = time.time()\n",
            "src/repro/storage/fixture.py",
            "VDB101",
        )
        assert (f.line, f.col) == (2, 5)
        assert f.context == "x = time.time()"
        assert f.path in f.render()


class TestDeterminismRules:
    def test_wall_clock_fires(self):
        code = """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
        """
        found = lint(code, "src/repro/storage/fixture.py", "VDB101")
        assert {f.rule for f in found} == {"VDB101"}
        assert len(found) == 2

    def test_perf_counter_is_exempt(self):
        code = """
            import time

            def probe():
                return time.perf_counter()
        """
        assert lint(code, "src/repro/storage/fixture.py", "VDB101") == []

    def test_legacy_numpy_rng_fires(self):
        code = """
            import numpy as np

            def noise(n):
                return np.random.rand(n) + np.random.standard_normal(n)
        """
        found = lint(code, "src/repro/index/fixture.py", "VDB102")
        assert len(found) == 2

    def test_unseeded_default_rng_fires_seeded_is_clean(self):
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        good = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert len(lint(bad, "src/repro/index/fixture.py", "VDB102")) == 1
        assert lint(good, "src/repro/index/fixture.py", "VDB102") == []

    def test_stdlib_random_module_fires_seeded_instance_is_clean(self):
        code = """
            import random
            from random import shuffle

            def scramble(xs):
                shuffle(xs)
                return random.randint(0, 7)

            def approved(xs, seed):
                rng = random.Random(seed)
                rng.shuffle(xs)
        """
        found = lint(code, "src/repro/reliability/fixture.py", "VDB102")
        assert len(found) == 2  # shuffle(...) and random.randint(...)


class TestLayeringRules:
    def test_scores_may_not_import_index(self):
        code = "from repro.index.hnsw import HnswIndex\n"
        (f,) = lint(code, "src/repro/scores/fixture.py", "VDB201")
        assert "repro.index.hnsw" in f.message

    def test_relative_import_within_allowed_prefix_is_clean(self):
        code = "from ..core.types import SearchStats\n"
        assert lint(code, "src/repro/scores/fixture.py", "VDB201") == []

    def test_lazy_cycle_breaker_allowed_only_in_function_scope(self):
        lazy = """
            def thaw(path):
                from ..core.collection import VectorCollection
                return VectorCollection
        """
        eager = "from ..core.collection import VectorCollection\n"
        assert lint(lazy, "src/repro/storage/fixture.py", "VDB201") == []
        (f,) = lint(eager, "src/repro/storage/fixture.py", "VDB201")
        assert "module scope" in f.message

    def test_importing_the_facade_fires(self):
        (f,) = lint("import repro\n", "src/repro/scores/fixture.py", "VDB201")
        assert "facade" in f.message

    def test_analysis_package_imports_nothing_from_repro(self):
        code = "from repro.core.types import SearchStats\n"
        (f,) = lint(code, "src/repro/analysis/fixture.py", "VDB201")
        assert "analysis" in f.message

    def test_observability_surface_eager_noopable_ok_heavy_lazy_only(self):
        eager_ok = "from ..observability.tracing import Tracer\n"
        eager_bad = "from ..observability.profiler import QueryProfile\n"
        lazy_ok = """
            def explain(self):
                from ..observability.profiler import build_profile_tree
                return build_profile_tree
        """
        path = "src/repro/core/fixture.py"
        assert lint(eager_ok, path, "VDB202") == []
        (f,) = lint(eager_bad, path, "VDB202")
        assert "lazily" in f.message
        assert lint(lazy_ok, path, "VDB202") == []


class TestStatsRules:
    def test_counter_mutation_outside_allowlist_fires(self):
        code = """
            def audit(stats):
                stats.distance_computations += 1
                stats.plan_name = "sneaky"
        """
        found = lint(code, "src/repro/observability/fixture.py", "VDB301")
        assert len(found) == 2

    def test_counter_mutation_in_allowlisted_module_is_clean(self):
        code = "def charge(stats):\n    stats.nodes_visited += 3\n"
        assert lint(code, "src/repro/index/fixture.py", "VDB301") == []

    def test_search_override_must_declare_stats(self):
        code = """
            class MyIndex(VectorIndex):
                def search(self, query, k):
                    return []
        """
        (f,) = lint(code, "src/repro/index/fixture.py", "VDB302")
        assert "stats" in f.message

    def test_search_override_with_stats_param_is_clean(self):
        code = """
            class MyIndex(VectorIndex):
                def search(self, query, k, stats=None):
                    return self._scan(query, k, stats=stats)
        """
        assert lint(code, "src/repro/index/fixture.py", "VDB302") == []

    def test_dropped_stats_fires_threaded_stats_is_clean(self):
        dropped = """
            class MyIndex(VectorIndex):
                def search(self, query, k, stats=None):
                    return sorted(self.rows)[:k]
        """
        threaded = """
            class MyIndex(VectorIndex):
                def search(self, query, k, stats=None):
                    stats.candidates_examined += len(self.rows)
                    return sorted(self.rows)[:k]
        """
        (f,) = lint(dropped, "src/repro/index/fixture.py", "VDB303")
        assert "never threads" in f.message
        assert lint(threaded, "src/repro/index/fixture.py", "VDB303") == []

    def test_abstract_search_declaration_is_exempt(self):
        code = '''
            class Base(VectorIndex):
                def _search(self, query, k, stats):
                    """Subclasses override."""
                    raise NotImplementedError
        '''
        assert lint(code, "src/repro/index/fixture.py", "VDB303") == []


class TestKernelBoundaryRule:
    PATH = "src/repro/index/fixture.py"

    def test_unblessed_matrix_fires(self):
        code = """
            def route(adj, xs, q):
                mat = np.stack(xs)
                return beam_search(adj, mat, q)
        """
        (f,) = lint(code, self.PATH, "VDB401")
        assert "ensure_f32c" in f.message

    def test_bare_parameter_forwarding_is_deferred_to_vdb701(self):
        # A parameter forwarded whole is a demand-forwarding wrapper:
        # VDB401 stays silent and VDB701 enforces at the call edges.
        code = """
            def route(adj, raw, q):
                return beam_search(adj, raw, q)
        """
        assert lint(code, self.PATH, "VDB401") == []

    def test_direct_ensure_f32c_and_blessed_attr_are_clean(self):
        code = """
            def route(self, adj, raw, q):
                a = beam_search(adj, ensure_f32c(raw), q)
                b = beam_search(adj, self._vectors, q)
                c = greedy_walk(adj, vectors=self.vectors, query=q)
                return a, b, c
        """
        assert lint(code, self.PATH, "VDB401") == []

    def test_blessing_propagates_through_locals_and_slices(self):
        code = """
            def route(adj, raw, q):
                mat = ensure_f32c(raw)
                window = mat
                return beam_search(adj, window[:100], q)
        """
        assert lint(code, self.PATH, "VDB401") == []

    def test_kernel_defining_module_is_exempt(self):
        code = """
            def beam_search_reference(adj, vectors, q):
                return beam_search(adj, vectors, q)
        """
        assert lint(code, "src/repro/index/_kernels.py", "VDB401") == []

    def test_lockstep_kernel_is_covered(self):
        code = """
            def insert_wave(self, adj, xs, entries):
                raw = np.stack(xs)
                return lockstep_beam_search(raw[:8], raw, adj, entries, 16, None)
        """
        (f,) = lint(code, self.PATH, "VDB401")
        assert "lockstep_beam_search" in f.message
        code_ok = """
            def insert_wave(self, adj, entries):
                block = self._vectors[:8]
                return lockstep_beam_search(
                    block, self._vectors, adj, entries, 16, None
                )
        """
        assert lint(code_ok, self.PATH, "VDB401") == []

    def test_wave_selection_kernel_is_covered(self):
        code = """
            def link_wave(self, xs, positions, dists):
                raw = np.stack(xs)
                return robust_prune_wave(positions, dists, raw, 16, None)
        """
        (f,) = lint(code, self.PATH, "VDB401")
        assert "robust_prune_wave" in f.message
        code_ok = """
            def link_wave(self, positions, dists):
                return robust_prune_wave(positions, dists, self._vectors, 16, None)
        """
        assert lint(code_ok, self.PATH, "VDB401") == []


class TestPackedLayoutBoundaryRule:
    PATH = "src/repro/quantization/fixture.py"

    def test_raw_array_fires(self):
        code = """
            def scan(luts, codes):
                return fastscan_accumulate(luts, codes.T)
        """
        (f,) = lint(code, self.PATH, "VDB402")
        assert "blocked packer" in f.message

    def test_packer_result_attribute_is_clean(self):
        code = """
            def scan(luts, codes, ks):
                blocked = pack_codes_blocked(codes, ks)
                a = fastscan_accumulate(luts, blocked.packed)
                b = fastscan_accumulate(
                    luts, gather_packed_cells(parts, cells).packed
                )
                return a, b
        """
        assert lint(code, self.PATH, "VDB402") == []

    def test_alias_of_packer_result_is_clean(self):
        code = """
            def scan(luts, parts, cells):
                blocked = gather_packed_cells(parts, cells)
                view = blocked
                return fastscan_accumulate(luts, packed=view.packed)
        """
        assert lint(code, self.PATH, "VDB402") == []

    def test_packed_attr_of_unknown_value_fires(self):
        code = """
            def scan(self, luts):
                return fastscan_accumulate(luts, self._blocked.packed)
        """
        (f,) = lint(code, self.PATH, "VDB402")
        assert f.rule == "VDB402"

    def test_defining_module_is_exempt(self):
        code = """
            def helper(luts, raw):
                return fastscan_accumulate(luts, raw)
        """
        path = "src/repro/quantization/fastscan.py"
        assert lint(code, path, "VDB402") == []


class TestSpanRules:
    PATH = "src/repro/core/fixture.py"

    def test_span_assigned_and_never_closed_fires(self):
        code = """
            def query(tracer):
                span = tracer.start_span("q")
                return 42
        """
        (f,) = lint(code, self.PATH, "VDB501")
        assert "leaks" in f.message

    def test_with_scoped_returned_or_finished_spans_are_clean(self):
        code = """
            def scoped(tracer, stats):
                with tracer.start_span("q").attach_stats(stats) as span:
                    return span

            def handed_back(tracer):
                return tracer.start_span("q")

            def explicit(tracer):
                span = tracer.start_span("q")
                try:
                    pass
                finally:
                    span.finish()
        """
        assert lint(code, self.PATH, "VDB501") == []

    def test_span_created_and_dropped_fires(self):
        code = """
            def fire_and_forget(tracer):
                tracer.start_span("q")
        """
        (f,) = lint(code, self.PATH, "VDB501")
        assert "dropped" in f.message

    def test_hand_off_to_registered_span_owner_is_clean(self):
        # The serving front door's journey-tracing idiom: a root span
        # outlives the creating function by moving into a registered
        # owner (SPAN_OWNER_ATTRS); the terminal disposition closes it.
        code = """
            def arrive(self, tracer, request, inflight):
                self._spans[request.trace_id] = tracer.start_span("serve")

            def arrive_via_name(self, tracer, request):
                root = tracer.start_span("serve", tenant=request.tenant)
                root.set(arrival=request.arrival_seconds)
                self._spans[root.trace_id] = root

            def attach(self, tracer, inflight):
                inflight.span = tracer.start_span("batch")
        """
        path = "src/repro/serving/fixture.py"
        assert lint(code, path, "VDB501") == []

    def test_store_into_unregistered_location_fires(self):
        code = """
            def arrive(self, tracer, request):
                self._pending[request.trace_id] = tracer.start_span("serve")
        """
        (f,) = lint(code, "src/repro/serving/fixture.py", "VDB501")
        assert "unregistered" in f.message

    def test_name_assign_without_owner_handoff_still_fires(self):
        code = """
            def arrive(self, tracer, request):
                root = tracer.start_span("serve")
                self._pending[request.trace_id] = root
        """
        (f,) = lint(code, "src/repro/serving/fixture.py", "VDB501")
        assert "handed off" in f.message

    def test_conditional_on_observability_component_fires(self):
        code = """
            def record(self, n):
                if self.obs.metrics:
                    self.obs.metrics.counter("queries").inc(n)
        """
        (f,) = lint(code, self.PATH, "VDB502")
        assert "no-op twins" in f.message

    def test_normalization_idiom_and_plain_calls_are_clean(self):
        code = """
            def wire(metrics):
                m = metrics if metrics is not None else NOOP_METRICS
                m.counter("queries").inc()
        """
        assert lint(code, self.PATH, "VDB502") == []


class TestStorageWriteRule:
    PATH = "src/repro/storage/fixture.py"

    def test_raw_write_idioms_fire(self):
        code = """
            import os
            import shutil
            import numpy as np

            def persist(path, arr, payload):
                path.write_text(payload)
                arr.tofile(path)
                np.savez_compressed(path, arr=arr)
                with open(path, "wb") as fh:
                    fh.write(payload)
                os.replace(path, path)
                shutil.rmtree(path)
        """
        found = lint(code, self.PATH, "VDB601")
        assert len(found) == 6
        assert all(f.rule == "VDB601" for f in found)

    def test_path_open_with_write_mode_fires(self):
        code = """
            def persist(path, payload):
                with path.open(mode="a") as fh:
                    fh.write(payload)
        """
        (f,) = lint(code, self.PATH, "VDB601")
        assert "temp-file + rename" in f.message

    def test_reads_and_atomic_writer_calls_are_clean(self):
        code = """
            import json
            from .atomic import atomic_write_bytes, npz_bytes

            def roundtrip(path, arrays):
                atomic_write_bytes(path, npz_bytes(**arrays))
                with open(path, "rb") as fh:
                    return json.loads(fh.read())
        """
        assert lint(code, self.PATH, "VDB601") == []

    def test_atomic_writer_module_is_exempt(self):
        code = """
            import os

            def replace(src, dst):
                os.replace(src, dst)
        """
        assert lint(code, "src/repro/storage/atomic.py", "VDB601") == []

    def test_rule_only_covers_storage_modules(self):
        code = """
            def dump(path, payload):
                path.write_text(payload)
        """
        assert lint(code, "src/repro/bench/fixture.py", "VDB601") == []


class TestContractsStayInSync:
    def test_search_stats_fields_match_dataclass(self):
        actual = {f.name for f in dataclasses.fields(SearchStats)}
        assert contracts.SEARCH_STATS_FIELDS == actual

    def test_layering_covers_exactly_the_real_packages(self):
        src = ROOT / "src" / "repro"
        real = {
            p.name for p in src.iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        }
        declared = set(contracts.LAYERING) - {""}
        assert declared == real

    def test_stats_allowlist_globs_match_real_files(self):
        for pattern in contracts.STATS_MUTATION_ALLOWLIST:
            assert list(ROOT.glob(pattern)), f"stale allowlist glob {pattern}"

    def test_kernel_entrypoints_exist(self):
        from repro.index import _graph, _kernels

        for name in contracts.KERNEL_ENTRYPOINTS:
            assert hasattr(_kernels, name) or hasattr(_graph, name)

    def test_noopable_surface_modules_exist(self):
        for dotted in contracts.OBSERVABILITY_NOOPABLE:
            rel = dotted.replace(".", "/") + ".py"
            assert (ROOT / "src" / rel).exists(), dotted


class TestBaseline:
    def test_missing_file_loads_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.toml")
        assert baseline.suppressions == []

    def test_write_then_load_round_trips_and_suppresses(self, tmp_path):
        findings = lint(
            "import time\nx = time.time()\n",
            "src/repro/storage/fixture.py",
            "VDB101",
        )
        path = tmp_path / "baseline.toml"
        Baseline(path=path).write(findings, "grandfathered for the test")
        loaded = Baseline.load(path)
        new, suppressed, stale = loaded.split(findings)
        assert (new, stale) == ([], [])
        assert len(suppressed) == len(findings) == 1
        assert loaded.suppressions[0].justification

    def test_context_mismatch_goes_stale_not_suppressed(self):
        findings = lint(
            "import time\nx = time.time()\n",
            "src/repro/storage/fixture.py",
            "VDB101",
        )
        sup = Suppression(
            rule="VDB101",
            path="src/repro/storage/fixture.py",
            context="y = time.time()  # the code this covered is gone",
            justification="covers an older line",
        )
        new, suppressed, stale = Baseline(suppressions=[sup]).split(findings)
        assert len(new) == 1 and suppressed == [] and stale == [sup]

    def test_justification_is_mandatory(self, tmp_path):
        path = tmp_path / "baseline.toml"
        path.write_text(
            'version = 1\n[[suppress]]\nrule = "VDB101"\n'
            'path = "src/repro/x.py"\n'
        )
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)


@pytest.fixture()
def lint_repo(tmp_path):
    """A miniature repo with one deliberately violating module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src" / "repro" / "index"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import numpy as np\n\n\ndef sample(n):\n"
        "    return np.random.rand(n)\n"
    )
    return tmp_path


class TestCli:
    def test_violation_exits_nonzero(self, lint_repo, capsys):
        assert main(["--root", str(lint_repo), "src/repro"]) == 1
        out = capsys.readouterr().out
        assert "VDB102" in out and "bad.py" in out

    def test_clean_tree_exits_zero(self, lint_repo, capsys):
        (lint_repo / "src/repro/index/bad.py").write_text(
            "import numpy as np\n\n\ndef sample(n, seed):\n"
            "    return np.random.default_rng(seed).random(n)\n"
        )
        assert main(["--root", str(lint_repo), "src/repro"]) == 0

    def test_select_limits_rules(self, lint_repo, capsys):
        assert main(
            ["--root", str(lint_repo), "src/repro", "--select", "VDB101"]
        ) == 0
        assert main(
            ["--root", str(lint_repo), "src/repro", "--select", "VDB999"]
        ) == 2

    def test_write_baseline_then_check_flags_stale(self, lint_repo, capsys):
        root = ["--root", str(lint_repo), "src/repro"]
        assert main(root + ["--write-baseline", "grandfathered"]) == 0
        assert main(root + ["--check"]) == 0  # suppressed, not clean
        assert "baselined" in capsys.readouterr().out
        # Fix the violation: the suppression is now stale and --check
        # demands the baseline shrink.
        (lint_repo / "src/repro/index/bad.py").write_text("x = 1\n")
        assert main(root) == 0
        assert main(root + ["--check"]) == 1
        assert "stale" in capsys.readouterr().out

    def test_syntax_error_is_reported_not_crash(self, lint_repo, capsys):
        (lint_repo / "src/repro/index/bad.py").write_text("def broken(:\n")
        assert main(["--root", str(lint_repo), "src/repro"]) == 1
        assert "VDB000" in capsys.readouterr().out

    def test_json_format(self, lint_repo, capsys):
        assert main(
            ["--root", str(lint_repo), "src/repro", "--format", "json"]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "VDB102"

    def test_list_rules_shows_every_id(self, lint_repo, capsys):
        # Point at the miniature repo so the timing run stays fast.
        assert main(["--root", str(lint_repo), "src/repro", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


class TestRepoSelfCheck:
    """The repo must satisfy its own invariants (modulo the baseline)."""

    def test_src_repro_is_clean_against_baseline(self):
        findings, files = analyze_paths(["src/repro"], ROOT)
        baseline = Baseline.load(ROOT / "analysis" / "baseline.toml")
        new, _suppressed, _stale = baseline.split(findings)
        failing = [f for f in new if f.fails]
        assert files > 50
        assert failing == [], "\n".join(f.render() for f in failing)

    def test_cli_check_mode_passes_at_head(self, capsys):
        assert main(["--root", str(ROOT), "src/repro", "--check"]) == 0
