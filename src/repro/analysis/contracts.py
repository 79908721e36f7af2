"""The machine-checked contracts `vdblint` enforces.

Every table in this module is a *declaration* of an invariant the
codebase already relies on informally; the rule modules under
:mod:`repro.analysis.rules` turn them into findings.  The provenance of
each contract (which PR introduced it, and why) is catalogued in
``docs/static-analysis.md``.

Keeping the declarations in one module — instead of scattering literals
through the rules — makes a contract change a one-line, reviewable
diff, exactly like the suppressions baseline.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Determinism (VDB1xx).
#
# The repo's north star is reproducible experiments: every stochastic
# choice flows from a seeded ``np.random.Generator`` (or seeded
# ``random.Random`` instance), and the only *time source* is the
# simulated clock (reliability/distributed) or an injected ``clock``
# callable (observability).  ``time.perf_counter`` is deliberately NOT
# banned: it measures durations for observability and never feeds a
# decision.

#: Wall-clock *sources* (dotted call suffixes) banned everywhere under
#: ``src/repro``.  Durations must come from ``time.perf_counter`` /
#: an injected clock; timestamps must come from the simulated clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Legacy module-level numpy RNG entry points (global hidden state).
NP_RANDOM_LEGACY = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "integers",
        "laplace",
        "multivariate_normal",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: stdlib ``random`` module-level functions (global hidden state).
#: ``random.Random(seed)`` — a *seeded instance* — is the approved form.
STDLIB_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
    }
)

# --------------------------------------------------------------------------
# Import layering (VDB2xx).
#
# Allowed repro-internal import *prefixes* per top-level package
# (module-scope imports).  A target is allowed when it equals a prefix
# or extends it on a dot boundary.  ``None`` means "anything" (the
# package sits at the top of the stack).  Lazy (function-scope) imports
# get the union of the module-scope set and LAYERING_LAZY_EXTRA — the
# documented cycle-breakers.

LAYERING: dict[str, tuple[str, ...] | None] = {
    # repro/__init__.py and any future top-level module: the facade.
    "": None,
    "analysis": (),  # the linter imports nothing from the system under test
    "scores": ("repro.core.types", "repro.core.errors"),
    "embed": ("repro.core.types", "repro.core.errors", "repro.scores"),
    "quantization": (
        "repro.core.types",
        "repro.core.errors",
        "repro.index._kernels",
    ),
    "index": (
        "repro.core.types",
        "repro.core.errors",
        "repro.scores",
        "repro.quantization",
        "repro.storage.disk",
    ),
    "storage": (
        "repro.core.types",
        "repro.core.errors",
        "repro.observability.instrument",
        "repro.observability.metrics",
        "repro.reliability",
    ),
    "observability": ("repro.index._kernels",),
    "hybrid": (
        "repro.core.types",
        "repro.core.errors",
        "repro.core.operators",
        "repro.index",
        "repro.scores",
        "repro.observability.tracing",
    ),
    "reliability": ("repro.core.types", "repro.core.errors"),
    "core": (
        "repro.scores",
        "repro.index",
        "repro.hybrid",
        "repro.quantization",
        "repro.storage",
        "repro.embed",
        "repro.observability",
    ),
    "distributed": (
        "repro.core",
        "repro.index",
        "repro.scores",
        "repro.quantization",
        "repro.hybrid",
        "repro.storage",
        "repro.observability",
        "repro.reliability",
    ),
    "security": ("repro.core", "repro.index", "repro.scores"),
    # The serving front door sits above the query engine: it may import
    # core/observability/reliability, but nothing imports serving.
    "serving": (
        "repro.core",
        "repro.index",
        "repro.scores",
        "repro.quantization",
        "repro.hybrid",
        "repro.observability",
        "repro.reliability",
    ),
    "torture": (
        "repro.core",
        "repro.index",
        "repro.scores",
        "repro.quantization",
        "repro.hybrid",
        "repro.storage",
        "repro.distributed",
        "repro.reliability",
        "repro.observability",
        "repro.bench",
    ),
    "bench": (
        "repro.core",
        "repro.index",
        "repro.scores",
        "repro.quantization",
        "repro.hybrid",
        "repro.systems",
        "repro.observability",
    ),
    "systems": None,
}

#: Additional prefixes allowed only for *function-scope* (lazy) imports:
#: the documented cycle-breakers.  Everything else stays forbidden even
#: when imported lazily — laziness hides a cycle, not a layering hole.
LAYERING_LAZY_EXTRA: dict[str, tuple[str, ...]] = {
    "storage": ("repro.core.collection", "repro.core.database"),
    "observability": ("repro.index._kernels",),
    "index": ("repro.core",),
    "scores": ("repro.core",),
}

#: Observability modules whose objects are no-op-able (they ship a
#: DISABLED / NOOP_* twin) and may therefore be imported at module scope
#: from the rest of the system.  The heavyweight modules (profiler,
#: export, quality, slo) must be imported lazily by the method that
#: needs them — core must stay importable and fast with observability
#: effectively absent.
OBSERVABILITY_NOOPABLE = frozenset(
    {
        "repro.observability.instrument",
        "repro.observability.tracing",
        "repro.observability.metrics",
        "repro.observability.sketch",
    }
)

# --------------------------------------------------------------------------
# Stats accounting (VDB3xx).
#
# ``SearchStats`` is the cost model's and the profiler's ground truth:
# ``attribution_residual() == 0`` only holds if counters are charged in
# the approved places.  The field list is kept in lockstep with
# ``repro.core.types.SearchStats`` (a test asserts equality).

SEARCH_STATS_FIELDS = frozenset(
    {
        "distance_computations",
        "nodes_visited",
        "page_reads",
        "candidates_examined",
        "predicate_evaluations",
        "predicate_rejections",
        "plan_name",
        "elapsed_seconds",
        "partial",
        "coverage_fraction",
        "shards_ok",
        "shards_failed",
        "merged_count",
    }
)

#: fnmatch globs (posix, repo-relative) of the modules approved to
#: mutate SearchStats-named counters.  Everything else — notably the
#: whole observability package (audit-isolation contract: the recall
#: auditor must never touch query-path stats), scores, quantization
#: (except the ADC searcher, which owns its stats twin), bench, embed —
#: must route accounting through these layers.
STATS_MUTATION_ALLOWLIST = (
    "src/repro/core/types.py",
    "src/repro/core/cost.py",  # the cost model *predicts* counters
    "src/repro/core/executor.py",
    "src/repro/core/operators.py",
    "src/repro/core/multivector.py",
    "src/repro/core/incremental.py",
    "src/repro/index/*.py",
    "src/repro/hybrid/*.py",
    "src/repro/storage/*.py",
    "src/repro/distributed/*.py",
    "src/repro/quantization/ivfadc.py",
    # The coalescer re-splits batch-level stats into per-request shares
    # (largest-remainder, sums conserved) — the one serving module that
    # writes SearchStats counters.
    "src/repro/serving/coalescer.py",
)

#: Base-class names that mark a class as part of the index `search`
#: contract: its ``search`` / ``_search`` / ``range_search`` overrides
#: must declare and thread a ``stats`` parameter.
INDEX_BASE_NAMES = frozenset({"VectorIndex", "GraphIndex"})

#: Duck-typed searchers outside repro/index that opted into the same
#: stats-threading contract: (module, class name).
STATS_THREADING_CLASSES = frozenset(
    {
        ("repro.hybrid.partitioned", "AttributePartitionedIndex"),
    }
)

# --------------------------------------------------------------------------
# Kernel boundary (VDB4xx).
#
# The vectorized kernels assume float32 C-contiguous inputs
# (``ensure_f32c`` layout); violating that silently upcasts or strides
# the hot path.  Any call to these entry points must pass a matrix that
# is *blessed*: produced by ``ensure_f32c`` in the same function,
# stored on a ``._vectors`` / ``.vectors`` attribute (the build/ingest
# paths enforce the layout there), or derived from such a value.

#: kernel entry point name -> positional index of the vector-matrix arg
#: (keyword name is always ``vectors``).
KERNEL_ENTRYPOINTS: dict[str, int] = {
    "beam_search": 1,
    "lockstep_beam_search": 1,
    "robust_prune_wave": 2,
    "greedy_walk": 1,
}

#: FastScan packed-layout boundary (VDB402): entry point name ->
#: positional index of the packed-codes argument (keyword name is
#: always ``packed``).  The (m_eff, n) uint8 scan layout is only
#: meaningful when produced by the blocked packers — handing
#: ``fastscan_accumulate`` a plain (n, m) code matrix type-checks but
#: scans garbage.
PACKED_KERNEL_ENTRYPOINTS: dict[str, int] = {
    "fastscan_accumulate": 1,
}

#: Call names blessed to *produce* the blocked layout.  A ``.packed``
#: attribute read off one of their results (directly or via a local
#: assignment) is the approved way to feed the accumulate kernel.
PACKED_PRODUCERS = frozenset(
    {"pack_codes_blocked", "gather_packed_cells", "concat_blocked"}
)

#: Modules that define the packed kernels (exempt from VDB402).
PACKED_DEFINING_MODULES = frozenset({"repro.quantization.fastscan"})

#: Attribute names whose values the ingest paths guarantee to be
#: float32 C-contiguous (``VectorIndex.build``, collection ingest).
BLESSED_VECTOR_ATTRS = frozenset({"_vectors", "vectors"})

#: Modules that *define* the kernels (exempt from VDB401 — they are the
#: boundary).
KERNEL_DEFINING_MODULES = frozenset(
    {"repro.index._kernels", "repro.index._graph"}
)

# --------------------------------------------------------------------------
# Exception-safe observability (VDB5xx).

#: Methods that create a span; their result must be ``with``-scoped (or
#: explicitly ``.finish()``-ed) in the creating function, returned to
#: the caller, or handed to another call that owns it.
SPAN_FACTORY_METHODS = frozenset({"start_span", "child"})

#: Span methods that chain (return the same span) — climbing through
#: these finds the expression that must be scoped.
SPAN_CHAINING_METHODS = frozenset(
    {"attach_stats", "set", "link", "set_stats_delta"}
)

#: Attribute names registered as long-lived span *owners*: storing a
#: span into one of these (``self._spans[tid] = span`` /
#: ``inflight.span = span``) is the approved hand-off for spans that
#: must outlive the creating function (e.g. the serving front door's
#: request roots, open across the queueing gap).  The owner's module is
#: then responsible for finishing them on every disposition path.
SPAN_OWNER_ATTRS = frozenset({"span", "root_span", "_spans"})

#: Attribute names that hold the no-op-able metric/tracing components.
#: Outside repro/observability they must never appear in a conditional
#: test — the no-op twins exist so call sites never branch.
OBSERVABILITY_COMPONENT_ATTRS = frozenset({"metrics", "tracer"})

#: Names that mark the approved normalization idiom
#: (``x if x is not None else NOOP_*``) and exempt it from VDB502.
NOOP_SENTINEL_MARKERS = ("NOOP", "DISABLED")

# --------------------------------------------------------------------------
# Atomic storage writes (VDB6xx).
#
# The crash-recovery loops of the torture rig only prove old-or-new
# recovery for writes that flow through the blessed atomic writer
# (``repro.storage.atomic``: temp file + fsync + ``os.replace``, journal
# -able via the ``Filesystem`` seam).  A bare ``open(..., "w")`` or
# ``Path.write_text`` in a storage module is a torn-write hazard the
# rig cannot even see, so VDB601 bans the raw idioms at the source.

#: fnmatch globs (posix, repo-relative) of the modules under the
#: atomic-write contract.
STORAGE_WRITE_GLOBS = ("src/repro/storage/*.py",)

#: The blessed atomic-writer module itself — the one place allowed to
#: touch the raw primitives (it *is* the boundary).
ATOMIC_WRITER_FILES = ("src/repro/storage/atomic.py",)

#: Attribute-call suffixes that write a file in place (no temp+rename).
RAW_WRITE_ATTR_CALLS = frozenset({"write_text", "write_bytes", "tofile"})

#: numpy functions that write straight to a path when handed one (the
#: approved form serializes to bytes first — ``npz_bytes`` — and hands
#: them to the atomic writer).
RAW_WRITE_NP_FNS = frozenset({"save", "savez", "savez_compressed"})

#: Filesystem-mutating stdlib calls that must go through the
#: ``Filesystem`` seam so TortureFS can journal them.
RAW_FS_MUTATION_CALLS = frozenset(
    {
        "os.replace",
        "os.rename",
        "os.renames",
        "os.remove",
        "os.unlink",
        "os.truncate",
        "shutil.move",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copyfileobj",
        "shutil.rmtree",
    }
)

# --------------------------------------------------------------------------
# Interprocedural flow (VDB7xx) — the vdbflow engine's contract tables.
#
# Hot entry points: the roots of the hot region.  Everything the call
# graph can reach from these (without crossing the cold boundary) is
# per-query serving-path code, where an avoidable copy or dtype
# promotion is a real regression; everything else is build/train/admin
# code where the same pattern is merely advisory.

#: Top-level function names that ARE the hot path (the vectorized
#: kernels; their differential oracles live test-side).
HOT_ENTRY_FUNCTIONS = frozenset(
    {
        "beam_search",
        "lockstep_beam_search",
        "robust_prune_wave",
        "greedy_walk",
        "fastscan_accumulate",
        "topk_indices",
        "scan_topk",
    }
)

#: Hand-tuned kernel internals VDB703 does not second-guess: their
#: float64 accumulators are the documented precision boundary (heap
#: order must be stable across batch shapes) and their per-round
#: gathers/merges are the algorithm, not an accident.  ``_tree`` holds
#: the whole tree family (``TreeIndex`` and its forest kernels): its
#: float64 copy of the rows and of each query is the precision boundary
#: the split rules and plane margins are defined at.  The boundary
#: rules (VDB401/402/701) police what *enters* them instead.
ALLOC_TUNED_MODULES = frozenset(
    {
        "repro.index._kernels",
        "repro.index._graph",
        "repro.index._tree",
    }
)

#: ``Class.method`` suffixes declared hot: the executor dispatch
#: surface, the serving front door's batch execution, the ADC searchers
#: and the coarse probe every inverted-file query starts with.
HOT_ENTRY_METHODS = frozenset(
    {
        "QueryExecutor.execute",
        "QueryExecutor.execute_range",
        "QueryExecutor.execute_batch",
        "QueryExecutor.execute_multivector",
        "ServingFrontDoor._execute",
        "CoarseQuantizer.probe",
        "IvfAdc.search",
        "IvfAdc.adc",
        "FastScanPQ.search",
    }
)

#: Method names that are hot when defined on an index-contract class
#: (the same class set VDB302/303 govern): every in-repo index search
#: override is a hot root, so resolution gaps on duck-typed dispatch
#: cannot silently cool the index layer.
HOT_ENTRY_SEARCH_METHODS = frozenset({"search", "_search", "range_search"})

#: Function names whose call edges LEAVE the hot region: reachable
#: build/train/calibration work is charged to ingest, not to queries.
COLD_BOUNDARY_NAMES = frozenset(
    {"build", "train", "fit", "calibrate", "rebuild", "merge_now"}
)

# --- clock-domain taint (VDB702) -----------------------------------------
#
# VDB101 bans wall-clock *sources*; VDB702 tracks the one approved
# probe's *flows*.  ``time.perf_counter`` exists to measure durations
# for observability — a perf_counter-derived value that steers control
# flow, feeds a scheduling/admission decision, or lands in a persisted
# artifact silently reintroduces the nondeterminism VDB101 exists to
# prevent.

#: Call suffixes that mint a wall-clock-domain value.
CLOCK_WALL_PROBES = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Packages whose *job* is timing: durations may be compared, ranked,
#: and exported there (slow-query thresholds, profiler buckets, bench
#: reporting).  Everywhere else a wall-clock value reaching a decision
#: is a determinism hole.
CLOCK_FLOW_EXEMPT_PACKAGES = frozenset(
    {"observability", "bench", "analysis", "torture"}
)

#: Blessed persistence entry points: a wall-clock-tainted argument
#: handed to these lands in an on-disk artifact, breaking bit-for-bit
#: crash-recovery comparison.
CLOCK_PERSIST_SINKS = frozenset({"atomic_write_bytes", "npz_bytes"})

# --- hot-path allocation lints (VDB703) ----------------------------------

#: numpy namespace calls that reallocate-and-copy on every invocation;
#: inside a per-query loop they turn O(n) work into O(n^2).
HOT_ALLOC_GROWTH_CALLS = frozenset(
    {
        "concatenate",
        "append",
        "vstack",
        "hstack",
        "stack",
        "column_stack",
        "block",
    }
)

#: numpy namespace calls assumed to return an ndarray — the local-type
#: seed for the Python-iteration and fancy-indexing heuristics.
NP_ARRAY_RETURNING = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "arange",
        "linspace",
        "zeros",
        "ones",
        "empty",
        "full",
        "argsort",
        "argpartition",
        "nonzero",
        "flatnonzero",
        "where",
        "take",
        "concatenate",
        "vstack",
        "hstack",
        "stack",
        "unique",
        "sort",
        "copy",
    }
)

#: Spellings of the float64 dtype in ``astype``/constructor position.
FLOAT64_MARKERS = frozenset({"float64", "double", "float_"})
