"""VDB7xx — interprocedural flow rules (the vdbflow engine).

Contract provenance: the VDBMS testing roadmap and bug study both place
the highest-impact defect classes — silent recall loss, nondeterminism,
hot-path performance cliffs — *across* function boundaries, exactly
where the per-file VDB1xx–6xx rules are blind.  These three rules are
:class:`~repro.analysis.registry.ProjectRule` subclasses: they see the
whole-project symbol table and call graph and reason along call paths.

* VDB701 — interprocedural f32c/packed blessing.  VDB401/402 accept a
  function parameter forwarded into a kernel (the wrapper is a
  *demand-forwarding* function); this rule propagates that demand up
  the call graph and flags the **first unblessed edge** on any path
  into ``beam_search`` / ``lockstep_beam_search`` /
  ``robust_prune_wave`` / ``greedy_walk`` / ``fastscan_accumulate`` —
  wrappers no longer need to re-bless locally, and the finding lands
  where the unblessed value enters.
* VDB702 — clock-domain taint.  VDB101 bans wall-clock *sources*; this
  rule tracks the one approved probe's *flows*: a
  ``time.perf_counter``-derived value that steers control flow, feeds
  a callee's decision parameter, or lands in a persisted artifact is a
  determinism hole.  Packages whose job is timing (observability,
  bench, torture, analysis) are exempt by declaration.
* VDB703 — hot-path allocation lints.  numpy copy/promotion
  anti-patterns (float64 promotion, ``astype`` defaulting
  ``copy=True``, array growth or fancy indexing inside loops,
  Python-level iteration over ndarrays) are errors inside the call-
  graph region reachable from the contract-declared hot entry points,
  and info-level advisories elsewhere — findings rank by cost.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..flow.callgraph import CallSite
from ..flow.engine import Project, call_name
from ..flow.lattice import FixedPoint
from ..flow.symbols import FunctionInfo
from ..registry import Finding, ProjectRule, dotted_name, register
from .determinism import _module_aliases
from .kernels import (
    _blessed_locals,
    _is_blessed,
    _is_packed_blessed,
    _packed_producer_locals,
)

# --------------------------------------------------------------------------
# shared helpers


def _param_root(expr: ast.expr, params: set[str]) -> str | None:
    """The parameter a kernel argument derives from, if any.

    Strips subscripts/slices and a trailing ``.packed`` read, so both
    ``raw[:k]`` and ``blocked.packed`` reduce to their parameter.
    """
    while True:
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Attribute) and expr.attr == "packed":
            expr = expr.value
        else:
            break
    if isinstance(expr, ast.Name) and expr.id in params:
        return expr.id
    return None


def _own_calls(fn: FunctionInfo) -> Iterator[ast.Call]:
    """Call nodes in ``fn``'s own body (nested defs excluded)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _kernel_arg(
    call: ast.Call, arg_index: int, kw_name: str
) -> ast.expr | None:
    if len(call.args) > arg_index:
        return call.args[arg_index]
    for kw in call.keywords:
        if kw.arg == kw_name:
            return kw.value
    return None


# --------------------------------------------------------------------------
# VDB701 — interprocedural f32c / packed-layout blessing


class _DemandConfig:
    """One blessing discipline: which kernels, which blessing test."""

    def __init__(
        self,
        entrypoints: dict[str, int],
        kw_name: str,
        defining_modules: frozenset[str],
        kind: str,
    ) -> None:
        self.entrypoints = entrypoints
        self.kw_name = kw_name
        self.defining_modules = defining_modules
        self.kind = kind  # "f32c" | "packed"

    def blessed(self, expr: ast.expr, fn: FunctionInfo, cache: dict) -> bool:
        # NB: cache lookups use get-then-store, not setdefault — the
        # default argument would re-run the body walk on every call.
        if self.kind == "f32c":
            locals_ = cache.get(("f32c", fn.qualname))
            if locals_ is None:
                locals_ = _blessed_locals(fn.node)
                cache[("f32c", fn.qualname)] = locals_
            return _is_blessed(expr, locals_)
        producers = cache.get(("packed", fn.qualname))
        if producers is None:
            producers = _packed_producer_locals(fn.node)
            cache[("packed", fn.qualname)] = producers
        if _is_packed_blessed(expr, producers):
            return True
        # The BlockedCodes container itself, forwarded whole.
        if isinstance(expr, ast.Name) and expr.id in producers:
            return True
        if isinstance(expr, ast.Call):
            return call_name(expr) in contracts.PACKED_PRODUCERS
        return False


_F32C = _DemandConfig(
    contracts.KERNEL_ENTRYPOINTS,
    "vectors",
    contracts.KERNEL_DEFINING_MODULES,
    "f32c",
)
_PACKED = _DemandConfig(
    contracts.PACKED_KERNEL_ENTRYPOINTS,
    "packed",
    contracts.PACKED_DEFINING_MODULES,
    "packed",
)


@register
class InterproceduralBlessingRule(ProjectRule):
    id = "VDB701"
    name = "flow-kernel-blessing"
    invariant = (
        "On every call path into a vectorized kernel (beam_search / "
        "lockstep_beam_search / robust_prune_wave / greedy_walk / "
        "fastscan_accumulate) the "
        "vector matrix (or packed codes) must be blessed at the first "
        "edge where it enters the path: wrappers forward the demand to "
        "their callers instead of re-blessing locally, and the finding "
        "lands on the first unblessed edge."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        # One body walk per function, shared by both configs and both
        # passes — re-walking per config showed up hard in profiles.
        calls_by_fn = {
            qual: [(c, call_name(c)) for c in _own_calls(fn)]
            for qual, fn in project.symtab.functions.items()
        }
        for config in (_F32C, _PACKED):
            yield from self._check_config(project, config, calls_by_fn)

    # -------------------------------------------------------- per-config

    def _check_config(
        self,
        project: Project,
        config: _DemandConfig,
        calls_by_fn: dict[str, list[tuple[ast.Call, str | None]]],
    ) -> Iterator[Finding]:
        symtab = project.symtab
        graph = project.callgraph
        cache: dict = {}
        # Seed: parameters forwarded straight into a kernel call.
        seeds: dict[str, frozenset[str]] = {}
        chains: dict[tuple[str, str], tuple[str, ...]] = {}
        for qual, fn in symtab.functions.items():
            if fn.module.module in config.defining_modules:
                continue
            params = set(fn.params)
            demanded: set[str] = set()
            for call, name in calls_by_fn[qual]:
                if name not in config.entrypoints:
                    continue
                arg = _kernel_arg(
                    call, config.entrypoints[name], config.kw_name
                )
                if arg is None or config.blessed(arg, fn, cache):
                    continue
                root = _param_root(arg, params)
                if root is not None:
                    demanded.add(root)
                    chains.setdefault((fn.qualname, root), (name,))
            if demanded:
                seeds[fn.qualname] = frozenset(demanded)

        if not seeds and not any(
            name in config.entrypoints
            for calls in calls_by_fn.values()
            for _, name in calls
        ):
            return  # no kernel usage at all: skip the fixed point

        # Propagate demands up the call graph to a fixed point.
        def transfer(qual: str, facts: dict[str, frozenset[str]]):
            fn = symtab.functions[qual]
            if fn.module.module in config.defining_modules:
                return frozenset()
            params = set(fn.params)
            demanded = set(seeds.get(qual, frozenset()))
            for site in graph.out_edges(qual):
                if site.reference_only:
                    continue
                for callee_qual in site.callees:
                    callee_fact = facts.get(callee_qual, frozenset())
                    if not callee_fact:
                        continue
                    callee = symtab.functions[callee_qual]
                    bound = site.bind_args(callee)
                    for p in callee_fact:
                        arg = bound.get(p)
                        if arg is None or config.blessed(arg, fn, cache):
                            continue
                        root = _param_root(arg, params)
                        if root is not None:
                            demanded.add(root)
                            chains.setdefault(
                                (qual, root),
                                (callee_qual,)
                                + chains.get((callee_qual, p), ()),
                            )
            return frozenset(demanded)

        solver: FixedPoint[str, frozenset[str]] = FixedPoint(
            transfer, dependents=graph.callers
        )
        demands = solver.solve(symtab.functions.keys(), frozenset())

        # Findings: the first unblessed edge on any demanded path.
        for site in graph.edges:
            if site.reference_only:
                continue
            caller = symtab.functions[site.caller]
            if caller.module.module in config.defining_modules:
                continue
            params = set(caller.params)
            for callee_qual in site.callees:
                for p in sorted(demands.get(callee_qual, frozenset())):
                    callee = symtab.functions[callee_qual]
                    bound = site.bind_args(callee)
                    arg = bound.get(p)
                    if arg is None or config.blessed(arg, caller, cache):
                        continue
                    if _param_root(arg, params) is not None:
                        continue  # demand forwarded; flagged further up
                    chain = chains.get((callee_qual, p), ())
                    if chain and chain[0] == callee_qual:
                        chain = chain[1:]
                    trace = (site.caller, callee_qual, *chain)
                    yield self.finding(
                        caller.module,
                        arg,
                        f"unblessed {config.kind} value enters the "
                        f"kernel path here: parameter '{p}' of "
                        f"'{callee_qual}' flows into "
                        f"'{chain[-1] if chain else '?'}' — bless this "
                        "argument (ensure_f32c / blocked packer) at "
                        "this first edge",
                        trace=trace,
                    )

        # Demands that escape to the public API: a top-level function
        # with no in-repo callers must bless at the boundary itself.
        for qual, names in sorted(demands.items()):
            fn = symtab.functions[qual]
            if fn.owner is not None or fn.parent is not None:
                continue  # methods: callers may be out of graph reach
            if graph.in_edges(qual):
                continue
            for p in sorted(names):
                chain = chains.get((qual, p), ())
                yield self.finding(
                    fn.module,
                    fn.node,
                    f"'{fn.name}' forwards parameter '{p}' unblessed "
                    f"into kernel '{chain[-1] if chain else '?'}' and "
                    "has no in-repo callers — bless at this API "
                    "boundary (external callers get no interprocedural "
                    "check)",
                    severity="warning",
                    trace=(qual, *chain),
                )


# --------------------------------------------------------------------------
# VDB702 — clock-domain taint


def _is_wall_probe(call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    return (
        dotted in contracts.CLOCK_WALL_PROBES
        or dotted.split(".")[-1] in contracts.CLOCK_WALL_PROBES
    )


#: Builtins that preserve the clock domain of their input — taint flows
#: through ``min(elapsed, budget)`` but NOT through arbitrary unresolved
#: calls (recording a duration into a stats object is the approved use).
_DOMAIN_PRESERVING_BUILTINS = frozenset(
    {"min", "max", "abs", "round", "sum", "float"}
)


def _bare_target_names(target: ast.expr) -> Iterator[str]:
    """Names bound by an assignment target.

    Only bare names (including tuple/list elements) count: storing a
    duration into ``stats.elapsed_seconds`` or ``out[name]`` is the
    approved recording pattern and must not taint the container or the
    subscript index.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bare_target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bare_target_names(target.value)


def _is_presence_test(test: ast.expr) -> bool:
    """True for pure ``x is None`` / ``x is not None`` tests — they
    branch on *presence*, not on the wall-clock value."""
    return (
        isinstance(test, ast.Compare)
        and all(isinstance(op, (ast.Is, ast.IsNot)) for op in test.ops)
        and all(
            isinstance(c, ast.Constant) and c.value is None
            for c in test.comparators
        )
    )


class _TaintSummary:
    """Per-function clock-taint facts, solved over the call graph."""

    __slots__ = ("returns_wall", "decision_params")

    def __init__(
        self, returns_wall: bool = False,
        decision_params: frozenset[str] = frozenset(),
    ) -> None:
        self.returns_wall = returns_wall
        self.decision_params = decision_params

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _TaintSummary)
            and self.returns_wall == other.returns_wall
            and self.decision_params == other.decision_params
        )

    def __hash__(self) -> int:  # pragma: no cover - dict-value only
        return hash((self.returns_wall, self.decision_params))


class _TaintLocal:
    """One function's forward taint + backward sink-slice, computed
    against the current callee summaries."""

    def __init__(
        self,
        fn: FunctionInfo,
        sites: dict[int, CallSite],
        summaries: dict[str, _TaintSummary],
        symtab,
        nodes: list[ast.AST] | None = None,
    ) -> None:
        self.fn = fn
        self.sites = sites
        self.summaries = summaries
        self.symtab = symtab
        self.nodes = nodes if nodes is not None else list(_own_walk(fn.node))
        self.tainted = self._forward_taint()
        self.sink_nodes = list(self._sinks())

    # ------------------------------------------------------------ forward

    def _expr_tainted(self, expr: ast.expr, tainted: set[str]) -> bool:
        """Recursive domain evaluator.

        Taint crosses arithmetic/comparison operators and the domain-
        preserving builtins, but stops at any other call boundary: a
        tainted argument to ``SearchStats(...)`` or ``span.set(...)``
        is the approved recording pattern, not a tainted result.
        """
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Call):
            if _is_wall_probe(expr):
                return True
            site = self.sites.get(id(expr))
            if site is not None:
                return any(
                    self.summaries.get(c, _TaintSummary()).returns_wall
                    for c in site.callees
                )
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id in _DOMAIN_PRESERVING_BUILTINS
            ):
                return any(
                    self._expr_tainted(a, tainted)
                    for a in [*expr.args, *[k.value for k in expr.keywords]]
                )
            return False
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr) and self._expr_tainted(
                child, tainted
            ):
                return True
        return False

    def _forward_taint(self) -> set[str]:
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif (
                    isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    and getattr(node, "value", None) is not None
                ):
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.NamedExpr):
                    targets, value = [node.target], node.value
                else:
                    continue
                if not self._expr_tainted(value, tainted):
                    continue
                for target in targets:
                    for name in _bare_target_names(target):
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        return tainted

    # ------------------------------------------------------------- sinks

    def _sinks(self) -> Iterator[tuple[ast.AST, str]]:
        """(node, description) for every taint sink in the body."""
        for node in self.nodes:
            if isinstance(node, (ast.If, ast.While)):
                if not _is_presence_test(node.test):
                    yield node.test, "a control-flow decision"
            elif isinstance(node, ast.IfExp):
                if not _is_presence_test(node.test):
                    yield node.test, "a conditional expression"
            elif isinstance(node, ast.comprehension):
                for cond in node.ifs:
                    yield cond, "a comprehension filter"
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in contracts.CLOCK_PERSIST_SINKS:
                    for arg in [
                        *node.args,
                        *[k.value for k in node.keywords],
                    ]:
                        yield arg, f"the persisted artifact ({name})"
                site = self.sites.get(id(node))
                if site is None:
                    continue
                for callee_qual in site.callees:
                    summary = self.summaries.get(callee_qual)
                    if summary is None or not summary.decision_params:
                        continue
                    callee = self.symtab.functions[callee_qual]
                    bound = site.bind_args(callee)
                    for p in summary.decision_params:
                        arg = bound.get(p)
                        if arg is not None:
                            yield (
                                arg,
                                f"a decision inside '{callee_qual}' "
                                f"(via parameter '{p}')",
                            )

    # ----------------------------------------------------------- summary

    def summarize(self) -> _TaintSummary:
        returns_wall = False
        for node in self.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                if self._expr_tainted(node.value, self.tainted):
                    returns_wall = True
                    break
        # Backward slice: names feeding any sink, then intersect params.
        sink_names: set[str] = set()
        for sink, _ in self.sink_nodes:
            for node in ast.walk(sink):
                if isinstance(node, ast.Name):
                    sink_names.add(node.id)
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                if not isinstance(node, ast.Assign):
                    continue
                hit = any(
                    isinstance(t, ast.Name) and t.id in sink_names
                    for t in node.targets
                )
                if not hit:
                    continue
                for sub in ast.walk(node.value):
                    if (
                        isinstance(sub, ast.Name)
                        and sub.id not in sink_names
                    ):
                        sink_names.add(sub.id)
                        changed = True
        decision_params = frozenset(
            p for p in self.fn.params if p in sink_names
        )
        return _TaintSummary(returns_wall, decision_params)

    def findings(self, rule) -> Iterator[Finding]:
        for sink, what in self.sink_nodes:
            if self._expr_tainted(sink, self.tainted):
                yield rule.finding(
                    self.fn.module,
                    sink,
                    "wall-clock-tainted value (derived from "
                    f"time.perf_counter) reaches {what} — durations "
                    "may only feed observability; decisions and "
                    "persisted state must use the simulated clock",
                    trace=(self.fn.qualname,),
                )


def _own_walk(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class ClockDomainTaintRule(ProjectRule):
    id = "VDB702"
    name = "flow-clock-domain"
    invariant = (
        "time.perf_counter values exist to measure durations for "
        "observability: a wall-clock-tainted value must never reach a "
        "control-flow decision, a callee's decision parameter, or a "
        "persisted artifact — across function boundaries.  Timing-"
        "owning packages (observability/bench/torture/analysis) are "
        "exempt by declaration."
    )

    def _exempt(self, fn: FunctionInfo) -> bool:
        return fn.module.package in contracts.CLOCK_FLOW_EXEMPT_PACKAGES

    def check_project(self, project: Project) -> Iterator[Finding]:
        symtab = project.symtab
        graph = project.callgraph
        # Index call sites by Call-node identity, per function.
        sites_by_fn: dict[str, dict[int, CallSite]] = {}
        for site in graph.edges:
            if not site.reference_only:
                sites_by_fn.setdefault(site.caller, {})[
                    id(site.call)
                ] = site

        summaries: dict[str, _TaintSummary] = {}
        # One AST walk per function, reused by every fixed-point
        # iteration — the transfer function re-runs on summary changes
        # and must not pay the tree walk again each time.
        body_nodes: dict[str, list[ast.AST]] = {
            qual: list(_own_walk(fn.node))
            for qual, fn in symtab.functions.items()
            if not self._exempt(fn)
        }

        def transfer(qual: str, facts: dict[str, _TaintSummary]):
            fn = symtab.functions[qual]
            if self._exempt(fn):
                return _TaintSummary()
            local = _TaintLocal(
                fn, sites_by_fn.get(qual, {}), facts, symtab,
                body_nodes[qual],
            )
            return local.summarize()

        solver: FixedPoint[str, _TaintSummary] = FixedPoint(
            transfer, dependents=graph.callers
        )
        summaries = solver.solve(
            symtab.functions.keys(), _TaintSummary()
        )

        for qual, fn in symtab.functions.items():
            if self._exempt(fn):
                continue
            local = _TaintLocal(
                fn, sites_by_fn.get(qual, {}), summaries, symtab,
                body_nodes[qual],
            )
            yield from local.findings(self)


# --------------------------------------------------------------------------
# VDB703 — hot-path allocation lints


def _loop_ancestor_within(module, node: ast.AST, fn: ast.AST):
    """The nearest enclosing loop between ``node`` and ``fn`` (or None)."""
    for anc in module.ancestors(node):
        if anc is fn:
            return None
        if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
            return anc
    return None


def _is_self_growth(module, call: ast.Call) -> bool:
    """True for the accumulator pattern ``x = np.append(x, ...)`` — the
    call's result is stored back into a name that also feeds the call.
    A fresh per-round merge (``nbrs = np.concatenate(parts)``) is the
    algorithm, not quadratic growth."""
    parent = module.parent(call)
    while isinstance(parent, ast.Subscript):  # np.append(x, y)[-k:]
        parent = module.parent(parent)
    if not isinstance(parent, (ast.Assign, ast.AugAssign)):
        return False
    targets = (
        parent.targets if isinstance(parent, ast.Assign) else [parent.target]
    )
    target_names = {
        n.id
        for t in targets
        for n in ast.walk(t)
        if isinstance(n, ast.Name)
    }
    arg_names = {
        n.id
        for a in call.args
        for n in ast.walk(a)
        if isinstance(n, ast.Name)
    }
    return bool(target_names & arg_names)


def _loop_assigned_names(loop: ast.AST) -> set[str]:
    """Names (re)bound anywhere inside ``loop`` — a gather whose base
    and index are all loop-invariant is hoistable."""
    out: set[str] = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                out.update(_bare_target_names(t))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            out.update(_bare_target_names(node.target))
        elif isinstance(node, ast.NamedExpr):
            out.update(_bare_target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            out.update(_bare_target_names(node.target))
    return out


def _is_float64_marker(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value in contracts.FLOAT64_MARKERS
    name = dotted_name(expr)
    if name is None:
        return False
    return name.split(".")[-1] in contracts.FLOAT64_MARKERS


def _array_typed_locals(fn: FunctionInfo, numpy_names: set[str]) -> set[str]:
    """Names assigned from numpy array-returning calls / ensure_f32c."""
    out: set[str] = set()
    for node in _own_walk(fn.node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        name = call_name(value)
        is_np = (
            isinstance(value.func, ast.Attribute)
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id in numpy_names
            and name in contracts.NP_ARRAY_RETURNING
        )
        if is_np or name == "ensure_f32c":
            for t in node.targets:
                if isinstance(t, ast.Name):
                    out.add(t.id)
    return out


@register
class HotPathAllocationRule(ProjectRule):
    id = "VDB703"
    name = "flow-hot-allocation"
    invariant = (
        "Inside the call-graph region reachable from the declared hot "
        "entry points (kernels, executor dispatch, serving batch "
        "execution, index search overrides), numpy copy/promotion "
        "anti-patterns are errors: float64 promotion, astype without "
        "an explicit copy= (defaults to a hidden copy), array growth "
        "(np.concatenate/append/...) or fancy indexing inside loops, "
        "and Python-level iteration over ndarrays.  Outside the hot "
        "region the same patterns are info-level advisories — findings "
        "rank by cost."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        symtab = project.symtab
        hot = project.hot_region()
        numpy_cache: dict[str, set[str]] = {}
        for qual, fn in symtab.functions.items():
            if fn.module.module in contracts.ALLOC_TUNED_MODULES:
                continue  # hand-tuned kernels own their discipline
            severity = "error" if qual in hot else "info"
            where = (
                "on the hot path" if severity == "error"
                else "off the hot path (advisory)"
            )
            module = fn.module
            numpy_names = numpy_cache.get(module.path)
            if numpy_names is None:
                numpy_names = _module_aliases(module.tree, "numpy")
                numpy_cache[module.path] = numpy_names
            array_locals = _array_typed_locals(fn, numpy_names)
            for node in _own_walk(fn.node):
                if isinstance(node, ast.Call):
                    yield from self._check_call(
                        project, fn, node, numpy_names, severity, where
                    )
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    yield from self._check_iteration(
                        fn, node, array_locals, severity, where
                    )
                elif isinstance(node, ast.Subscript):
                    yield from self._check_fancy_index(
                        fn, node, array_locals, severity, where
                    )

    # ------------------------------------------------------------- checks

    def _check_call(
        self, project, fn, node, numpy_names, severity, where
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            dtype = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "dtype":
                    dtype = kw.value
            has_copy_kw = any(kw.arg == "copy" for kw in node.keywords)
            if dtype is not None and _is_float64_marker(dtype):
                # Promoting a (d,) query for float64 distance math is
                # the repo's precision convention and costs O(d); only
                # promoting a known *matrix* (ingest-blessed vectors)
                # doubles real memory traffic.  Matrix evidence
                # escalates; everything else stays advisory.
                is_matrix = (
                    isinstance(func.value, ast.Attribute)
                    and func.value.attr in contracts.BLESSED_VECTOR_ATTRS
                ) or (
                    isinstance(func.value, ast.Call)
                    and call_name(func.value) == "ensure_f32c"
                )
                sev = severity if is_matrix else "info"
                what = where if is_matrix else "(advisory)"
                yield self.finding(
                    fn.module,
                    node,
                    f"float64 promotion {what}: .astype(float64) "
                    "doubles memory traffic on every element — keep "
                    "bulk data in float32 (promote only at a "
                    "documented precision boundary)",
                    severity=sev,
                    trace=(fn.qualname,),
                )
            elif not has_copy_kw and severity == "error":
                # Only policed inside the hot region: elsewhere an
                # unconditional copy is a defensible default.
                yield self.finding(
                    fn.module,
                    node,
                    f"hidden copy {where}: .astype() defaults to "
                    "copy=True even when the dtype already matches — "
                    "pass copy=False (or an explicit copy=True when "
                    "aliasing is required)",
                    severity=severity,
                    trace=(fn.qualname,),
                )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in numpy_names
            and func.attr in contracts.HOT_ALLOC_GROWTH_CALLS
            and _loop_ancestor_within(fn.module, node, fn.node)
            and _is_self_growth(fn.module, node)
        ):
            yield self.finding(
                fn.module,
                node,
                f"array growth inside a loop {where}: "
                f"x = np.{func.attr}(x, ...) reallocates and copies "
                "the accumulator on every iteration — collect into a "
                "list and concatenate once, or preallocate",
                severity=severity,
                trace=(fn.qualname,),
            )

    def _check_iteration(
        self, fn, node, array_locals, severity, where
    ) -> Iterator[Finding]:
        it = node.iter
        is_ndarray = (
            isinstance(it, ast.Call) and call_name(it) == "ensure_f32c"
        ) or (isinstance(it, ast.Name) and it.id in array_locals)
        if is_ndarray:
            yield self.finding(
                fn.module,
                node.iter,
                f"Python-level iteration over an ndarray {where}: "
                "each step boxes a row into a new array object — use "
                "vectorized operations or iterate indices",
                severity=severity,
                trace=(fn.qualname,),
            )

    def _check_fancy_index(
        self, fn, node, array_locals, severity, where
    ) -> Iterator[Finding]:
        idx = node.slice
        if not (isinstance(idx, ast.Name) and idx.id in array_locals):
            return
        loop = _loop_ancestor_within(fn.module, node, fn.node)
        if loop is None:
            return
        if isinstance(node.ctx, ast.Store):
            return  # scatter-assign into a preallocated buffer is the fix
        # Only hoistable gathers are findings: when the base or the
        # index is rebound inside the loop, the per-round gather IS the
        # algorithm (beam frontiers, per-group routing).
        rebound = _loop_assigned_names(loop)
        involved = {idx.id}
        if isinstance(node.value, ast.Name):
            involved.add(node.value.id)
        if involved & rebound:
            return
        yield self.finding(
            fn.module,
            node,
            f"loop-invariant fancy indexing {where}: neither the array "
            "nor the index changes across iterations, but every "
            "iteration gathers a fresh copy — hoist the gather out of "
            "the loop",
            severity=severity,
            trace=(fn.qualname,),
        )
