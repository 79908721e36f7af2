"""VDB4xx — kernel boundary: matrices entering the vectorized kernels
must be ``ensure_f32c``-blessed.

Contract provenance: PR 2 centralized layout enforcement in
``repro.index._kernels.ensure_f32c`` and made every kernel assume
float32 C-contiguous input — a float64 or strided matrix silently
upcasts every distance computation on the hot path (the exact
dtype/layout-mismatch bug class the VDBMS bug study attributes most
silent wrong-result defects to).

A vector-matrix argument is *blessed* when it is:

* a direct ``ensure_f32c(...)`` call,
* an attribute the ingest paths guarantee (``._vectors`` /
  ``.vectors`` — enforced in ``VectorIndex.build`` and collection
  ingest),
* a subscript/slice of a blessed expression,
* a local name assigned from a blessed expression in the same function,
  or
* a bare function parameter — the function is then *demand-forwarding*
  and VDB701 (interprocedural blessing) enforces the contract at the
  first unblessed call edge instead of forcing a redundant local
  re-blessing in every wrapper.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..registry import Finding, Module, Rule, register


def _call_name(node: ast.Call) -> str | None:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def _is_blessed(expr: ast.expr, blessed_names: set[str]) -> bool:
    if isinstance(expr, ast.Call):
        return _call_name(expr) == "ensure_f32c"
    if isinstance(expr, ast.Attribute):
        return expr.attr in contracts.BLESSED_VECTOR_ATTRS
    if isinstance(expr, ast.Subscript):
        return _is_blessed(expr.value, blessed_names)
    if isinstance(expr, ast.Name):
        return expr.id in blessed_names
    return False


def _blessed_locals(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names assigned from a blessed expression anywhere in ``fn``.

    Iterated to a fixed point so chains (``a = ensure_f32c(x); b = a``)
    resolve regardless of statement order complexity.
    """
    blessed: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _is_blessed(
                node.value, blessed
            ):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in blessed
                    ):
                        blessed.add(target.id)
                        changed = True
            elif isinstance(node, ast.AnnAssign):
                if (
                    node.value is not None
                    and isinstance(node.target, ast.Name)
                    and _is_blessed(node.value, blessed)
                    and node.target.id not in blessed
                ):
                    blessed.add(node.target.id)
                    changed = True
    return blessed


def _param_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
) -> set[str]:
    """Parameter names of ``fn`` — a bare parameter forwarded into a
    kernel makes the function demand-forwarding (VDB701 takes over)."""
    if fn is None:
        return set()
    args = fn.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}


@register
class KernelBoundaryRule(Rule):
    id = "VDB401"
    name = "kernel-f32c-boundary"
    invariant = (
        "Every matrix passed to a vectorized kernel entry point "
        "(beam_search / batched_beam_search / greedy_walk) must be "
        "ensure_f32c-blessed in the calling function, come from an ingest-guaranteed attribute "
        "(._vectors / .vectors), or be a forwarded parameter — in "
        "which case VDB701 enforces blessing at the call edges."
    )

    def check(self, module: Module) -> Iterator[Finding]:
        if module.module in contracts.KERNEL_DEFINING_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in contracts.KERNEL_ENTRYPOINTS:
                continue
            arg_index = contracts.KERNEL_ENTRYPOINTS[name]
            matrix: ast.expr | None = None
            if len(node.args) > arg_index:
                matrix = node.args[arg_index]
            else:
                for kw in node.keywords:
                    if kw.arg == "vectors":
                        matrix = kw.value
            if matrix is None:
                continue  # malformed call; not this rule's concern
            fn = module.enclosing_function(node)
            blessed_names = _blessed_locals(fn) if fn is not None else set()
            blessed_names |= _param_names(fn)
            if not _is_blessed(matrix, blessed_names):
                yield self.finding(
                    module,
                    matrix,
                    f"matrix passed to kernel '{name}' is not "
                    "ensure_f32c-blessed — wrap it with ensure_f32c(...) "
                    "in this function (kernels assume float32 "
                    "C-contiguous; anything else silently upcasts the "
                    "hot path)",
                )


def _packed_producer_locals(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Local names assigned from a blessed packed-layout producer call."""
    blessed: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            ok = (
                isinstance(value, ast.Call)
                and _call_name(value) in contracts.PACKED_PRODUCERS
            ) or (isinstance(value, ast.Name) and value.id in blessed)
            if not ok:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in blessed:
                    blessed.add(target.id)
                    changed = True
    return blessed


def _is_packed_blessed(expr: ast.expr, producer_names: set[str]) -> bool:
    """``<producer>(...).packed`` or ``<name assigned from producer>.packed``."""
    if not (isinstance(expr, ast.Attribute) and expr.attr == "packed"):
        return False
    base = expr.value
    if isinstance(base, ast.Call):
        return _call_name(base) in contracts.PACKED_PRODUCERS
    if isinstance(base, ast.Name):
        return base.id in producer_names
    return False


@register
class PackedLayoutBoundaryRule(Rule):
    id = "VDB402"
    name = "fastscan-packed-boundary"
    invariant = (
        "The packed argument to fastscan_accumulate must be the .packed "
        "array of a BlockedCodes produced by pack_codes_blocked / "
        "gather_packed_cells / concat_blocked in the calling function — "
        "the (m_eff, n) scan layout is meaningless unless the blocked "
        "packers built it."
    )

    def check(self, module: Module) -> Iterator[Finding]:
        if module.module in contracts.PACKED_DEFINING_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in contracts.PACKED_KERNEL_ENTRYPOINTS:
                continue
            arg_index = contracts.PACKED_KERNEL_ENTRYPOINTS[name]
            packed: ast.expr | None = None
            if len(node.args) > arg_index:
                packed = node.args[arg_index]
            else:
                for kw in node.keywords:
                    if kw.arg == "packed":
                        packed = kw.value
            if packed is None:
                continue
            fn = module.enclosing_function(node)
            producer_names = (
                _packed_producer_locals(fn) if fn is not None else set()
            )
            params = _param_names(fn)
            forwarded = (
                isinstance(packed, ast.Name) and packed.id in params
            ) or _is_packed_blessed(packed, producer_names | params)
            if not forwarded:
                yield self.finding(
                    module,
                    packed,
                    f"packed codes passed to '{name}' do not come from a "
                    "blocked packer — read them off the .packed attribute "
                    "of a pack_codes_blocked / gather_packed_cells / "
                    "concat_blocked result in this function (any other "
                    "(m, n) array scans garbage in blocked order)",
                )
