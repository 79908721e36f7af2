"""VDB6xx — atomic storage writes: no raw file mutation in storage.

Contract provenance: the torture rig's crash-recovery loops (PR 6)
enumerate every write-prefix of two successive snapshot saves and assert
old-or-new recovery.  That proof only covers writes that flow through
``repro.storage.atomic`` — the temp-file + fsync + ``os.replace``
protocol behind the journal-able ``Filesystem`` seam.  A storage module
that calls ``open(path, "w")``, ``Path.write_text``, or ``np.savez``
directly reintroduces exactly the torn-write window the protocol closed,
*and* hides the operation from TortureFS, so the rig would stay green
while the crash bug ships.  VDB601 bans the raw idioms everywhere under
``src/repro/storage`` except the atomic writer itself.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from .. import contracts
from ..registry import Finding, Module, Rule, dotted_name, register

_REMEDY = "route it through repro.storage.atomic (Filesystem seam)"

#: ``open`` mode characters that make the call a write.
_WRITE_MODE_CHARS = frozenset("wax+")


def _covered(module: Module) -> bool:
    if any(fnmatch(module.path, g) for g in contracts.ATOMIC_WRITER_FILES):
        return False
    return any(fnmatch(module.path, g) for g in contracts.STORAGE_WRITE_GLOBS)


def _numpy_aliases(tree: ast.AST) -> set[str]:
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    aliases.add(a.asname or "numpy")
    return aliases


def _open_write_mode(node: ast.Call) -> str | None:
    """The literal mode string when this ``open``/``.open`` call writes."""
    mode: ast.AST | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if _WRITE_MODE_CHARS & set(mode.value):
            return mode.value
    return None


@register
class AtomicStorageWritesRule(Rule):
    id = "VDB601"
    name = "atomic-storage-writes"
    invariant = (
        "Storage modules never mutate files with raw idioms (open-for-"
        "write, Path.write_text/write_bytes, ndarray.tofile, np.save*, "
        "os.replace/remove, shutil.*): every write flows through the "
        "atomic writer in repro.storage.atomic, whose Filesystem seam "
        "the crash-recovery torture loops journal and replay."
    )

    def check(self, module: Module) -> Iterator[Finding]:
        if not _covered(module):
            return
        numpy_names = _numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            # --- in-place writers: p.write_text(...), arr.tofile(...)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in contracts.RAW_WRITE_ATTR_CALLS
            ):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}() writes in place — a crash "
                    f"mid-call leaves a torn file; {_REMEDY}",
                )
                continue
            # --- open(path, "w") / path.open("w")
            if dotted == "open" or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "open"
            ):
                mode = _open_write_mode(node)
                if mode is not None:
                    yield self.finding(
                        module,
                        node,
                        f"open(..., {mode!r}) in a storage module writes "
                        f"without temp-file + rename; {_REMEDY}",
                    )
                continue
            if dotted is None:
                continue
            parts = dotted.split(".")
            # --- np.save / np.savez / np.savez_compressed straight to disk
            if (
                len(parts) == 2
                and parts[0] in numpy_names
                and parts[1] in contracts.RAW_WRITE_NP_FNS
            ):
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() writes straight to its path — serialize "
                    f"with npz_bytes() and {_REMEDY}",
                )
            # --- os.replace / os.remove / shutil.*: invisible to TortureFS
            elif dotted in contracts.RAW_FS_MUTATION_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() bypasses the Filesystem seam — the "
                    f"torture journal cannot see it; {_REMEDY}",
                )
