"""Torture rig: adversarial, seed-reproducible testing of the stack.

Three pillars, one report format (rule-tagged findings that name the
seed and a one-line repro command):

* :mod:`repro.torture.crash` — a seeded crash-recovery loop.  A
  :class:`~repro.torture.fsshim.TortureFS` journals every filesystem
  primitive two successive snapshot saves perform; every operation
  prefix (plus torn half-writes) is replayed and reopened, and the
  recovered state must be exactly old-or-new, never torn.
* :mod:`repro.torture.relations` — metamorphic relations (insertion-
  order invariance, filter decomposition, quantization monotonicity,
  shard invariance, delete liveness, score scaling) run against every
  index in the registry.
* :mod:`repro.torture.differential` — cross-index differential search:
  seeded random (collection, config, query, predicate) instances judged
  against the flat oracle with ordering/containment/recall oracles.

Run it with ``torture`` (console script) or ``python -m repro.torture``.
"""

from .crash import crash_recovery_database, run_crash
from .differential import run_differential, run_differential_one
from .driver import main, run_rig
from .fsshim import FsOp, TortureFS
from .relations import RELATIONS, Relation, relation, run_metamorphic
from .reporting import TortureFinding, TortureReport

__all__ = [
    "RELATIONS",
    "FsOp",
    "Relation",
    "TortureFS",
    "TortureFinding",
    "TortureReport",
    "crash_recovery_database",
    "main",
    "relation",
    "run_crash",
    "run_differential",
    "run_differential_one",
    "run_metamorphic",
    "run_rig",
]
