"""Retry, backoff, and deadline policies over the simulated clock.

Real coordinators bound failover cost with three knobs the tutorial's
§2.3 systems all expose: how many times to retry a replica, how long to
wait between attempts (exponential backoff with jitter, to avoid retry
storms), and a per-request deadline after which a partial answer beats
no answer.  Everything here is expressed in *simulated* seconds — the
same currency as the simulated cluster's clock (network settings plus
work priced by :class:`~repro.core.cost.WorkCostModel`) — so tests and
benches stay deterministic and laptop-fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.errors import DeadlineExceededError

__all__ = ["Deadline", "RetryPolicy"]


@dataclass
class RetryPolicy:
    """Exponential backoff with seeded full-jitter.

    ``backoff(attempt)`` returns the simulated delay to charge *before*
    retry number ``attempt`` (1-based; attempt 1 is the first retry).
    The delay grows as ``base_delay * multiplier**(attempt-1)``, capped
    at ``max_delay``, then jittered by up to ``jitter`` of itself using
    a seeded RNG so runs are reproducible.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.001
    multiplier: float = 2.0
    max_delay_seconds: float = 0.050
    jitter: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def backoff(self, attempt: int) -> float:
        """Simulated delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        delay = min(
            self.base_delay_seconds * self.multiplier ** (attempt - 1),
            self.max_delay_seconds,
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def reset(self) -> None:
        """Re-seed the jitter RNG (fresh deterministic run)."""
        self._rng = random.Random(self.seed)


@dataclass
class Deadline:
    """A per-request budget on the simulated clock.

    The coordinator charges node latencies, failed-attempt RTTs, and
    backoff delays against it; once ``exceeded``, remaining work is
    abandoned (strict mode raises, non-strict mode degrades).
    """

    budget_seconds: float
    spent_seconds: float = 0.0

    def charge(self, seconds: float) -> None:
        self.spent_seconds += seconds

    @property
    def remaining_seconds(self) -> float:
        return self.budget_seconds - self.spent_seconds

    @property
    def exceeded(self) -> bool:
        return self.spent_seconds > self.budget_seconds

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` when over budget."""
        if self.exceeded:
            raise DeadlineExceededError(self.budget_seconds,
                                        self.spent_seconds)
