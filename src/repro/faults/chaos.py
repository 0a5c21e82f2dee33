"""The runtime-face chaos engine: seeded failure injection for sweeps.

A :class:`ChaosPlan` is a small frozen (and picklable — it crosses the
process boundary into pool workers) description of *which* infrastructure
failures to inject into a campaign run:

* worker crashes mid-batch (``os._exit`` before a task runs),
* artificially slow tasks (to exercise per-task timeouts),
* store-object corruption after a put (to exercise quarantine + heal).

Every decision is a pure function of ``(plan.seed, site label)`` via
:func:`repro.utils.rng.derive_seed`, so a chaos run is exactly
reproducible: the same plan injects the same failures into the same
batches regardless of worker count or scheduling order.  Crash
decisions are keyed by ``(batch_index, attempt)`` and only fire while
``attempt < crash_attempts`` — retries past that attempt see a healthy
system, which is what lets the determinism tests demand bit-identical
rows from a chaos run and a clean serial run.

The plan *decides*; the executor and store *act*.  Nothing in this module
touches processes or files.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import require, require_in_range

__all__ = ["ChaosPlan"]


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded failure-injection plan for the campaign runtime.

    Parameters
    ----------
    seed:
        Root seed; every injection decision derives from it.
    crash_rate:
        Probability that a batch's worker dies mid-batch (per batch, per
        attempt below ``crash_attempts``).
    crash_attempts:
        Attempts that are *eligible* to crash.  The default (1) means a
        batch can die on its first attempt only, so one retry always
        recovers; raise it above the executor's retry budget to test
        exhaustion and graceful degradation.
    slow_rate:
        Probability that a given task sleeps for ``slow_s`` before
        computing (exercises per-task timeouts).
    slow_s:
        Sleep injected into slow tasks, in seconds.
    corrupt_rate:
        Probability that a stored result object is corrupted on disk
        right after it is written (exercises quarantine + recompute).
    """

    seed: int
    crash_rate: float = 0.25
    crash_attempts: int = 1
    slow_rate: float = 0.0
    slow_s: float = 0.05
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        require_in_range(self.crash_rate, 0.0, 1.0, "crash_rate")
        require_in_range(self.slow_rate, 0.0, 1.0, "slow_rate")
        require_in_range(self.corrupt_rate, 0.0, 1.0, "corrupt_rate")
        require(self.crash_attempts >= 0, "crash_attempts must be non-negative")
        require(self.slow_s >= 0.0, "slow_s must be non-negative")

    def _coin(self, label: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return bool(make_rng(derive_seed(self.seed, label), "chaos").random() < rate)

    def should_crash(self, batch_index: int, attempt: int) -> bool:
        """Should the worker running this batch attempt die mid-batch?"""
        if attempt >= self.crash_attempts:
            return False
        return self._coin(f"crash:{batch_index}:{attempt}", self.crash_rate)

    def crash_position(self, batch_index: int, attempt: int, batch_size: int) -> int:
        """Task position (within the batch) *before* which the crash fires.

        Mid-batch by construction: for a batch of one the crash fires
        before its only task; larger batches crash somewhere past the
        first task so completed-task counts in crash reports are
        exercised.
        """
        if batch_size <= 1:
            return 0
        rng = make_rng(derive_seed(self.seed, f"crash-pos:{batch_index}:{attempt}"), "chaos")
        return int(rng.integers(1, batch_size))

    def slow_delay(self, task_hash: str) -> float:
        """Seconds of injected sleep for this task (0.0 for most tasks)."""
        if self._coin(f"slow:{task_hash}", self.slow_rate):
            return self.slow_s
        return 0.0

    def should_corrupt(self, task_hash: str) -> bool:
        """Should this task's freshly stored result object be corrupted?"""
        return self._coin(f"corrupt:{task_hash}", self.corrupt_rate)
