"""Node-count budgets for the potentially explosive searches.

Every enumeration that can blow up takes an optional node budget.  Running
out raises :class:`BudgetExceededError`; callers that must never return a
wrong boolean catch it and report an inconclusive outcome instead.

A budget counts new memo entries and walk nodes, and a memo hit is free:
it bounds cold work only, so a call on a warm atom set can spend less than
the same call on a fresh one.
"""

from __future__ import annotations

from contextlib import contextmanager

DEFAULT_BUDGET = 5_000_000
DEFAULT_FACTORIZATION_CAP = 200_000


class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget before finishing.

    ``phase`` names the search that ran out, when the caller knows it.
    """

    def __init__(self, limit: int, used: int, phase: str | None = None):
        where = f" in {phase}" if phase else ""
        super().__init__(f"budget exhausted{where}: {used} nodes used, limit {limit}")
        self.limit = limit
        self.used = used
        self.phase = phase


class CapExceededError(RuntimeError):
    """A materialization (e.g. the factorization set) exceeded its cap."""


class Budget:
    """A spendable node counter.  ``limit=None`` means unlimited."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ValueError("budget limit must be >= 1")
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(self.limit, self.used)


def as_budget(budget) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(None if budget is None else int(budget))


@contextmanager
def phase(name: str):
    """Name the phase of a :class:`BudgetExceededError` raised inside."""
    try:
        yield
    except BudgetExceededError as e:
        raise BudgetExceededError(e.limit, e.used, phase=name) from e
