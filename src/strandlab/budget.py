"""Global enumeration guard.

Every exhaustive enumerator in the package counts the objects it
materializes against a single budget.  The limit comes from the
STRANDLAB_MAX_STATES environment variable; exceeding it raises
BudgetExceededError instead of letting a runaway enumeration eat the
machine.  A value that is not a non-negative integer is an input error.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError, InputError

ENV_VAR = "STRANDLAB_MAX_STATES"
DEFAULT_LIMIT = 5_000_000


class StateBudget:
    """Counts enumerated states against a hard limit."""

    def __init__(self, limit: int | None = None):
        if limit is None:
            raw = os.environ.get(ENV_VAR)
            try:
                limit = int(raw) if raw else DEFAULT_LIMIT
            except ValueError:
                limit = -1
            if limit < 0:
                raise InputError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}")
        elif limit < 0:
            raise InputError("budget limit must be non-negative")
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"enumeration exceeded {ENV_VAR}={self.limit} states"
            )


def ensure(budget: StateBudget | None) -> StateBudget:
    """Return the given budget, or a fresh one read from the environment."""
    return budget if budget is not None else StateBudget()
