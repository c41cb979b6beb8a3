"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies.
"""


class PreconditionError(ValueError):
    """An operation was called with inputs violating its contract."""


class BudgetError(RuntimeError):
    """An exact computation would exceed its configured size budget."""


class RejectionBudgetError(BudgetError):
    """Rejection sampling fell below the acceptance-rate floor."""


class SoundnessError(RuntimeError):
    """An internal cross-check that must never fail did fail."""
