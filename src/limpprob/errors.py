"""Exception and warning types shared across the package."""


class InvalidParamsError(ValueError):
    """Raised when parameters violate a precondition (bad n, b, r, probability range)."""


class BudgetExceededError(InvalidParamsError):
    """Raised when an exhaustive enumeration is asked to run beyond its size budget."""


class LowLoadWarning(UserWarning):
    """Per-node regeneration load is below two tasks; the degraded-node model is
    an extrapolation there (fewer than two copy tasks can never stall two threads)."""
