"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid field parameters or algebra-kind constraints."""


class NotInSpanError(ValueError):
    """A derivation could not be expressed in an algebra basis."""


class ClosureError(RuntimeError):
    """Internal consistency failure: a bracket left the stored basis span."""


class SerializationError(ValueError):
    """Malformed document, unknown basis label, or format-version mismatch."""


class BudgetExceededError(RuntimeError):
    """A computation hit its term-count or wall-clock budget.

    ``partial`` carries whatever intermediate object was available when the
    budget tripped; it is best-effort diagnostics, not a usable result.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
