"""Exception types shared across the package, and the budget that raises one."""

import time
from typing import Optional


class ParameterError(ValueError):
    """Invalid field parameters or algebra-kind constraints."""


class NotInSpanError(ValueError):
    """A derivation could not be expressed in an algebra basis."""


class ClosureError(RuntimeError):
    """Internal consistency failure: a bracket left the stored basis span."""


class SerializationError(ValueError):
    """Malformed document, unknown basis label, or format-version mismatch."""


class BudgetExceededError(RuntimeError):
    """A computation hit its term-count or wall-clock budget."""


class Budget:
    """One job's resource limits (None = unlimited).

    The wall clock starts when the budget is made, so each job makes its own.
    """

    def __init__(self, max_terms: Optional[int] = None,
                 max_seconds: Optional[float] = None):
        self.max_terms = max_terms
        self.deadline = (
            None if max_seconds is None else time.monotonic() + max_seconds
        )

    def charge(self, nterms: int) -> None:
        if self.max_terms is not None and nterms > self.max_terms:
            raise BudgetExceededError(
                f"term budget exceeded: {nterms} > {self.max_terms}"
            )
        self.checkpoint()

    def checkpoint(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exceeded")


UNLIMITED = Budget()
