"""Exception types shared across the library.

The CLI maps these onto exit codes, so keeping the taxonomy small and
stable matters more than fine-grained subclassing.
"""


class TrihypError(Exception):
    """Base class for all library-specific errors."""


class DomainError(TrihypError, ValueError):
    """Input outside an operation's supported domain (poles, branch
    points, convergence discs, violated hypotheses)."""


class DivergenceError(DomainError):
    """The requested quantity is genuinely infinite/divergent (for
    example a Gauss sum with Re(c-a-b) <= 0)."""


class BudgetError(TrihypError, RuntimeError):
    """A series did not converge within its term budget, or a quadrature
    at its finest level.  ``best`` carries the last estimate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
