"""Shared exception types."""


class NumericalError(RuntimeError):
    """A linear or nonlinear solve broke down (non-convergence, singular
    factor, or non-finite values)."""


class GreedyFailure(RuntimeError):
    """Every candidate subproblem of a greedy sweep failed.

    ``run_greedy`` attaches the run up to its last completed step as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
