"""Exception hierarchy shared by all rigidfold modules.

Exit codes mirror the CLI contract: 2 for domain errors (bad input),
3 for numerical failures (no root, divergence, ambiguity), 4 for I/O.
"""

from __future__ import annotations


class RigidFoldError(Exception):
    exit_code = 1


class DomainError(RigidFoldError):
    """Input outside the documented domain of an operation."""

    exit_code = 2


class SingularParameterError(DomainError):
    """Parameter combination makes a closed-form expression singular."""


class OutOfRangeError(DomainError):
    """A computed folding angle left the admissible interval [-pi, pi]."""


class NumericalError(RigidFoldError):
    exit_code = 3


class NotClosedError(NumericalError):
    """A candidate folding failed the loop-closure residual test."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NoSolutionError(NumericalError):
    """A solve step has no real root for the given inputs."""


class BranchAmbiguityError(NumericalError):
    """A half-angle fraction is 0/0 at the drive, so its completion is undetermined."""


class InconsistentPointError(NumericalError):
    """A point satisfied a necessary equation but no completion closes."""
