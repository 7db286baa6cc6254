"""Structured rejections, kept apart from plain programming errors.

Everything deriving from DomainRejection means "the input is mathematically
outside the contract", not "the library is broken"; the command line maps
these to exit code 2.  InternalError is the opposite: a broken internal
invariant, which no input should reach.  It derives from neither ValueError
nor DomainRejection, so the command line reports it as neither a rejection
(exit 2) nor a parse failure (exit 3).
"""

from __future__ import annotations


class InternalError(Exception):
    """An internal invariant failed: a library bug, never a property of the input."""


class DomainRejection(ValueError):
    """Base class for inputs rejected on mathematical grounds."""


class GermRejection(DomainRejection):
    """A raw germ failed validation against the normal forms."""


class NonAdmissibleWeight(DomainRejection):
    """A weight vector is not admissible for the given germ."""


class SemistabilityViolation(DomainRejection):
    """The perturbation drops below the weight of f; carries a witness monomial."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedForm(DomainRejection):
    """The perturbation is outside the reduced shape the census templates cover."""


class ZeroPolynomialError(DomainRejection):
    """An operation that needs a nonzero polynomial got zero (valuation would be infinite)."""
