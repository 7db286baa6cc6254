"""Structured rejections, kept apart from plain programming errors.

Everything deriving from DomainRejection means "the input is mathematically
outside the contract", not "the library is broken"; the command line maps
these to exit code 2.  A library bug raises an ordinary exception, which
the command line maps to no exit code.
"""

from __future__ import annotations


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
    """The perturbation is outside the census's reduced shape, or past its work budget."""


class ZeroPolynomialError(DomainRejection):
    """An operation that needs a nonzero polynomial got zero (valuation would be infinite)."""
