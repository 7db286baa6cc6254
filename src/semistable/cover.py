"""Index-one cover bookkeeping for a contraction record.

Write the discrepancy as a = a1/d in lowest terms; then d divides the germ
index n, e = n/d, and the cover of the blowup is the weighted blowup of the
same equation in plain affine space with the integral weights d*(w0, 1).
The covered exceptional divisor has discrepancy

    a~ = a*d + d - 1        (Riemann-Hurwitz ramification along E),

which verify_cover recomputes independently as
sum(lifted weights) - w~(f + t*g) - 1 on the cover.  Only numerical data is
kept; the cover is never built as a variety.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contractions import ContractionRecord
from .errors import InternalError
from .polynomials import valuation_with_weights


@dataclass(frozen=True)
class CoverData:
    d: int
    e: int
    lifted_weights: tuple[int, int, int, int]
    covered_discrepancy: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "e": self.e,
            "lifted_weights": list(self.lifted_weights),
            "covered_discrepancy": self.covered_discrepancy,
        }


def cover_data(record: ContractionRecord) -> CoverData:
    """Cover degree, lifted weights, and the covered discrepancy a*d + d - 1."""
    disc = record.discrepancy
    d = disc.denominator
    n = record.germ.n
    if n % d:
        raise InternalError(f"the discrepancy denominator {d} must divide the index {n}")
    lifted = []
    for w in record.w0.extended:
        scaled = d * w
        if scaled.denominator != 1:
            raise InternalError(f"lifted weight {scaled} must be integral")
        lifted.append(int(scaled))
    covered = disc * d + d - 1
    if covered.denominator != 1:
        raise InternalError(f"covered discrepancy {covered} must be integral")
    return CoverData(
        d=d,
        e=n // d,
        lifted_weights=tuple(lifted),
        covered_discrepancy=int(covered),
    )


def verify_cover(record: ContractionRecord) -> bool:
    """Check a~ two ways: the ramification formula against a direct valuation on the cover."""
    data = cover_data(record)
    direct = (
        sum(data.lifted_weights)
        - valuation_with_weights(data.lifted_weights, record.germ.equation)
        - 1
    )
    return direct == data.covered_discrepancy
