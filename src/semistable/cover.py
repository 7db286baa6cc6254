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

from typing import NamedTuple

from .contractions import ContractionRecord
from .errors import InternalError
from .lattices import ratio_to_str
from .polynomials import valuation_with_weights


class CoverData(NamedTuple):
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
    """Cover degree, lifted weights, and the covered discrepancy a*d + d - 1.

    Runs on integers: the weights (w0, 1) are (a1, a2, a3, den)/den, so the
    lifted weights are d*a_i/den, and a*d is the discrepancy's numerator.
    """
    d = record.discrepancy.denominator
    n = record.germ.n
    if n % d:
        raise InternalError(f"the discrepancy denominator {d} must divide the index {n}")
    den = record.w0.denominator
    lifted = []
    for c in (*record.w0.numerators, den):
        if d * c % den:
            raise InternalError(f"lifted weight {ratio_to_str(d * c, den)} must be integral")
        lifted.append(d * c // den)
    return CoverData(
        d=d,
        e=n // d,
        lifted_weights=tuple(lifted),
        covered_discrepancy=record.discrepancy.numerator + d - 1,
    )


def verify_cover(record: ContractionRecord, data: CoverData | None = None) -> bool:
    """Check a~ two ways: the ramification formula against a direct valuation on the cover.

    `data` is the record's `cover_data`, passed by a caller that already
    holds it; it is computed here otherwise.
    """
    if data is None:
        data = cover_data(record)
    direct = (
        sum(data.lifted_weights)
        - valuation_with_weights(data.lifted_weights, record.germ.equation)
        - 1
    )
    return direct == data.covered_discrepancy
