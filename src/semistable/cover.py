"""Index-one cover bookkeeping for a contraction record.

Write w0 = (1/d)(a1, a2, a3) in lowest terms, for a weight admissible for
a germ of index n.  Then d divides n, e = n/d, and the discrepancy a(E) has
exact denominator d: in case T it is a3/d, and membership of w0 in
Z^3 + Z*(1/n)(1,-1,a) makes a1 and a3 units mod d and d | n (the proof is
in the contractions module docstring); in the D and E cases n = d = 1.
The cover of the blowup is the weighted blowup of the same equation in
plain affine space with the integral weights d*(w0, 1) = (a1, a2, a3, d),
the record's `ambient`.  The covered exceptional divisor has discrepancy

    a~ = a(E)*d + d - 1        (Riemann-Hurwitz ramification along E),

and a(E)*d = a1 + a2 + a3 - d*lambda is the numerator of a(E), which the
record reads off its integer d*lambda.  verify_cover recomputes a~
independently as sum(lifted weights) - w~(f + t*g) - 1 on the cover.  Only
numerical data is kept; the cover is never built as a variety.
"""

from __future__ import annotations

from typing import NamedTuple

from .contractions import ContractionRecord
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
    """Cover degree, lifted weights, and the covered discrepancy a(E)*d + d - 1.

    Each is a closed form of the module docstring.
    """
    d = record.w0.denominator
    return CoverData(
        d=d,
        e=record.germ.n // d,
        lifted_weights=record.ambient,
        covered_discrepancy=record._scaled_discrepancy + d - 1,
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
