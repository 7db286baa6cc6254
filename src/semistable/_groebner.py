"""Exact Groebner bases over Q in grevlex order, within a work budget.

Only `germs.isolatedness_probe` uses this module, and it imports it on use.

A polynomial is a monic {monomial: Fraction} dict.  The monomial
x^i y^j z^k t^l is stored as its grevlex key (i+j+k+l, -l, -k, -j): tuples
compare in grevlex order with x > y > z > t, so max() of a polynomial is its
leading monomial, and the map is linear, so the keys of a product and a
quotient are the sum and the difference of the keys.
"""

from __future__ import annotations


class BudgetExhausted(Exception):
    """The Groebner basis needed more work units than the probe may spend."""


def _grevlex_key(exp) -> tuple[int, int, int, int]:
    i, j, k, l = exp
    return (i + j + k + l, -l, -k, -j)


def _exponent(key) -> tuple[int, int, int, int]:
    deg, nl, nk, nj = key
    return (deg + nl + nk + nj, -nj, -nk, -nl)


def _divides(a, b) -> bool:
    """Whether the monomial with key a divides the one with key b."""
    return (
        a[1] >= b[1] and a[2] >= b[2] and a[3] >= b[3]
        and a[0] + a[1] + a[2] + a[3] <= b[0] + b[1] + b[2] + b[3]
    )


def _monomial_lcm(a, b) -> tuple[int, int, int, int]:
    nl, nk, nj = min(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3])
    i = max(a[0] + a[1] + a[2] + a[3], b[0] + b[1] + b[2] + b[3])
    return (i - nl - nk - nj, nl, nk, nj)


def _monic(p: dict) -> dict:
    lead = p[max(p)]
    return {m: c / lead for m, c in p.items()}


class Buchberger:
    """A grevlex Groebner basis over Q, within a deterministic work budget.

    The improved Buchberger algorithm GROEBNERNEWS2 (Becker-Weispfenning,
    Groebner Bases, 1993, p. 232): the input is interreduced, critical pairs
    are taken in normal order (least lcm first) and the Gebauer-Moller update
    applies the product and chain criteria and prunes old pairs.  Work is
    charged as it is done (see reduce), and running past the budget raises
    BudgetExhausted.
    """

    def __init__(self, budget: int):
        self.left = budget
        self.polys: list[dict] = []  # every basis element ever added
        self.heads: list[tuple] = []  # their leading monomials
        self.basis: list[int] = []  # indices of the current basis, by ascending head
        self.pairs: list[tuple] = []  # critical pairs (lcm, i, j)

    def charge(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise BudgetExhausted

    def leading_monomials(self, system) -> list[tuple[int, int, int, int]]:
        """Leading exponents of a Groebner basis of the ideal the polynomials span.

        `system` holds {exponent: Fraction} dicts over (x, y, z, t).
        """
        inputs = [_monic({_grevlex_key(e): c for e, c in p.items()}) for p in system if p]
        while True:  # interreduce: each input modulo the ones before it, until none moves
            reduced = []
            for i, p in enumerate(inputs):
                divisors = sorted(((max(q), q) for q in inputs[:i]), key=lambda item: item[0])
                if r := self.reduce(p, divisors):
                    reduced.append(r)
            if reduced == inputs:
                break
            inputs = reduced
        for p in sorted(inputs, key=max):
            self.update(p)
        while self.pairs:
            best = min(range(len(self.pairs)), key=self.pairs.__getitem__)
            _, i, j = self.pairs.pop(best)
            f, g = self.polys[i], self.polys[j]
            self.charge(len(self.pairs) + len(self.basis) + len(f) + len(g))
            h = self.reduce(
                _s_polynomial(f, g), [(self.heads[b], self.polys[b]) for b in self.basis]
            )
            if h:
                self.update(h)
        return [_exponent(self.heads[b]) for b in self.basis]

    def reduce(self, p: dict, divisors: list) -> dict:
        """The monic normal form of p by the (head, poly) divisors; {} for zero.

        Divisors are tried in their order; smallest head first takes the
        fewest steps on average.  Finding the leading term of what is left
        and a divisor for it is charged the sizes of both; a step that
        cancels that term c*m against (m/m')*g, for a divisor g with head m',
        is charged the size of g times the word length of c.
        """
        p, done = dict(p), {}
        while p:
            m = max(p)
            self.charge(len(p) + len(divisors))
            for gm, g in divisors:
                q0, q1, q2, q3 = m[0] - gm[0], m[1] - gm[1], m[2] - gm[2], m[3] - gm[3]
                if q1 <= 0 and q2 <= 0 and q3 <= 0 and q0 + q1 + q2 + q3 >= 0:
                    break
            else:
                done[m] = p.pop(m)
                continue
            c = p[m]
            words = 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64
            self.charge(len(g) * words)
            for (a0, a1, a2, a3), v in g.items():
                key = (a0 + q0, a1 + q1, a2 + q2, a3 + q3)
                if w := p.get(key, 0) - c * v:
                    p[key] = w
                else:
                    del p[key]
        return _monic(done) if done else done

    def update(self, h: dict) -> None:
        """Add h to the basis: the Gebauer-Moller update of the pairs and the basis."""
        self.charge(len(self.basis) ** 2 + len(self.pairs))
        self.polys.append(h)
        self.heads.append(hm := max(h))
        new = len(self.polys) - 1
        heads = self.heads
        # chain criterion among the new pairs: drop (h, g) when a later
        # candidate or an already kept pair has an lcm dividing its own
        candidates = [(_monomial_lcm(hm, heads[g]), g) for g in self.basis]
        kept: list = []
        for idx, (top, g) in enumerate(candidates):
            disjoint = top == tuple(a + b for a, b in zip(hm, heads[g]))
            if disjoint or not (
                any(_divides(t, top) for t, _ in candidates[idx + 1:])
                or any(_divides(t, top) for t, _, _ in kept)
            ):
                kept.append((top, g, disjoint))
        # old pairs whose lcm h's head divides strictly on both sides are redundant
        self.pairs = [
            (top, i, j) for top, i, j in self.pairs
            if not _divides(hm, top)
            or _monomial_lcm(heads[i], hm) == top
            or _monomial_lcm(hm, heads[j]) == top
        ]
        # product criterion: coprime heads give an S-polynomial reducing to zero
        self.pairs += [(top, g, new) for top, g, disjoint in kept if not disjoint]
        self.basis = sorted(
            [g for g in self.basis if not _divides(hm, heads[g])] + [new], key=heads.__getitem__
        )


def _s_polynomial(f: dict, g: dict) -> dict:
    """(l/m_f)*f - (l/m_g)*g for monic f, g with heads m_f, m_g and l = lcm(m_f, m_g)."""
    fm, gm = max(f), max(g)
    top = _monomial_lcm(fm, gm)
    out: dict = {}
    for p, m, sign in ((f, fm, 1), (g, gm, -1)):
        q0, q1, q2, q3 = top[0] - m[0], top[1] - m[1], top[2] - m[2], top[3] - m[3]
        for (a0, a1, a2, a3), c in p.items():
            key = (a0 + q0, a1 + q1, a2 + q2, a3 + q3)
            if v := out.get(key, 0) + sign * c:
                out[key] = v
            else:
                del out[key]
    return out
