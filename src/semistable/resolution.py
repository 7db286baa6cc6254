"""Hirzebruch-Jung strings, Du Val dual graphs, and rank-2 toric subdivision.

The minimal resolution of the cyclic quotient 1/r(1, q) is a string of
rational curves with self-intersections -b_1, ..., -b_s, where

    r/q = b_1 - 1/(b_2 - 1/(...)),      all b_i >= 2.

Du Val germs resolve to the standard A/D/E trees of (-2)-curves; in the D
and E configurations exactly one curve meets three others (the fork).

A fibre quotient A^2/(1/r)(1, q) is the toric surface of the quadrant cone
in N = Z^2 + Z*(1/r)(1, q).  Inserting a primitive interior ray alpha splits
the quadrant in two subcones, each again a cyclic quotient whose type is a
closed form in the lattice coordinates of alpha, and the inserted divisor F
has discrepancy alpha_1 + alpha_2 - 1, as psi = u + v is 1 on both boundary
ray generators.

The cone of a case-T fibre is 1/(k*n^2)(1, k*n*a - 1), and blowup weights on
x, y, z match interior rays on u, v through x = u^(k*n), y = v^(k*n),
z = u*v:  alpha = (a1, a2)/(d*k*n), pulled back by w0 = (k*n*alpha_1,
k*n*alpha_2, alpha_1 + alpha_2).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import DomainRejection
from .lattices import (
    WeightVector, _Checked, _coordinates, _exact, _scaled, fibre_quotient, to_vector,
)

Vector2 = tuple[Fraction, Fraction]


# Curves one resolution graph may have: 1/r(1, r-1) has r-1 entries and A_m, D_m
# have m curves; 10^6 entries took 94 MB on a 2-vCPU Xeon
_MAX_HJ_LENGTH = 100_000
_TOO_LONG = f"the resolution has more than {_MAX_HJ_LENGTH} curves"


def hj_expansion(r: int, q: int) -> list[int]:
    """Continued fraction r/q = b_1 - 1/(b_2 - ...), all b_i >= 2, of at most _MAX_HJ_LENGTH."""
    r, q = _exact(r, integral=True), _exact(q, integral=True)
    if r < 2 or not 1 <= q < r or gcd(q, r) != 1:
        raise ValueError(f"need r >= 2 and 1 <= q < r coprime, got r={r}, q={q}")
    out = []
    while r > 1:
        if len(out) == _MAX_HJ_LENGTH:
            raise DomainRejection(_TOO_LONG)
        b = -(-r // q)  # ceil(r/q)
        out.append(b)
        r, q = q, b * q - r
    return out


def hj_evaluate(entries) -> Fraction:
    """Evaluate [b_1, ..., b_s] back to b_1 - 1/(b_2 - ...) exactly."""
    value = None
    for b in reversed([_exact(b, integral=True) for b in entries]):
        if value == 0:
            raise ValueError("a partial denominator is zero")
        value = Fraction(b) if value is None else b - 1 / value
    if value is None:
        raise ValueError("empty expansion")
    return value


class GraphVertex(NamedTuple):
    self_intersection: int
    label: str


class DualGraph(NamedTuple):
    """Labeled resolution graph; fork is the index of the degree-3 vertex, if any."""

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[int, int], ...]
    fork: int | None = None

    @classmethod
    def empty(cls) -> "DualGraph":
        return cls(vertices=(), edges=())

    @classmethod
    def string(cls, self_intersections) -> "DualGraph":
        vs = tuple(
            GraphVertex(-abs(b), f"E{i + 1}")
            for i, b in enumerate(self_intersections)
        )
        es = tuple((i, i + 1) for i in range(len(vs) - 1))
        return cls(vertices=vs, edges=es)

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"self_intersection": v.self_intersection, "label": v.label}
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
            "fork": self.fork,
        }


def resolve_cyclic(r: int, q: int) -> DualGraph:
    """Dual graph of the minimal resolution of 1/r(1, q); empty when r = 1."""
    r, q = _exact(r, integral=True), _exact(q, integral=True)
    if r == 1:
        return DualGraph.empty()
    return DualGraph.string(hj_expansion(r, q))


_DUVAL_AD = re.compile("([AD])([1-9][0-9]*)")
_DUVAL_LEGS = {"E6": (1, 2, 2), "E7": (1, 2, 3), "E8": (1, 2, 4)}


def duval_graph(label: str) -> DualGraph:
    """The A/D/E tree of (-2)-curves; D and E graphs carry their fork marker.

    A_m and D_m have m curves, so m past _MAX_HJ_LENGTH raises DomainRejection.
    """
    match = _DUVAL_AD.fullmatch(label)
    if match and int(match[2]) > _MAX_HJ_LENGTH:
        raise DomainRejection(_TOO_LONG)
    if match and match[1] == "A":
        return DualGraph.string([2] * int(match[2]))
    if match and int(match[2]) >= 4:
        legs = (1, 1, int(match[2]) - 3)
    elif label in _DUVAL_LEGS:
        legs = _DUVAL_LEGS[label]
    else:
        raise ValueError(f"not a Du Val type: {label!r}")
    vertices = [GraphVertex(-2, "C1")]
    edges = []
    fork = 0
    for leg in legs:
        previous = fork
        for _ in range(leg):
            vertices.append(GraphVertex(-2, f"C{len(vertices) + 1}"))
            edges.append((previous, len(vertices) - 1))
            previous = len(vertices) - 1
    return DualGraph(vertices=tuple(vertices), edges=tuple(edges), fork=fork)


# ----------------------------------------------------------------------------
# rank-2 toric cones over Z^2 + Z*(1/r)(1, q)


def _ray_coordinates(r: int, q: int, v) -> tuple[int, int] | None:
    """Coordinates of v in the basis (1/r)(1, q), (0, 1), or None off the lattice.

    (u, w) -> (u, -u, w) maps Z^2 + Z*(1/r)(1, q) onto the slice x + y = 0
    of Z^3 + Z*(1/r)(1, -1, q), where the rank-3 coordinates are
    (r*u, 0, w - q*u).
    """
    u, w = to_vector(v, 2)
    coordinates = _coordinates(r, q, *_scaled((u, -u, w)))
    return None if coordinates is None else (coordinates[0], coordinates[2])


class _SurfaceConeFields(NamedTuple):
    r: int
    q: int


class SurfaceCone(_Checked, _SurfaceConeFields):
    """The quadrant cone in Z^2 + Z*(1/r)(1, q), i.e. the cyclic quotient 1/r(1, q)."""

    __slots__ = ()

    def __new__(cls, r: int, q: int):
        r, q = _exact(r, integral=True), _exact(q, integral=True)
        if r < 1:
            raise ValueError("r must be positive")
        normalized_q = q % r if r > 1 else 0
        if r > 1 and gcd(normalized_q, r) != 1:
            raise ValueError(f"gcd(q, r) must be 1, got q={q}, r={r}")
        return super().__new__(cls, r, normalized_q)

    def contains_ray(self, v) -> bool:
        return _ray_coordinates(self.r, self.q, v) is not None

    def ray_is_primitive(self, v) -> bool:
        coordinates = _ray_coordinates(self.r, self.q, v)
        if coordinates == (0, 0):
            raise ValueError("the zero vector is not primitive")
        if coordinates is None:
            raise ValueError(f"{v} does not lie in the lattice")
        return gcd(*coordinates) == 1


def toric_subdivide(cone: SurfaceCone, ray) -> tuple[SurfaceCone, SurfaceCone, Fraction]:
    """Split the quadrant at a primitive interior ray alpha.

    Returns the left cone <(1, 0), alpha> and the right cone <alpha, (0, 1)>
    as normalized quotient types, and the discrepancy psi(alpha) - 1 of the
    inserted divisor, psi = u + v being 1 on both boundary generators.  A
    cone <u, v> has type 1/R(1, Q) when (Q*u + v)/R lies in the lattice.
    With alpha = A*(1/r)(1, q) + B*(0, 1), the right cone has R = A and
    Q = -B^(-1) mod A.  Swapping the axes maps the lattice onto
    Z^2 + Z*(1/r)(1, q^(-1)) and the left cone onto the right cone of
    (alpha_2, alpha_1) with its rays reversed, which inverts Q.
    """
    alpha = to_vector(ray, 2)
    coordinates = _ray_coordinates(cone.r, cone.q, alpha)
    if coordinates is None:
        raise ValueError(f"{alpha} does not lie in the cone lattice")
    if gcd(*coordinates) != 1:
        raise ValueError(f"{alpha} is imprimitive in the cone lattice")
    if not (alpha[0] > 0 and alpha[1] > 0):
        raise ValueError(f"{alpha} is not strictly inside the cone")
    index, b = coordinates
    mirror_index, mirror_b = _ray_coordinates(cone.r, pow(cone.q, -1, cone.r), alpha[::-1])
    left = SurfaceCone(mirror_index, -mirror_b)
    right = SurfaceCone(index, pow(-b, -1, index))
    return left, right, alpha[0] + alpha[1] - 1


# ----------------------------------------------------------------------------
# dictionary between fibre cones and 3-fold blowup weights


def fibre_cone(k: int, n: int, a: int) -> SurfaceCone:
    """The quadrant cone of the fibre quotient 1/(k*n^2)(1, k*n*a - 1)."""
    k, n, a = (_exact(v, integral=True) for v in (k, n, a))
    return SurfaceCone(*fibre_quotient(k, n, a))


def weight_to_ray(k: int, n: int, w0: WeightVector) -> Vector2:
    """Interior ray on (u, v) matching the blowup weight w0 on (x, y, z)."""
    a1, a2, _ = w0.numerators
    d = w0.denominator * _exact(k, integral=True) * _exact(n, integral=True)
    return (Fraction(a1, d), Fraction(a2, d))


def ray_to_weight(k: int, n: int, ray) -> WeightVector:
    """Blowup weight on (x, y, z) matching an interior ray on (u, v).

    Raises ValueError when the resulting rational triple has integer content
    bigger than 1 (such a vector is imprimitive in every ambient lattice).
    """
    alpha = to_vector(ray, 2)
    kn = _exact(k, integral=True) * _exact(n, integral=True)
    return WeightVector.from_fractions((kn * alpha[0], kn * alpha[1], alpha[0] + alpha[1]))
