"""Hirzebruch-Jung strings, Du Val dual graphs, and rank-2 toric subdivision.

The minimal resolution of the cyclic quotient 1/r(1, q) is a string of
rational curves with self-intersections -b_1, ..., -b_s, where

    r/q = b_1 - 1/(b_2 - 1/(...)),      all b_i >= 2.

Du Val germs resolve to the standard A/D/E trees of (-2)-curves; in the D
and E configurations exactly one curve meets three others (the fork).

A fibre quotient A^2/(1/r)(1, q) is the toric surface of the quadrant cone
in N = Z^2 + Z*(1/r)(1, q).  Inserting a primitive interior ray alpha splits
the quadrant in two subcones, each again a cyclic quotient, and the inserted
divisor F has discrepancy psi(alpha) - 1 for the linear form psi that is 1
on both boundary ray generators.

The cone of a case-T fibre is 1/(k*n^2)(1, k*n*a - 1), and blowup weights on
x, y, z match interior rays on u, v through x = u^(k*n), y = v^(k*n),
z = u*v:  alpha = (a1, a2)/(d*k*n), pulled back by w0 = (k*n*alpha_1,
k*n*alpha_2, alpha_1 + alpha_2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import InternalError
from .lattices import (
    QuotientLattice,
    WeightVector,
    _exact,
    fibre_quotient,
    is_primitive,
    lattice_contains,
    to_vector,
)

Vector2 = tuple[Fraction, Fraction]


def hj_expansion(r: int, q: int) -> list[int]:
    """Continued fraction r/q = b_1 - 1/(b_2 - ...) with all b_i >= 2."""
    if r < 2 or not 1 <= q < r or gcd(q, r) != 1:
        raise ValueError(f"need r >= 2 and 1 <= q < r coprime, got r={r}, q={q}")
    out = []
    while r > 1:
        b = -(-r // q)  # ceil(r/q)
        out.append(b)
        r, q = q, b * q - r
    return out


def hj_evaluate(entries) -> Fraction:
    """Evaluate [b_1, ..., b_s] back to b_1 - 1/(b_2 - ...) exactly."""
    value = None
    for b in reversed([_exact(b, integral=True) for b in entries]):
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
    if r == 1:
        return DualGraph.empty()
    return DualGraph.string(hj_expansion(r, q))


_DUVAL_LEGS = {"E6": (1, 2, 2), "E7": (1, 2, 3), "E8": (1, 2, 4)}


def duval_graph(label: str) -> DualGraph:
    """The A/D/E tree of (-2)-curves; D and E graphs carry their fork marker."""
    kind, index = label[0], label[1:]
    if kind == "A" and index.isdigit() and int(index) >= 1:
        n = int(index)
        return DualGraph.string([2] * n)
    if kind == "D" and index.isdigit() and int(index) >= 4:
        legs = (1, 1, int(index) - 3)
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


def _coords2(r: int, q: int, v: Vector2) -> tuple[int, int]:
    # coordinates in the lattice basis {(1/r)(1, q), (0, 1)}
    a = r * v[0]
    b = v[1] - q * v[0]
    if a.denominator != 1 or b.denominator != 1:
        raise InternalError(f"{v} has no integer coordinates in the lattice basis")
    return int(a), int(b)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quot = a // b
        a, b = b, a - quot * b
        x0, x1 = x1, x0 - quot * x1
        y0, y1 = y1, y0 - quot * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _cone_type(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Normalize the cone spanned by primitive u, v (integer coordinates) to 1/r'(1, q')."""
    g, x, y = _ext_gcd(u[0], u[1])
    if g != 1:
        raise InternalError("first ray must be primitive")
    alpha = x * v[0] + y * v[1]
    beta = -u[1] * v[0] + u[0] * v[1]
    if beta == 0:
        raise ValueError("rays are parallel")
    beta = abs(beta)  # (a, b) -> (a, -b) fixes (1, 0)
    alpha %= beta
    if beta == 1:
        return 1, 0
    q_prime = (beta - alpha) % beta
    if not (1 <= q_prime < beta and gcd(q_prime, beta) == 1):
        raise InternalError(f"cone type 1/{beta}(1,{q_prime}) is not normalized")
    return beta, q_prime


_QUADRANT = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


class _SurfaceConeFields(NamedTuple):
    r: int
    q: int
    rays: tuple[Vector2, Vector2]


class SurfaceCone(_SurfaceConeFields):
    """A 2-dimensional cone in Z^2 + Z*(1/r)(1, q); defaults to the quadrant."""

    __slots__ = ()

    def __new__(cls, r: int, q: int, rays=_QUADRANT):
        if r < 1:
            raise ValueError("r must be positive")
        normalized_q = q % r if r > 1 else 0
        if r > 1 and gcd(normalized_q, r) != 1:
            raise ValueError(f"gcd(q, r) must be 1, got q={q}, r={r}")
        rays = tuple(to_vector(ray, 2) for ray in rays)
        if rays[0][0] * rays[1][1] - rays[0][1] * rays[1][0] == 0:
            raise ValueError("cone rays must be linearly independent")
        self = super().__new__(cls, r, normalized_q, rays)
        for ray in rays:
            if not (self.contains_ray(ray) and self.ray_is_primitive(ray)):
                raise ValueError(f"cone ray {ray} is not a primitive lattice vector")
        return self

    # (u, v) -> (u, -u, v) maps Z^2 + Z*(1/r)(1, q) onto the plane slice
    # x + y = 0 of Z^3 + Z*(1/r)(1, -1, q), so the rank-3 checks decide both.
    def contains_ray(self, v) -> bool:
        u, w = to_vector(v, 2)
        return lattice_contains(QuotientLattice(self.r, self.q), (u, -u, w))

    def ray_is_primitive(self, v) -> bool:
        u, w = to_vector(v, 2)
        return is_primitive(QuotientLattice(self.r, self.q), (u, -u, w))


def toric_subdivide(cone: SurfaceCone, ray) -> tuple[SurfaceCone, SurfaceCone, Fraction]:
    """Split the cone at a primitive interior ray.

    Returns the two subcones as normalized quotient types 1/r'(1, q') and the
    discrepancy psi(ray) - 1 of the inserted divisor, psi being 1 on both
    boundary generators.
    """
    alpha = to_vector(ray, 2)
    if not cone.contains_ray(alpha):
        raise ValueError(f"{alpha} does not lie in the cone lattice")
    if not cone.ray_is_primitive(alpha):
        raise ValueError(f"{alpha} is imprimitive in the cone lattice")
    u, v = cone.rays

    def cross(p, s):
        return p[0] * s[1] - p[1] * s[0]

    orientation = cross(u, v)
    if not (cross(u, alpha) * orientation > 0 and cross(alpha, v) * orientation > 0):
        raise ValueError(f"{alpha} is not strictly inside the cone")

    det = orientation
    p1 = (v[1] - u[1]) / det
    p2 = (u[0] - v[0]) / det
    f_discrepancy = p1 * alpha[0] + p2 * alpha[1] - 1

    cu = _coords2(cone.r, cone.q, u)
    cv = _coords2(cone.r, cone.q, v)
    ca = _coords2(cone.r, cone.q, alpha)
    left = SurfaceCone(*_cone_type(cu, ca))
    right = SurfaceCone(*_cone_type(ca, cv))
    return left, right, f_discrepancy


# ----------------------------------------------------------------------------
# dictionary between fibre cones and 3-fold blowup weights


def fibre_cone(k: int, n: int, a: int) -> SurfaceCone:
    """The quadrant cone of the fibre quotient 1/(k*n^2)(1, k*n*a - 1)."""
    return SurfaceCone(*fibre_quotient(k, n, a))


def weight_to_ray(k: int, n: int, w0: WeightVector) -> Vector2:
    """Interior ray on (u, v) matching the blowup weight w0 on (x, y, z)."""
    a1, a2, _ = w0.numerators
    d = w0.denominator
    return (Fraction(a1, d * k * n), Fraction(a2, d * k * n))


def ray_to_weight(k: int, n: int, ray) -> WeightVector:
    """Blowup weight on (x, y, z) matching an interior ray on (u, v).

    Raises ValueError when the resulting rational triple has integer content
    bigger than 1 (such a vector is imprimitive in every ambient lattice).
    """
    alpha = to_vector(ray, 2)
    return WeightVector.from_fractions(
        (k * n * alpha[0], k * n * alpha[1], alpha[0] + alpha[1])
    )
