import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import semistable as ss
from oracles import PRIMES, oracle_cone_type, oracle_contains2
from semistable import SurfaceCone


def adjacency(graph):
    out = {i: [] for i in range(len(graph.vertices))}
    for i, j in graph.edges:
        out[i].append(j)
        out[j].append(i)
    return out


def degrees(graph):
    return [len(neighbours) for _, neighbours in sorted(adjacency(graph).items())]


def is_connected(graph):
    if not graph.vertices:
        return True
    neighbours, seen, frontier = adjacency(graph), {0}, [0]
    while frontier:
        for w in neighbours[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(graph.vertices)


def test_hj_examples():
    assert ss.hj_expansion(4, 1) == [4]
    assert ss.hj_expansion(5, 2) == [3, 2]
    for r in (2, 3, 7, 11):
        assert ss.hj_expansion(r, r - 1) == [2] * (r - 1)


def test_hj_input_validation():
    for r, q in [(1, 1), (4, 0), (4, 4), (4, 2), (6, 3)]:
        with pytest.raises(ValueError):
            ss.hj_expansion(r, q)
    with pytest.raises(ValueError, match="empty expansion"):
        ss.hj_evaluate([])
    for entries in ([2, 1, 1], [2, 0], [4, 2, 0], [5, 2, 1, 1]):  # a partial denominator is 0
        with pytest.raises(ValueError, match="partial denominator"):
            ss.hj_evaluate(entries)
    assert ss.hj_evaluate([1, 1]) == 0


def test_hj_expansion_length_is_bounded():
    from semistable.resolution import _MAX_HJ_LENGTH

    longest = _MAX_HJ_LENGTH + 1  # 1/r(1, r-1) resolves to r-1 curves
    assert ss.hj_expansion(longest, longest - 1) == [2] * _MAX_HJ_LENGTH
    for r in (longest + 1, 10**9 + 1):
        with pytest.raises(ss.DomainRejection, match=str(_MAX_HJ_LENGTH)):
            ss.hj_expansion(r, r - 1)


def test_duval_graph_size_is_bounded():
    from semistable.resolution import _MAX_HJ_LENGTH

    # A_m and D_m have m curves; past the limit the label is refused before any vertex is built
    assert len(ss.duval_graph(f"A{_MAX_HJ_LENGTH}").vertices) == _MAX_HJ_LENGTH
    for label in (f"A{_MAX_HJ_LENGTH + 1}", f"D{_MAX_HJ_LENGTH + 1}", "D1000000000"):
        start = time.perf_counter()
        with pytest.raises(ss.DomainRejection, match=str(_MAX_HJ_LENGTH)):
            ss.duval_graph(label)
        assert time.perf_counter() - start < 0.1


def test_hj_round_trip_small():
    for r in range(2, 61):
        for q in range(1, r):
            if gcd(q, r) != 1:
                continue
            entries = ss.hj_expansion(r, q)
            assert all(b >= 2 for b in entries)
            assert ss.hj_evaluate(entries) == Fraction(r, q)
            assert (set(entries) == {2}) == (q == r - 1)


def test_hj_expansion_of_the_inverse_is_reversed():
    # 1/r(1, q) and 1/r(1, q^-1) are one germ with its two axes swapped
    for r in range(2, 200):
        for q in range(1, r):
            if gcd(q, r) == 1:
                assert ss.hj_expansion(r, pow(q, -1, r)) == ss.hj_expansion(r, q)[::-1]


def test_resolve_cyclic():
    graph = ss.resolve_cyclic(4, 1)
    assert [v.self_intersection for v in graph.vertices] == [-4]
    assert graph.edges == ()

    graph = ss.resolve_cyclic(2, 1)
    assert [v.self_intersection for v in graph.vertices] == [-2]

    assert ss.resolve_cyclic(1, 0) == ss.DualGraph.empty()

    graph = ss.resolve_cyclic(7, 4)  # 7/4 = [2, 4]
    assert [v.self_intersection for v in graph.vertices] == [-2, -4]
    assert graph.edges == ((0, 1),)
    assert is_connected(graph)


def test_duval_graph_A():
    graph = ss.duval_graph("A3")
    assert len(graph.vertices) == 3
    assert all(v.self_intersection == -2 for v in graph.vertices)
    assert graph.fork is None
    assert sorted(degrees(graph)) == [1, 1, 2]


def test_duval_graph_D4_star():
    graph = ss.duval_graph("D4")
    assert len(graph.vertices) == 4
    assert graph.fork is not None
    assert degrees(graph)[graph.fork] == 3
    assert sorted(degrees(graph)) == [1, 1, 1, 3]


def test_duval_graph_D_and_E_shapes():
    for label, size in [("D5", 5), ("D8", 8), ("E6", 6), ("E7", 7), ("E8", 8)]:
        graph = ss.duval_graph(label)
        assert len(graph.vertices) == size
        assert len(graph.edges) == size - 1  # tree
        assert is_connected(graph)
        assert all(v.self_intersection == -2 for v in graph.vertices)
        assert degrees(graph)[graph.fork] == 3
        assert max(degrees(graph)) == 3


def test_duval_graph_leg_lengths():
    def legs(graph):
        neighbours = adjacency(graph)
        out = []
        for start in neighbours[graph.fork]:
            length, prev, node = 1, graph.fork, start
            while True:
                nxt = [v for v in neighbours[node] if v != prev]
                if not nxt:
                    break
                prev, node = node, nxt[0]
                length += 1
            out.append(length)
        return sorted(out)

    assert legs(ss.duval_graph("E6")) == [1, 2, 2]
    assert legs(ss.duval_graph("E7")) == [1, 2, 3]
    assert legs(ss.duval_graph("E8")) == [1, 2, 4]
    assert legs(ss.duval_graph("D6")) == [1, 1, 3]


def test_duval_graph_rejects_unknown_labels():
    # the index is ASCII [1-9][0-9]*: no other script's digits, no leading zero
    for label in ["B2", "D3", "E9", "A0", "foo", "", "A", "A\uff13", "D\u0664", "A01", "D04",
                  "A-1", "A+1", "A 3", "E6 "]:
        with pytest.raises(ValueError):
            ss.duval_graph(label)


def test_surface_cone_validation():
    cone = SurfaceCone(4, 5)
    assert cone.q == 1  # normalized mod r
    with pytest.raises(ValueError):
        SurfaceCone(4, 2)
    with pytest.raises(ValueError, match="r must be positive"):
        SurfaceCone(0, 0)


def test_surface_cone_rejects_rays_off_the_lattice():
    cone = SurfaceCone(4, 1)
    with pytest.raises(ValueError, match="zero vector"):
        cone.ray_is_primitive((0, 0))
    with pytest.raises(ValueError, match="does not lie in the lattice"):
        cone.ray_is_primitive((Fraction(1, 3), 0))


@pytest.mark.parametrize(
    "r,q", [(1, 0), (2, 1), (4, 1), (5, 2), (6, 5), (7, 3), (9, 2), (12, 5), (25, 7)]
)
def test_cone_lattice_checks_match_oracle(r, q):
    cone = SurfaceCone(r, q)
    for den in sorted({1, 2, r, 2 * r}):
        for x in range(-den - 2, den + 3):
            for y in range(-den - 2, den + 3):
                ray = (Fraction(x, den), Fraction(y, den))
                member = oracle_contains2(r, q, ray)
                assert cone.contains_ray(ray) == member, ray
                if not member or ray == (0, 0):
                    continue
                primitive = not any(
                    oracle_contains2(r, q, (ray[0] / p, ray[1] / p)) for p in PRIMES
                    if p <= 3 * r
                )
                assert cone.ray_is_primitive(ray) == primitive, ray


def test_subdivide_quadrant_examples():
    left, right, F = ss.toric_subdivide(SurfaceCone(4, 1), (Fraction(1, 4), Fraction(1, 4)))
    assert (left.r, right.r) == (1, 1)
    assert F == Fraction(-1, 2)

    left, right, F = ss.toric_subdivide(SurfaceCone(1, 0), (1, 1))
    assert (left.r, right.r) == (1, 1)
    assert F == 1

    left, right, F = ss.toric_subdivide(SurfaceCone(2, 1), (Fraction(1, 2), Fraction(1, 2)))
    assert (left.r, right.r) == (1, 1)
    assert F == 0

    left, right, F = ss.toric_subdivide(SurfaceCone(4, 1), (Fraction(1, 4), Fraction(5, 4)))
    assert (left.r, left.q) == (5, 1)
    assert (right.r, right.q) == (1, 0)
    assert F == Fraction(1, 2)

    left, right, F = ss.toric_subdivide(SurfaceCone(1, 0), (1, 2))
    assert (left.r, right.r) == (2, 1)
    assert F == 2


def test_subdivide_rejects_bad_rays():
    cone = SurfaceCone(4, 1)
    quarter = Fraction(1, 4)
    for ray in [(1, 0), (0, 1), (-quarter, -quarter), (-quarter, 7 * quarter),
                (5 * quarter, -3 * quarter)]:  # on the boundary or outside the cone
        with pytest.raises(ValueError, match="not strictly inside"):
            ss.toric_subdivide(cone, ray)
    with pytest.raises(ValueError, match="imprimitive"):
        ss.toric_subdivide(cone, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="does not lie"):
        ss.toric_subdivide(cone, (Fraction(1, 3), Fraction(1, 3)))


def test_subcone_index_matches_determinant_oracle():
    # |det| of the ray coordinates in a lattice basis equals the subcone order
    for r, q in [(4, 1), (5, 2), (7, 3), (9, 2)]:
        cone = SurfaceCone(r, q)
        for p1 in range(1, 2 * r):
            for p2 in range(1, 2 * r):
                ray = (Fraction(p1, r), Fraction(p2, r))
                if not cone.contains_ray(ray):
                    continue
                try:
                    left, right, _ = ss.toric_subdivide(cone, ray)
                except ValueError:
                    continue
                u1, u2 = r * 1, 0 - q * 1  # coords of (1, 0)
                a1, a2 = p1, Fraction(p2 - q * p1, r)
                assert a2.denominator == 1
                det_left = abs(u1 * int(a2) - u2 * a1)
                det_right = abs(a1 * 1 - int(a2) * 0)
                assert det_left == left.r
                assert det_right == right.r


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 25])
def test_subdivision_matches_cone_type_oracle(r):
    # both pieces are the oracle's types of <(1, 0), alpha> and <alpha, (0, 1)>
    for q in (q for q in range(r) if gcd(q, r) == 1):
        cone = SurfaceCone(r, q)
        for den in sorted({1, r}):
            for p1 in range(1, den + 2):
                for p2 in range(1, den + 2):
                    ray = (Fraction(p1, den), Fraction(p2, den))
                    if not (cone.contains_ray(ray) and cone.ray_is_primitive(ray)):
                        continue
                    left, right, F = ss.toric_subdivide(cone, ray)
                    assert tuple(left) == oracle_cone_type(r, q, (1, 0), ray), ray
                    assert tuple(right) == oracle_cone_type(r, q, ray, (0, 1)), ray
                    assert F == ray[0] + ray[1] - 1


def test_fibre_cone_matches_fibre_singularity():
    for n, a, k in [(2, 1, 1), (1, 0, 2), (3, 2, 2)]:
        germ = ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": []})
        fib = ss.fibre_singularity(germ)
        cone = ss.fibre_cone(k, n, a)
        assert (cone.r, cone.q) == (fib.r, fib.q)


def test_weight_ray_dictionary_round_trip():
    w = ss.WeightVector((1, 5, 3), 2)
    ray = ss.weight_to_ray(1, 2, w)
    assert ray == (Fraction(1, 4), Fraction(5, 4))
    assert ss.ray_to_weight(1, 2, ray) == w


def _ray_box(cone, k, n, bound):
    """Primitive interior rays matching weights within the bound."""
    r = cone.r
    cap = bound * r // (k * n)
    out = set()
    for p1 in range(1, cap + 1):
        for p2 in range(1, cap + 1):
            ray = (Fraction(p1, r), Fraction(p2, r))
            if cone.contains_ray(ray) and cone.ray_is_primitive(ray):
                out.add(ray)
    return out


@pytest.mark.parametrize("k,n,a", [(2, 1, 0), (1, 2, 1)])
def test_weights_match_primitive_interior_rays(k, n, a):
    bound = 4
    cone = ss.fibre_cone(k, n, a)
    weights = ss.admissible_weights_T(n, a, k, bound)
    mapped = set()
    for w in weights:
        ray = ss.weight_to_ray(k, n, w)
        assert cone.contains_ray(ray)
        assert cone.ray_is_primitive(ray)
        _, _, F = ss.toric_subdivide(cone, ray)
        assert F > -1
        mapped.add(ray)
        assert ss.ray_to_weight(k, n, ray) == w
    assert mapped == _ray_box(cone, k, n, bound)


@st.composite
def case_T_data(draw):
    n = draw(st.integers(1, 6))
    a = draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1]))
    return draw(st.integers(1, 3)), n, a


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case_T_data(), st.integers(1, 4))
def test_weight_ray_round_trip(data, bound):
    # every admissible weight is a primitive lattice ray of its fibre cone and back
    k, n, a = data
    cone = ss.fibre_cone(k, n, a)
    for w in ss.admissible_weights_T(n, a, k, bound):
        ray = ss.weight_to_ray(k, n, w)
        assert cone.contains_ray(ray) and oracle_contains2(cone.r, cone.q, ray)
        assert cone.ray_is_primitive(ray)
        biggest = max(abs(c * cone.r) for c in ray)
        assert biggest < PRIMES[-1]
        assert not any(
            oracle_contains2(cone.r, cone.q, (ray[0] / p, ray[1] / p))
            for p in PRIMES if p <= biggest
        )
        assert ss.ray_to_weight(k, n, ray) == w
