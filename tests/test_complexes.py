"""Simplicial complexes: closure, Euler counts, subdivision, components."""

from itertools import combinations

import pytest

from equichi import SimplicialComplex, ValidationError, barycentric_subdivision
from equichi.complexes import (
    connected_components,
    euler_characteristic,
    euler_of_complex,
    faces,
    relative_euler,
)

OCT_TRIS = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]


def octahedron():
    return SimplicialComplex.from_maximal(OCT_TRIS)


def test_constructor_closes_under_faces():
    K = SimplicialComplex([(0, 1, 2)])
    assert sorted(K.simplices) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,),
    ]
    assert K.dim == 2
    assert K.vertices == (0, 1, 2)


def test_constructor_rejects_bad_simplices():
    with pytest.raises(ValidationError):
        SimplicialComplex([(1, 0)])
    with pytest.raises(ValidationError):
        SimplicialComplex([(0, 0)])
    with pytest.raises(ValidationError):
        SimplicialComplex([])


def test_faces_of_a_triangle():
    assert sorted(faces((0, 1, 2))) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,),
    ]


def test_from_maximal_sorts_and_dedupes():
    K = SimplicialComplex.from_maximal([[2, 1], [1, 2]])
    assert K.maximal_simplices() == ((1, 2),)


def test_octahedron_counts():
    K = octahedron()
    assert K.f_vector() == (6, 12, 8)
    assert euler_of_complex(K) == 2
    assert euler_characteristic(K.sorted_simplices()) == 2
    assert K.maximal_simplices() == tuple(tuple(t) for t in OCT_TRIS)


def test_sorted_simplices_order_is_dimension_then_lex():
    K = SimplicialComplex.from_maximal([[0, 1], [1, 2]])
    assert K.sorted_simplices() == [(0,), (1,), (2,), (0, 1), (1, 2)]


def test_euler_characteristic_of_standard_shapes():
    interval = SimplicialComplex.from_maximal([[0, 1]])
    assert euler_of_complex(interval) == 1
    circle = SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2]])
    assert euler_of_complex(circle) == 0
    disc = SimplicialComplex.from_maximal([[0, 1, 2]])
    assert euler_of_complex(disc) == 1
    point = SimplicialComplex.from_maximal([[0]])
    assert euler_of_complex(point) == 1


def test_relative_euler_interval_mod_endpoints():
    interval = SimplicialComplex.from_maximal([[0, 1]])
    assert relative_euler(interval.sorted_simplices(), [(0,), (1,)]) == -1


def test_relative_euler_disc_mod_boundary():
    disc = SimplicialComplex.from_maximal([[0, 1, 2]])
    boundary = [s for s in disc.sorted_simplices() if s != (0, 1, 2)]
    assert relative_euler(disc.sorted_simplices(), boundary) == 1


def test_relative_euler_empty_subcomplex():
    K = octahedron()
    assert relative_euler(K.sorted_simplices(), []) == 2


def test_barycentric_subdivision_preserves_euler():
    for maximal in [OCT_TRIS, [[0, 1]], [[0, 1, 2]], [[0, 1], [1, 2], [0, 2]]]:
        K = SimplicialComplex.from_maximal(maximal)
        Sd, _ = barycentric_subdivision(K)
        assert euler_of_complex(Sd) == euler_of_complex(K)
        assert Sd.dim == K.dim


def test_barycentric_subdivision_counts():
    K = octahedron()
    Sd, vmap = barycentric_subdivision(K)
    # one new vertex per original simplex
    assert Sd.f_vector()[0] == sum(K.f_vector())
    assert Sd.f_vector() == (26, 72, 48)
    assert set(vmap) == set(K.simplices)
    assert len(set(vmap.values())) == len(vmap)


def test_barycentric_subdivision_of_a_non_pure_complex_is_its_chains():
    # a triangle, a dangling edge and an isolated vertex
    K = SimplicialComplex.from_maximal([[0, 1, 2], [2, 3], [4]])
    Sd, vmap = barycentric_subdivision(K)
    order = K.sorted_simplices()
    assert vmap == K.index == {s: i for i, s in enumerate(order)}
    chains = {
        tuple(vmap[s] for s in chain)
        for r in range(1, len(order) + 1)
        for chain in combinations(order, r)
        if all(set(a) < set(b) for a, b in zip(chain, chain[1:]))
    }
    assert Sd.simplices == chains
    assert Sd.f_vector() == (10, 14, 6)


def test_connected_components():
    K = SimplicialComplex.from_maximal([[0, 1], [2, 3]])
    comps = connected_components(K, range(len(K.order)))
    assert len(comps) == 2
    assert {frozenset(v for i in c for v in K.order[i]) for c in comps} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }
    O = octahedron()
    assert len(connected_components(O, range(len(O.order)))) == 1
    # isolated vertex counts as its own component
    L = SimplicialComplex.from_maximal([[0, 1], [4]])
    assert len(connected_components(L, range(len(L.order)))) == 2
