"""Simplicial complexes: closure, Euler counts, subdivision, components."""

import random
from itertools import combinations

import pytest

from equichi import SimplicialComplex, ValidationError, barycentric_subdivision, corpus
from equichi.complexes import (
    closure_of,
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


# ---------------------------------------------------------------------------
# the one-sweep constructor against a reference built from every face


def reference(given):
    """What a complex on `given` must hold, from the closure of every face."""
    order = sorted(closure_of(given), key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(order)}
    facet_sets = {s: {s[:k] + s[k + 1 :] for k in range(len(s))} - {()} for s in order}
    proper = set().union(*facet_sets.values())
    return {
        "order": tuple(order),
        "index": index,
        "simplices": frozenset(order),
        "f_vector": tuple(sum(len(s) == n for s in order) for n in range(1, len(order[-1]) + 1)),
        "vertices": tuple(s[0] for s in order if len(s) == 1),
        "maximal": tuple(s for s in order if s not in proper),
        "facets": [tuple(sorted(map(index.__getitem__, facet_sets[s]))) for s in order],
    }


def random_given(rng):
    """Simplices of mixed dimension over scattered vertex ids, with isolated
    vertices, repeats and faces of other given simplices."""
    pool = rng.sample(range(-50, 1000), rng.randint(1, 14))
    given = []
    for _ in range(rng.randint(1, 12)):
        given.append(tuple(sorted(rng.sample(pool, rng.randint(1, min(5, len(pool)))))))
    for s in rng.sample(given, rng.randint(0, len(given))):
        given.append(s if rng.random() < 0.5 else tuple(sorted(rng.sample(s, rng.randint(1, len(s))))))
    rng.shuffle(given)
    return given


@pytest.mark.parametrize("seed", range(40))
def test_constructor_matches_closure_reference(seed):
    given = random_given(random.Random(seed))
    K = SimplicialComplex(given)
    ref = reference(given)
    assert K.order == ref["order"]
    assert K.index == ref["index"]
    assert K.simplices == ref["simplices"]
    assert K.f_vector() == ref["f_vector"]
    assert K.vertices == ref["vertices"]
    assert K.maximal_simplices() == ref["maximal"]
    assert [K.facets(i) for i in range(len(K.order))] == ref["facets"]
    assert len(K) == len(ref["order"]) and K.dim == len(ref["order"][-1]) - 1
    # the table holds the int objects of `index`, none of its own
    ids = tuple(K.index.values())
    assert all(j is ids[j] for columns in K.facet_table for column in columns for j in column)


def test_constructor_drops_the_empty_simplex():
    with pytest.raises(ValidationError, match="complex must be nonempty"):
        SimplicialComplex([()])
    K, L = SimplicialComplex([(), (1,)]), SimplicialComplex([(1,)])
    assert (K.order, K.index, K.facet_table) == (L.order, L.index, L.facet_table)


def test_constructor_names_the_first_bad_simplex():
    with pytest.raises(ValidationError) as err:
        SimplicialComplex([(0, 1, 2), (3, 5, 4), (1, 0)])
    assert str(err.value) == "simplex must be strictly ascending: (3, 5, 4)"


def corpus_complexes():
    """Every corpus complex at 0-3 barycentric subdivisions."""
    for cid in corpus.case_ids():
        K = corpus.load_case(cid).gcomplex.complex
        for level in range(4):
            yield f"{cid}:sd{level}", K
            if level < 3:
                K = barycentric_subdivision(K)[0]


def brute_components(order, members):
    """Components of a set of simplices joined along facets, found by tuples."""
    parent = {s: s for s in members}

    def find(s):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    for s in members:
        for k in range(len(s)):
            f = s[:k] + s[k + 1 :]
            if f in parent:
                parent[find(s)] = find(f)
    groups = {}
    for s in sorted(members, key=lambda s: (len(s), s)):
        groups.setdefault(find(s), []).append(s)
    return sorted(groups.values(), key=lambda c: (len(c[0]), c[0]))


def test_closure_and_components_match_brute_force_on_the_corpus():
    rng = random.Random(11)
    for name, K in corpus_complexes():
        everything = range(len(K.order))
        some = [i for i in everything if rng.random() < 0.4]
        assert K.closure(some) == set(map(K.index.__getitem__, closure_of(K.order[i] for i in some))), name
        for positions in (everything, some, K.closure(some)):
            got = [[K.order[i] for i in c] for c in connected_components(K, positions)]
            assert got == brute_components(K.order, [K.order[i] for i in positions]), name
