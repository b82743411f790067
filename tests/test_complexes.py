"""Simplicial complexes: closure, Euler counts, subdivision, components."""

import random
from itertools import accumulate, chain, combinations

import pytest

from equichi import SimplicialComplex, ValidationError, corpus, subdivision
from equichi.complexes import connected_components, euler_characteristic, euler_of_complex

OCT_TRIS = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]


def octahedron():
    return SimplicialComplex.from_maximal(OCT_TRIS)


def faces(simplex):
    """All nonempty faces, the simplex itself included."""
    out = []
    for r in range(1, len(simplex) + 1):
        out.extend(combinations(simplex, r))
    return out


def closure_of(simplices):
    """The simplices together with all their faces."""
    closed = set()
    for s in simplices:
        closed.update(faces(s))
    return frozenset(closed)


def maximal_simplices(K):
    return tuple(map(K.order.__getitem__, K.maximal_positions()))


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
    assert maximal_simplices(K) == ((1, 2),)


def test_octahedron_counts():
    K = octahedron()
    assert K.f_vector() == (6, 12, 8)
    assert euler_of_complex(K) == 2
    assert euler_characteristic(K.order) == 2
    assert maximal_simplices(K) == tuple(tuple(t) for t in OCT_TRIS)


def test_sorted_simplices_order_is_dimension_then_lex():
    K = SimplicialComplex.from_maximal([[0, 1], [1, 2]])
    assert K.order == ((0,), (1,), (2,), (0, 1), (1, 2))


def test_euler_characteristic_of_standard_shapes():
    interval = SimplicialComplex.from_maximal([[0, 1]])
    assert euler_of_complex(interval) == 1
    circle = SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2]])
    assert euler_of_complex(circle) == 0
    disc = SimplicialComplex.from_maximal([[0, 1, 2]])
    assert euler_of_complex(disc) == 1
    point = SimplicialComplex.from_maximal([[0]])
    assert euler_of_complex(point) == 1


def test_barycentric_subdivision_preserves_euler():
    for maximal in [OCT_TRIS, [[0, 1]], [[0, 1, 2]], [[0, 1], [1, 2], [0, 2]]]:
        K = SimplicialComplex.from_maximal(maximal)
        Sd = subdivision(K)
        assert euler_of_complex(Sd) == euler_of_complex(K)
        assert Sd.dim == K.dim


def test_barycentric_subdivision_counts():
    K = octahedron()
    Sd, vmap = subdivision(K), K.index
    # one new vertex per original simplex
    assert Sd.f_vector()[0] == sum(K.f_vector())
    assert Sd.f_vector() == (26, 72, 48)
    assert set(vmap) == set(K.simplices)
    assert len(set(vmap.values())) == len(vmap)


def test_barycentric_subdivision_of_a_non_pure_complex_is_its_chains():
    # a triangle, a dangling edge and an isolated vertex
    K = SimplicialComplex.from_maximal([[0, 1, 2], [2, 3], [4]])
    Sd, vmap = subdivision(K), K.index
    order = K.order
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
    assert maximal_simplices(K) == ref["maximal"]
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
    # rows given as lists are named as tuples
    with pytest.raises(ValidationError) as err:
        SimplicialComplex([[0, 1], [0, 1, 1]])
    assert str(err.value) == "simplex must be strictly ascending: (0, 1, 1)"


# ---------------------------------------------------------------------------
# the packed-key constructor against the sorted closure, every table compared


def wide_given(rng):
    """Simplices of dimension up to 0-4 over ids that are negative, large or
    sparse, with faces of given simplices and duplicates among them."""
    pool = rng.sample(
        [*range(-40, 40, 3), -(10**12), 10**12, 2**70 + 1, -(2**65), 999_983, 7 * 10**9], rng.randint(1, 12)
    )
    top = rng.randint(0, min(4, len(pool) - 1))
    given = [tuple(sorted(rng.sample(pool, rng.randint(1, top + 1)))) for _ in range(rng.randint(1, 8))]
    given += [tuple(sorted(rng.sample(s, rng.randint(1, len(s))))) for s in given if rng.random() < 0.5]
    given += rng.sample(given, rng.randint(0, len(given)))
    rng.shuffle(given)
    return given


def sorted_closure_tables(given):
    """order, index, layer_start, vertices, columns and facet_table of the
    sorted closure of `given`, read off vertex tuples one simplex at a time."""
    order = tuple(sorted(closure_of(given), key=lambda s: (len(s), s)))
    index = {s: i for i, s in enumerate(order)}
    dim = len(order[-1]) - 1
    layers = [[s for s in order if len(s) == d + 1] for d in range(dim + 1)]
    return {
        "order": order,
        "index": index,
        "layer_start": tuple(accumulate(map(len, layers), initial=0)),
        "vertices": tuple(s[0] for s in layers[0]),
        "columns": tuple(
            tuple(tuple(index[(s[k],)] for s in layer) for k in range(d + 1)) for d, layer in enumerate(layers)
        ),
        "facet_table": ((),) + tuple(
            tuple(tuple(index[s[:k] + s[k + 1 :]] for s in layers[d]) for k in range(d + 1))
            for d in range(1, dim + 1)
        ),
    }


@pytest.mark.parametrize("seed", range(60))
def test_packed_keys_match_the_sorted_closure(seed):
    given = wide_given(random.Random(seed))
    K = SimplicialComplex(given)
    ref = sorted_closure_tables(given)
    got = {name: getattr(K, name) for name in ref}
    assert got == ref
    assert K.dim + 1 == len(K.columns) == len(K.facet_table)
    assert K.positions == tuple(range(len(ref["order"])))
    # every table holds the int objects of `positions`, none of its own
    tables = [*chain(*K.columns), *chain(*K.facet_table), K.index.values()]
    assert all(j is K.positions[j] for j in chain.from_iterable(tables))


def test_order_and_index_are_built_only_when_read():
    K = SimplicialComplex([(3, 10**12), (-5, 3, 10**12)])
    assert not {"order", "index"} & vars(K).keys()
    assert K.f_vector() == (3, 3, 1) and K.dim_of(2) == 0 and K.dim_of(3) == 1 and K.dim_of(6) == 2
    assert K.maximal_positions() == [6] and K.facets(6) == (3, 4, 5)
    assert not {"order", "index"} & vars(K).keys()
    assert K.order[6] == (-5, 3, 10**12) and K.index[(3, 10**12)] == 5


def corpus_complexes():
    """Every corpus complex at 0-3 barycentric subdivisions."""
    for cid in corpus.case_ids():
        K = corpus.load_case(cid).gcomplex.complex
        for level in range(4):
            yield f"{cid}:sd{level}", K
            if level < 3:
                K = subdivision(K)


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


# ---------------------------------------------------------------------------
# the subdivision built on the facet table against every chain under inclusion


def chain_subdivision(K):
    """The barycentric subdivision's simplex order, from every chain of
    simplices strictly nested under inclusion, on the positions of `order`."""
    index = {s: i for i, s in enumerate(K.order)}
    ending_at = {}  # per simplex, the chains whose largest simplex it is
    for s in K.order:
        below = [ending_at[f] for f in faces(s) if f != s]
        ending_at[s] = [(index[s],)] + [c + (index[s],) for chains in below for c in chains]
    chains = [c for cs in ending_at.values() for c in cs]
    return tuple(sorted(chains, key=lambda c: (len(c), c))), index


def subdivision_cases():
    for seed in range(40):
        yield f"random:{seed}", SimplicialComplex(random_given(random.Random(seed)))
    for name, K in corpus_complexes():
        if not name.endswith(":sd3"):
            yield name, K
    yield "non-pure", SimplicialComplex.from_maximal([[0, 1, 2], [3]])


def test_subdivision_equals_the_chain_reference():
    for name, K in subdivision_cases():
        Sd, vmap = subdivision(K), K.index
        order, index = chain_subdivision(K)
        assert Sd.order == order, name
        assert vmap == index, name


def test_closure_and_components_match_brute_force_on_the_corpus():
    rng = random.Random(11)
    for name, K in corpus_complexes():
        everything = range(len(K.order))
        some = [i for i in everything if rng.random() < 0.4]
        assert K.closure(some) == set(map(K.index.__getitem__, closure_of(K.order[i] for i in some))), name
        for positions in (everything, some, K.closure(some)):
            got = [[K.order[i] for i in c] for c in connected_components(K, positions)]
            assert got == brute_components(K.order, [K.order[i] for i in positions]), name


# ---------------------------------------------------------------------------
# the maximal positions the sweep records, against "a facet of no simplex"

MIXED_COMPLEXES = {
    "triangle": [(0, 1, 2)],
    "octahedron": [tuple(t) for t in OCT_TRIS],
    "isolated-vertex": [(0, 1, 2), (7,)],
    "dangling-edge": [(0, 1, 2), (2, 5)],
    "redundant-faces": [(0, 1, 2, 3), (1, 2), (0, 3), (2,), (4, 5), (5,)],
    "duplicates": [(0, 1), (0, 1), (1, 2), (3,), (3,), (1, 2, 4), (1, 2, 4), (2, 4)],
    "everything": [(0, 1, 2, 3), (3, 4, 5), (5, 6), (6,), (9,), (0, 1), (4, 5), (3, 4, 5), (10, 11)],
}


def brute_maximal(K):
    """Positions of the simplices that are a facet of no simplex, by tuples."""
    proper = {s[:k] + s[k + 1 :] for s in K.order for k in range(len(s))}
    return [i for i, s in enumerate(K.order) if s not in proper]


@pytest.mark.parametrize("name", list(MIXED_COMPLEXES))
def test_maximal_positions_match_brute_force(name):
    K = SimplicialComplex(MIXED_COMPLEXES[name])
    Sd = subdivision(K)
    for L in (K, Sd, subdivision(Sd)):
        assert L.maximal_positions() == brute_maximal(L), name
    # the maximal simplices of K are the given ones that are a face of no other given one
    given = set(MIXED_COMPLEXES[name])
    assert maximal_simplices(K) == tuple(
        sorted((s for s in given if not any(set(s) < set(t) for t in given)), key=lambda s: (len(s), s))
    )


@pytest.mark.parametrize("name", [n for n in MIXED_COMPLEXES if n not in ("triangle", "octahedron")])
def test_subdivision_of_a_mixed_complex_matches_the_sorted_closure(name):
    K = SimplicialComplex(MIXED_COMPLEXES[name])
    chains, _ = chain_subdivision(K)
    ref = sorted_closure_tables(chains)
    Sd = subdivision(K)
    assert {field: getattr(Sd, field) for field in ref} == ref, name


# ---------------------------------------------------------------------------
# ids that already are their ranks skip the rank map and build the same tables


def on_ranks(simplices, offset=0):
    """The simplices with each vertex id replaced by offset + its rank."""
    rank = {v: offset + r for r, v in enumerate(sorted(set(chain.from_iterable(simplices))))}
    return [tuple(rank[v] for v in s) for s in simplices]


@pytest.mark.parametrize("name", list(MIXED_COMPLEXES))
def test_ids_that_are_their_ranks_give_the_tables_of_shifted_ids(name):
    ranked = on_ranks(MIXED_COMPLEXES[name])
    V = len(set(chain.from_iterable(ranked)))
    K, shifted = SimplicialComplex(ranked), SimplicialComplex(on_ranks(ranked, V))
    assert (K.vertices, shifted.vertices) == (tuple(range(V)), tuple(range(V, 2 * V)))
    assert K.columns == shifted.columns, name
    assert K.facet_table == shifted.facet_table, name
    assert K.maximal_positions() == shifted.maximal_positions() == brute_maximal(K), name


@pytest.mark.parametrize("ids", [(0, 0.5, 2), (False, True, 2), (0, 1.0, 2)], ids=["0.5", "bools", "1.0"])
def test_ids_that_equal_their_ranks_only_by_value_are_ranked(ids):
    # V sorted ids from 0 to V - 1 that are not all ints still go through
    # the rank map, so the tables are those of the triangle on 0, 1, 2
    K, triangle = SimplicialComplex([ids]), SimplicialComplex([(0, 1, 2)])
    assert K.vertices == ids
    assert (K.columns, K.facet_table, K.maximal_positions()) == (
        triangle.columns, triangle.facet_table, triangle.maximal_positions()
    )
