"""Group construction, conjugacy data, and the subgroup lattice."""

import itertools
import math

import pytest

from equichi import (
    FiniteGroup,
    Subgroup,
    ValidationError,
    all_subgroups,
    group_from_permutations,
    groups,
    normalizer,
    subconjugate,
)
from equichi.complexes import SimplicialComplex
from equichi.gcomplex import _subdivide
from equichi.jsonio import gcomplex_from_json
from test_fuzz import bench_inputs


def perm_closure(generators):
    """Independent BFS closure over permutation tuples."""
    n = len(generators[0])
    identity = tuple(range(n))
    gens = [tuple(g) for g in generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


TRANSPOSITION = [1, 0]
S3_GENS = [[1, 2, 0], [1, 0, 2]]
PI_ROT = [3, 4, 2, 0, 1, 5]
R4 = [1, 3, 2, 4, 0, 5]
RX = [0, 4, 5, 3, 1, 2]


def test_closure_sizes_match_bfs_oracle():
    for gens in [[TRANSPOSITION], S3_GENS, [PI_ROT], [R4], [PI_ROT, RX], [R4, RX]]:
        G = group_from_permutations(gens)
        assert G.order == len(perm_closure(gens))


def test_two_point_swap_gives_order_two():
    G = group_from_permutations([TRANSPOSITION])
    assert G.order == 2
    assert G.mul(1, 1) == G.identity == 0
    assert G.inv(1) == 1


def test_adjacent_swaps_generate_symmetric_group():
    G = group_from_permutations(S3_GENS)
    assert G.order == 6
    assert not G.is_abelian()
    assert sorted(G.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]
    assert G.exponent == 6


def test_group_axioms_hold_on_the_table():
    G = group_from_permutations(S3_GENS)
    n = G.order
    for a in range(n):
        assert G.mul(G.identity, a) == a == G.mul(a, G.identity)
        assert G.mul(G.inv(a), a) == G.identity
        for b in range(n):
            for c in range(n):
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_relabelled_identity_is_found():
    # Z/3 addition written so the identity sits at index 2
    G = FiniteGroup([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert G.identity == 2
    assert G.order == 3


def test_degenerate_tables_rejected():
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [1, 0]])  # repeated rows, no inverse
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [0, 1]])


@pytest.mark.parametrize(
    "table",
    [
        [[0, 2, 1], [2, 1, 0], [1, 0, 2]],  # x*y = -x-y mod 3: no identity row
        [[0, 1, 2], [2, 0, 1], [1, 2, 0]],  # x*y = y-x mod 3: 0 is a left identity only
    ],
    ids=["no-identity-row", "left-identity-only"],
)
def test_latin_square_without_two_sided_identity_rejected(table):
    with pytest.raises(ValidationError, match="^table has no identity element$"):
        FiniteGroup(table)


def test_non_associative_table_rejected():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(ValidationError):
        FiniteGroup(bad)


def test_size_cap_enforced():
    # S6 has 720 > 256 elements
    with pytest.raises(ValidationError) as err:
        group_from_permutations([[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])
    assert str(err.value) == "generator closure exceeds the size cap (DEFAULT_SIZE_CAP = 256)"


def cycle(n):
    return [*range(1, n), 0]


COMPOSED_CASES = {
    "C60": [cycle(60)],
    "D30": [cycle(15), [0, *range(14, 0, -1)]],
    "S4": [cycle(4), [1, 0, 2, 3]],
    "S5": [cycle(5), [1, 0, 2, 3, 4]],
    # the rotations of the icosahedron on its twelve vertices
    "A5": [[0, 2, 6, 8, 10, 7, 5, 1, 4, 9, 11, 3], [2, 0, 1, 5, 3, 4, 8, 6, 7, 11, 9, 10]],
    "B3": [[2, 3, 4, 5, 0, 1], [2, 3, 0, 1, 4, 5], [1, 0, 2, 3, 4, 5]],
}


@pytest.mark.parametrize("name", COMPOSED_CASES)
def test_composed_table_equals_pairwise_products(name):
    G = group_from_permutations(COMPOSED_CASES[name])
    assert G.order == len(perm_closure(COMPOSED_CASES[name]))
    index = {p: i for i, p in enumerate(G.perms)}
    assert G.table == tuple(
        tuple(index[tuple(a[i] for i in b)] for b in G.perms) for a in G.perms
    )


def element_maps(G, generator_maps):
    """Every element's vertex map as a dict, closed breadth-first over the
    generators' maps: (x*g)(v) = x(g(v))."""
    maps = {G.identity: {v: v for v in generator_maps[0]}}
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, m in zip(G.generators, generator_maps):
                y = G.mul(x, g)
                if y not in maps:
                    maps[y] = {v: maps[x][m[v]] for v in m}
                    new.append(y)
        frontier = new
    return [maps[g] for g in range(G.order)]


# the five rotation actions of `bench/inputs.py`
ROTATION_ACTIONS = {
    "A4": lambda inputs: inputs.tetrahedron_a4(),
    "S4": lambda inputs: inputs.octahedron_s4(),
    "A5": lambda inputs: inputs.icosahedron_a5(),
    "C8": lambda inputs: inputs.suspended_polygon(8),
    "C12": lambda inputs: inputs.suspended_polygon(12),
}


@pytest.mark.parametrize("name", ROTATION_ACTIONS)
def test_composed_simplex_rows_equal_per_element_lookups(name):
    """The simplex rows of the rotation actions at sd^2, composed along the
    generator walk, against each element's map sorted and looked up simplex
    by simplex; the sd^2 maps come from the plain-data subdivision of
    `bench/inputs.py`."""
    gens, action = ROTATION_ACTIONS[name](bench_inputs())
    G = group_from_permutations(gens)
    X = gcomplex_from_json(action.to_json(), G)
    Y = _subdivide(_subdivide(X))
    sd2 = action.subdivide().subdivide()
    K = Y.complex
    assert K.order == SimplicialComplex.from_maximal(sd2.maximal).order
    rows = [
        tuple(K.index[tuple(sorted(m[v] for v in s))] for s in K.order)
        for m in element_maps(G, sd2.generator_maps)
    ]
    assert Y.perm == tuple(rows)
    # the same rows when the sd^2 action is given as input
    assert gcomplex_from_json(sd2.to_json(), G).perm == tuple(rows)


def test_compose_rows_keeps_one_position_rows_as_tuples():
    G = group_from_permutations([[1, 0]])
    assert groups.compose_rows(G.generator_walk, (0,), {1: (0,)}) == ((0,), (0,))
    assert groups.compose_rows(G.generator_walk, (0, 1), {1: (1, 0)}) == ((0, 1), (1, 0))
    row = (7, 8, 9)
    assert groups.gather([2])(row) == (9,)
    assert groups.gather([])(row) == ()
    assert groups.gather([2, 0, 2])(row) == (9, 7, 9)


def test_table_costs_linear_permutation_products(monkeypatch):
    # the pairwise table made |G|^2 products, 3,660 for C60 with its closure
    calls = []
    product = groups._perm_mul

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(groups, "_perm_mul", counted)
    assert group_from_permutations([cycle(60)]).order == 60
    assert len(calls) <= 200


def test_conjugacy_classes_against_direct_conjugation():
    for gens in [[TRANSPOSITION], S3_GENS, [R4, RX]]:
        G = group_from_permutations(gens)
        brute = set()
        for g in range(G.order):
            cls = frozenset(G.mul(G.mul(h, g), G.inv(h)) for h in range(G.order))
            brute.add(cls)
        assert set(map(frozenset, G.conjugacy_classes())) == brute


def test_symmetric_group_class_sizes():
    G = group_from_permutations(S3_GENS)
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]
    for g in range(6):
        assert g in G.conjugacy_classes()[G.class_of(g)]


def test_abelian_groups_have_singleton_classes():
    G = group_from_permutations([R4])
    assert G.is_abelian()
    assert all(len(c) == 1 for c in G.conjugacy_classes())
    assert G.class_representatives() == tuple(range(4))


def test_subgroup_generated_and_order():
    G = group_from_permutations(S3_GENS)
    H = Subgroup.generated(G, [G.generators[1]])
    assert H.order == 2
    whole = Subgroup.generated(G, list(G.generators))
    assert whole.order == 6
    triv = Subgroup.generated(G, [])
    assert triv.elements == (G.identity,)


def test_subgroup_closure_is_a_group():
    G = group_from_permutations(S3_GENS)
    for r in range(3):
        for gens in itertools.combinations(range(6), r):
            H = Subgroup.generated(G, gens)
            for a in H.elements:
                assert G.inv(a) in H.elements
                for b in H.elements:
                    assert G.mul(a, b) in H.elements


def test_normalizer_of_normal_subgroup_is_whole_group():
    G = group_from_permutations(S3_GENS)
    # the rotation subgroup has index 2, hence is normal
    rot = next(
        Subgroup.generated(G, [g]) for g in range(6) if G.element_order(g) == 3
    )
    assert rot.order == 3
    assert normalizer(rot).order == 6


def test_normalizer_of_reflection_subgroup_is_itself():
    G = group_from_permutations(S3_GENS)
    refl = next(
        Subgroup.generated(G, [g])
        for g in range(1, 6)
        if G.element_order(g) == 2
    )
    assert normalizer(refl).order == 2
    assert set(normalizer(refl).elements) == set(refl.elements)


def test_subconjugacy_relations():
    G = group_from_permutations(S3_GENS)
    triv = Subgroup.generated(G, [])
    whole = Subgroup.generated(G, list(G.generators))
    reflections = [
        Subgroup.generated(G, [g]) for g in range(1, 6) if G.element_order(g) == 2
    ]
    assert len(reflections) == 3
    for H in [triv, whole] + reflections:
        assert subconjugate(triv, H)
        assert subconjugate(H, whole)
        assert subconjugate(H, H)
    # all reflection subgroups are conjugate to each other
    for A in reflections:
        for B in reflections:
            assert subconjugate(A, B)
    assert not subconjugate(whole, triv)


S4_GENS = [[1, 2, 3, 0], [1, 0, 2, 3]]
# the signed permutations B_3 (order 48) on the octahedron's six vertices
B3_GENS = [[2, 3, 4, 5, 0, 1], [2, 3, 0, 1, 4, 5], [1, 0, 2, 3, 4, 5]]


def brute_conjugate(H, g):
    G = H.parent
    return tuple(sorted(G.mul(G.mul(g, a), G.inv(g)) for a in H.elements))


@pytest.mark.parametrize("gens, count", [(S4_GENS, 30), (B3_GENS, 98)], ids=["S4", "B3"])
def test_conjugation_questions_agree_with_brute_force(gens, count):
    G = group_from_permutations(gens)
    assert G.exponent == math.lcm(*map(G.element_order, range(G.order)))
    subs = all_subgroups(G)
    assert len(subs) == count
    for H in subs:
        conjugates = [brute_conjugate(H, g) for g in range(G.order)]
        assert H.canonical_class_representative().elements == min(conjugates)
        assert normalizer(H).elements == tuple(
            g for g in range(G.order) if conjugates[g] == H.elements
        )


def test_subconjugate_agrees_with_brute_force_on_every_pair_in_s4():
    G = group_from_permutations(S4_GENS)
    subs = all_subgroups(G)
    for H in subs:
        conjugates = {brute_conjugate(H, g) for g in range(G.order)}
        for K in subs:
            assert subconjugate(H, K) == any(set(c) <= set(K.elements) for c in conjugates)


def test_subgroup_rejects_ids_outside_the_parent():
    C3 = group_from_permutations([[1, 2, 0]])
    C4 = group_from_permutations([R4])
    with pytest.raises(ValidationError, match=r"subgroup elements must be element ids in \[0, 2\]"):
        Subgroup(C3, (0, 1, 2, -1))
    with pytest.raises(ValidationError, match=r"subgroup elements must be element ids in \[0, 2\]"):
        Subgroup(C3, (0, 5))
    with pytest.raises(ValidationError, match=r"subgroup generators must be element ids in \[0, 2\]"):
        Subgroup.generated(C3, [7])
    with pytest.raises(ValidationError, match=r"subgroup generators must be element ids in \[0, 3\]"):
        Subgroup.generated(C4, [-1])


def test_all_subgroups_of_symmetric_group():
    G = group_from_permutations(S3_GENS)
    subs = all_subgroups(G)
    orders = sorted(H.order for H in subs)
    # 1, three C2, one C3, S3 itself
    assert orders == [1, 2, 2, 2, 3, 6]
    assert len({H.elements for H in subs}) == len(subs)


def test_all_subgroups_of_s5_fall_into_19_classes():
    """S5 has 156 subgroups (OEIS A005432) in 19 conjugacy classes
    (OEIS A000638)."""
    G = group_from_permutations([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])
    subs = all_subgroups(G)
    assert len(subs) == len({H.elements for H in subs}) == 156
    assert len({H.canonical_class_representative().elements for H in subs}) == 19


def test_all_subgroups_of_klein_four():
    G = group_from_permutations([PI_ROT, RX])
    assert G.order == 4
    orders = sorted(H.order for H in all_subgroups(G))
    assert orders == [1, 2, 2, 2, 4]


def test_conjugate_and_element_order():
    G = group_from_permutations(S3_GENS)
    for g in range(6):
        for h in range(6):
            c = G.conjugate(h, g)
            assert G.element_order(c) == G.element_order(g)


@pytest.mark.parametrize("r, c", [(1, 1), (2, 5), (32, 7)])
def test_non_associative_loop_above_order_64_rejected(r, c):
    # Z/66 with one intercalate (a 2x2 subsquare a b / b a) switched: still a
    # loop with the same identity row and column, but no longer associative
    n, h = 66, 33
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a in (r, r + h):
        for b in (c, c + h):
            table[a][b] = (table[a][b] + h) % n
    assert all(table[0][x] == x == table[x][0] for x in range(n))
    with pytest.raises(ValidationError, match="non-associative table"):
        FiniteGroup(table)

