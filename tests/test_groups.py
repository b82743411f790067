"""Group construction, conjugacy data, and the subgroup lattice."""

import itertools

import pytest

from equichi import (
    FiniteGroup,
    Subgroup,
    ValidationError,
    all_subgroups,
    group_from_permutations,
    group_from_table,
    normalizer,
    subconjugate,
)


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
    G = group_from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert G.identity == 2
    assert G.order == 3


def test_degenerate_tables_rejected():
    with pytest.raises(ValidationError):
        group_from_table([[1, 0], [1, 0]])  # repeated rows, no inverse
    with pytest.raises(ValidationError):
        group_from_table([[0, 1], [0, 1]])


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
        group_from_table(table)


def test_non_associative_table_rejected():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(ValidationError):
        group_from_table(bad)


def test_size_cap_enforced():
    with pytest.raises(ValidationError):
        group_from_permutations(S3_GENS, size_cap=5)


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


def test_all_subgroups_of_symmetric_group():
    G = group_from_permutations(S3_GENS)
    subs = all_subgroups(G)
    orders = sorted(H.order for H in subs)
    # 1, three C2, one C3, S3 itself
    assert orders == [1, 2, 2, 2, 3, 6]
    assert len({H.elements for H in subs}) == len(subs)


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
        group_from_table(table)

