"""Twisting, component systems, bundle data, and fine decompositions."""

import pytest

from equichi import (
    BundleData,
    ComponentSystem,
    Subgroup,
    ValidationError,
    all_subgroups,
    canonical_isotropy_bundle,
    character_table,
    fine_decomposition,
    group_from_permutations,
    is_adapted,
    normalizer,
    restrict,
    trivial_index,
    twist_index_map,
)
from equichi.corpus import load_bundle_case

S3_GENS = [[1, 2, 0], [1, 0, 2]]


def s3_with_rotations():
    G = group_from_permutations(S3_GENS)
    H = Subgroup.generated(G, [G.generators[0]])
    assert H.order == 3
    return G, H


def test_twist_by_subgroup_element_is_inner():
    G, H = s3_with_rotations()
    HG, _ = H.as_group()
    identity = tuple(range(len(character_table(HG))))
    for h in H.elements:
        assert twist_index_map(H, h) == identity


def test_twist_by_reflection_swaps_nontrivial_cyclic_characters():
    G, H = s3_with_rotations()
    HG, _ = H.as_group()
    k = trivial_index(HG)
    refl = next(g for g in range(6) if G.element_order(g) == 2)
    mapping = twist_index_map(H, refl)
    others = [i for i in range(3) if i != k]
    assert mapping[k] == k
    assert mapping[others[0]] == others[1]
    assert mapping[others[1]] == others[0]


def test_twist_map_of_identity_is_identity():
    G, H = s3_with_rotations()
    assert twist_index_map(H, G.identity) == (0, 1, 2)


def test_twist_composition_is_contravariant():
    # sigma^(ab) = (sigma^b)^a on every normalizer pair
    G, H = s3_with_rotations()
    N = normalizer(H)
    for a in N.elements:
        for b in N.elements:
            ab = G.mul(a, b)
            ma, mb = twist_index_map(H, a), twist_index_map(H, b)
            composed = tuple(ma[mb[i]] for i in range(3))
            assert twist_index_map(H, ab) == composed


def test_twist_rejects_non_normalizing_element():
    G = group_from_permutations(S3_GENS)
    R = Subgroup.generated(G, [1])
    rot = next(g for g in range(6) if G.element_order(g) == 3)
    with pytest.raises(ValidationError, match=f"^element {rot} does not normalize the subgroup$"):
        twist_index_map(R, rot)


def test_twist_rejects_foreign_ids():
    G, H = s3_with_rotations()
    for n in (99, -1):
        with pytest.raises(ValidationError, match=f"^element {n} is not a group element id$"):
            twist_index_map(H, n)


def reference_twist(H, n):
    """The per-irreducible scan: for each sigma, the values of sigma^n at
    H's class representatives, compared with every row of H's table."""
    G = H.parent
    Hgroup, to_parent = H.as_group()
    to_sub = {p: i for i, p in enumerate(to_parent)}
    table = character_table(Hgroup)
    result = []
    for sigma in table:
        values = [
            sigma.values[Hgroup.class_of(to_sub[G.conjugate(G.inv(n), to_parent[rep])])]
            for rep in Hgroup.class_representatives()
        ]
        (match,) = [row.index for row in table if all(a == b for a, b in zip(row.values, values))]
        result.append(match)
    return tuple(result)


def cycle(n):
    return [(i + 1) % n for i in range(n)]


S4_GENS = [cycle(4), [1, 0, 2, 3]]
D12_GENS = [cycle(6), [(-i) % 6 for i in range(6)]]
A5_GENS = [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]


@pytest.mark.parametrize("gens", [S4_GENS, D12_GENS, A5_GENS], ids=["S4", "D12", "A5"])
def test_twist_map_matches_the_per_irreducible_scan(gens):
    """Every subgroup and every element of its normalizer; the system's
    `twists` is the same maps in ascending element order."""
    G = group_from_permutations(gens)
    for H in all_subgroups(G):
        system = ComponentSystem.single(G, H)
        expected = {n: reference_twist(H, n) for n in normalizer(H).elements}
        assert {n: twist_index_map(H, n) for n in expected} == expected, H.elements
        assert list(system.twists.items()) == sorted(expected.items()), H.elements


def orbit_degrees(G, H):
    """The twist orbits of Irr(H) under all of N(H), as sorted degree lists."""
    system = ComponentSystem.single(G, H)
    table = character_table(H.as_group()[0])
    orbits = {system.twist_orbit(0, sigma.index) for sigma in table}
    return sorted(tuple(table[i].degree for i in orbit) for orbit in orbits)


@pytest.mark.parametrize(
    "gens, order, cyclic, normal, expected",
    [
        (S4_GENS, 4, False, True, [(1,), (1, 1, 1)]),  # V4 in S4
        (S4_GENS, 12, False, True, [(1,), (1, 1), (3,)]),  # A4 in S4
        (S4_GENS, 4, True, False, [(1,), (1,), (1, 1)]),  # C4 in S4
        (A5_GENS, 5, True, False, [(1,), (1, 1), (1, 1)]),  # C5 in A5
    ],
    ids=["V4-in-S4", "A4-in-S4", "C4-in-S4", "C5-in-A5"],
)
def test_twist_orbit_degree_patterns(gens, order, cyclic, normal, expected):
    G = group_from_permutations(gens)
    (H, *_) = [
        H for H in all_subgroups(G)
        if H.order == order
        and (max(G.element_order(h) for h in H.elements) == order) == cyclic
        and (normalizer(H).order == G.order) == normal
    ]
    assert orbit_degrees(G, H) == expected


def test_single_component_system():
    G, H = s3_with_rotations()
    sys = ComponentSystem.single(G, H)
    assert sys.component_ids == ("a0",)
    # the rotation subgroup is normal, so all six elements act
    assert sys.normalizer_elements == (0, 1, 2, 3, 4, 5)
    assert sys.stabilizer(0).elements == (0, 1, 2, 3, 4, 5)
    assert sys.position("a0") == 0


def test_component_system_requires_action_of_full_normalizer():
    G, H = s3_with_rotations()
    with pytest.raises(ValidationError):
        ComponentSystem(G, H, ("a0",), {0: (0,)})  # missing normalizer elements


def test_component_system_rejects_non_permutation():
    G, H = s3_with_rotations()
    action = {n: (0,) for n in range(6)}
    action[1] = (1,)  # not a valid position
    with pytest.raises(ValidationError):
        ComponentSystem(G, H, ("a0",), action)


def test_bundle_data_from_corpus():
    G, B = load_bundle_case("bundle-c3-in-s3")
    assert B.system.component_ids == ("a0",)
    assert B.support(0) == (0, 1)
    assert B.multiplicity(0, 0) == 1
    assert B.multiplicity(0, 2) == 0
    assert B.rank_over(0) == 2


def test_bundle_data_equivariance_violation_names_a_witness():
    with pytest.raises(ValidationError, match="not equivariant") as err:
        load_bundle_case("bundle-bad-equivariance")
    # the witness pins down the element and both irreducibles involved
    assert "element" in str(err.value)
    assert "irreducible" in str(err.value)


def test_bundle_data_drops_zero_multiplicities():
    G, H = s3_with_rotations()
    sys = ComponentSystem.single(G, H)
    B = BundleData.over(sys, [{0: 1, 1: 1, 2: 0}])
    assert B.support(0) == (0, 1)


def test_fine_decomposition_of_corpus_bundle():
    G, B = load_bundle_case("bundle-c3-in-s3")
    pieces = fine_decomposition(B, "a0")
    assert len(pieces) == 1
    piece = pieces[0]
    # both nontrivial characters fused into one orbit of size two
    assert piece.orbit == (0, 1)
    assert piece.multiplicity == 1
    assert piece.degree == 1
    assert piece.rank == 2
    assert piece.type_count == 2


def test_fine_decomposition_splits_disjoint_orbits():
    G, H = s3_with_rotations()
    sys = ComponentSystem.single(G, H)
    HG, _ = H.as_group()
    k = trivial_index(HG)
    B = BundleData.over(sys, [{0: 2, 1: 2, k: 5}])
    pieces = fine_decomposition(B, "a0")
    assert len(pieces) == 2
    by_orbit = {p.orbit: p for p in pieces}
    assert set(by_orbit) == {(0, 1), (k,)}
    assert by_orbit[(0, 1)].multiplicity == 2
    assert by_orbit[(0, 1)].rank == 4
    assert by_orbit[(k,)].multiplicity == 5
    assert by_orbit[(k,)].rank == 5


def test_fine_decomposition_rejects_unbalanced_multiplicities():
    G, H = s3_with_rotations()
    sys = ComponentSystem.single(G, H)
    from equichi import DefectError

    with pytest.raises((ValidationError, DefectError)):
        B = BundleData.over(sys, [{0: 1, 1: 2}])
        fine_decomposition(B, "a0")


def test_fine_pieces_partition_the_support():
    G, B = load_bundle_case("bundle-c3-in-s3")
    pieces = fine_decomposition(B, "a0")
    covered = sorted(i for p in pieces for i in p.orbit)
    assert covered == sorted(B.support(0))
    assert sum(p.rank for p in pieces) == B.rank_over(0)


def test_trivial_subgroup_gives_singleton_orbits():
    G = group_from_permutations(S3_GENS)
    H = Subgroup.generated(G, [])
    sys = ComponentSystem.single(G, H)
    B = BundleData.over(sys, [{0: 3}])
    pieces = fine_decomposition(B, "a0")
    assert len(pieces) == 1
    assert pieces[0].orbit == (0,)
    assert pieces[0].rank == 3


def test_is_adapted_to_own_decomposition():
    G, B = load_bundle_case("bundle-c3-in-s3")
    for piece in fine_decomposition(B, "a0"):
        assert is_adapted(B, piece)


def test_is_adapted_rejects_extra_support():
    G, H = s3_with_rotations()
    sys = ComponentSystem.single(G, H)
    HG, _ = H.as_group()
    k = trivial_index(HG)
    B = BundleData.over(sys, [{0: 1, 1: 1}])
    piece = fine_decomposition(B, "a0")[0]
    bigger = BundleData.over(sys, [{0: 1, 1: 1, k: 1}])
    assert is_adapted(B, piece)
    assert not is_adapted(bigger, piece)


def test_canonical_isotropy_bundle_for_cyclic_in_symmetric():
    G, H = s3_with_rotations()
    sys = ComponentSystem.single(G, H)
    HG, _ = H.as_group()
    table = character_table(HG)
    k = trivial_index(HG)
    others = [i for i in range(3) if i != k]
    for i in others:
        cib = canonical_isotropy_bundle(sys, "a0", table[i])
        # the two dimensional ambient character is the first that restricts onto it
        assert cib.ambient_index == 2
        assert cib.ambient_character.degree == 2
        assert cib.piece.orbit == (others[0], others[1])
        assert cib.piece.rank == 2
        assert cib.piece.type_count == 2
        assert is_adapted(cib.bundle, cib.piece)
    cib = canonical_isotropy_bundle(sys, "a0", table[k])
    # the sign character restricts trivially and is enumerated first
    assert cib.ambient_index == 0
    assert cib.piece.orbit == (k,)
    assert cib.piece.rank == 1
    assert is_adapted(cib.bundle, cib.piece)


def test_canonical_isotropy_bundle_when_subgroup_is_whole_group():
    C2 = group_from_permutations([[1, 0]])
    H = Subgroup.generated(C2, [0, 1])
    sys = ComponentSystem.single(C2, H)
    HG, _ = H.as_group()
    for sigma in character_table(HG):
        cib = canonical_isotropy_bundle(sys, "a0", sigma)
        amb = character_table(C2)[cib.ambient_index]
        res = restrict(amb, H)
        from equichi import inner_product, Cyc

        assert inner_product(res, sigma) != Cyc.rational(0)
        assert cib.piece.orbit == (sigma.index,)
        assert cib.piece.rank == 1
        assert cib.piece.type_count == 1


def test_canonical_selection_picks_lowest_ambient_index():
    # over the trivial subgroup every ambient character restricts to a
    # multiple of the trivial one, so index zero is always selected
    G = group_from_permutations(S3_GENS)
    H = Subgroup.generated(G, [])
    sys = ComponentSystem.single(G, H)
    HG, _ = H.as_group()
    sigma = character_table(HG)[0]
    cib = canonical_isotropy_bundle(sys, "a0", sigma)
    assert cib.ambient_index == 0



def swapped_system():
    """S3 over its rotations C3 with two components, a and b, which the
    three reflections swap."""
    G, H = s3_with_rotations()
    action = {n: (0, 1) if n in H.elements else (1, 0) for n in range(G.order)}
    return H, ComponentSystem(G, H, ("a", "b"), action)


def test_fine_decomposition_over_swapped_components():
    """The stabilizer of each component is H, so no reflection twist fuses
    the two nontrivial characters; the reflections carry a's data to b's."""
    H, system = swapped_system()
    HG, _ = H.as_group()
    table = character_table(HG)
    assert trivial_index(HG) == 2
    B = BundleData.over(system, [{0: 1, 2: 2}, {1: 1, 2: 2}])
    for cid, orbits in (("a", [(0,), (2,)]), ("b", [(1,), (2,)])):
        pos = system.position(cid)
        assert system.stabilizer(pos).elements == H.elements
        pieces = fine_decomposition(B, cid)
        assert [(p.orbit, p.multiplicity, p.rank) for p in pieces] == [(orbits[0], 1, 1), (orbits[1], 2, 2)]
        for piece in pieces:
            canonical = canonical_isotropy_bundle(system, cid, table[piece.orbit[0]])
            assert canonical.piece.orbit == piece.orbit
            assert not is_adapted(B, canonical.piece)
    canonical = canonical_isotropy_bundle(system, "a", table[0])
    # sigma_0 is carried to b as its twist sigma_1 by the first reflection
    assert canonical.bundle.multiplicities == (((0, 1),), ((1, 1),))
    assert is_adapted(canonical.bundle, canonical.piece)


def test_swapped_components_equivariance_witness():
    _, system = swapped_system()
    with pytest.raises(ValidationError) as err:
        BundleData.over(system, [{0: 1, 2: 2}, {0: 1, 2: 2}])
    assert str(err.value) == (
        "bundle data is not equivariant: element 1 sends component a irreducible 0 "
        "(multiplicity 1) to component b irreducible 1 (multiplicity 0)"
    )
