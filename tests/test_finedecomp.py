"""Twisting, component systems, bundle data, and fine decompositions."""

import pytest

from equichi import (
    BundleData,
    ComponentSystem,
    Subgroup,
    ValidationError,
    canonical_isotropy_bundle,
    character_table,
    fine_decomposition,
    group_from_permutations,
    is_adapted,
    normalizer,
    restrict,
    trivial_index,
    twist_index_map,
    twist_irrep,
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
    for sigma in character_table(HG):
        for h in H.elements:
            assert twist_irrep(H, sigma, h).index == sigma.index


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
    HG, _ = R.as_group()
    sigma = character_table(HG)[0]
    rot = next(g for g in range(6) if G.element_order(g) == 3)
    with pytest.raises(ValidationError, match="normalize"):
        twist_irrep(R, sigma, rot)


def test_twist_rejects_foreign_ids():
    G, H = s3_with_rotations()
    HG, _ = H.as_group()
    sigma = character_table(HG)[0]
    with pytest.raises(ValidationError):
        twist_irrep(H, sigma, 99)
    other = group_from_permutations([[1, 0]])
    foreign = character_table(other)[0]
    with pytest.raises(ValidationError):
        twist_irrep(H, foreign, 0)


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

