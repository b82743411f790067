"""The class matrices of the character-table split and certification,
counted at class representatives, against the all-pairs count over C_i x G."""

import pytest

from equichi import group_from_permutations
from equichi.characters import _class_matrix
from equichi.errors import DefectError
from equichi.groups import all_subgroups
from test_table_answers import GOLDEN_GROUPS, cycle


def all_pairs_class_matrices(G):
    """Per class i and class j, the pairs (m, a_ijm) with a_ijm != 0, from
    every product x y, x in C_i and y in G: the pairs in C_i x C_j with
    product in C_m number a_ijm |C_m|."""
    classes = G.conjugacy_classes()
    matrices = []
    for cls in classes:
        counts = {}
        for x in cls:
            for y in range(G.order):
                key = (G.class_of(y), G.class_of(G.mul(x, y)))
                counts[key] = counts.get(key, 0) + 1
        rows = [set() for _ in classes]
        for (j, m), total in counts.items():
            a, rest = divmod(total, len(classes[m]))
            assert rest == 0
            rows[j].add((m, a))
        matrices.append(rows)
    return matrices


def class_matrices(G):
    """`_class_matrix` of every class, in class order."""
    return [_class_matrix(G, i) for i in range(len(G.conjugacy_classes()))]


def as_sets(matrices):
    return [[set(row) for row in rows] for rows in matrices]


@pytest.mark.parametrize("name", ["A4", "S4", "A5", "S5", "D12", "D30", "B3", "B4+", "S4xC8"])
def test_class_matrices_match_the_all_pairs_count(name):
    G = GOLDEN_GROUPS[name]()
    got = class_matrices(G)
    k = len(G.conjugacy_classes())
    assert len(got) == k and all(len(rows) == k for rows in got)
    assert as_sets(got) == all_pairs_class_matrices(G)


def test_class_matrices_of_s5_subgroups_match_the_all_pairs_count():
    # one subgroup per conjugacy class, each as its own group
    S5 = group_from_permutations([cycle(5), [1, 0, 2, 3, 4]])
    representatives = {H.canonical_class_representative().elements: H for H in all_subgroups(S5)}
    assert len(representatives) == 19
    for H in representatives.values():
        K, _ = H.as_group()
        assert as_sets(class_matrices(K)) == all_pairs_class_matrices(K)


def test_partition_that_is_not_conjugation_closed_is_a_defect():
    # S3 with the 3-cycle 2 split from its conjugate 4, which joins the
    # transpositions: |C_j| b_ijm is not a multiple of |C_m|
    G = group_from_permutations([[1, 2, 0], [1, 0, 2]])
    assert G.conjugacy_classes() == ((0,), (2, 4), (1, 3, 5))
    G._classes = (((0,), (2,), (1, 3, 4, 5)), (0, 2, 1, 2, 2, 2))
    with pytest.raises(DefectError, match="^class algebra structure constants not integral$"):
        class_matrices(G)
