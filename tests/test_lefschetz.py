"""Lefschetz numbers two ways and isotypical multiplicities from traces."""

import random
from fractions import Fraction

import pytest

from equichi import (
    Cyc,
    SimplicialComplex,
    ValidationError,
    build_gcomplex,
    character_table,
    distributional_pairing,
    equivariant_multiplicities,
    euler_of_complex,
    group_from_permutations,
    lefschetz_number,
    trivial_character,
)
from equichi import Character, DefectError, corpus, regularize
from equichi.characters import regular_character
from equichi.complexes import euler_characteristic
from equichi.gcomplex import _ladder
from equichi.lefschetz import lefschetz_number_fixed, lefschetz_number_trace
from test_action_table import ROTATION_ACTIONS, build, corpus_action, relabel, subdivide

LEFSCHETZ = {
    "s2-identity": (2,),
    "s2-pi-rotation": (2, 2),
    "s2-order4-rotation": (2, 2, 2, 2),
    "s2-klein-four": (2, 2, 2, 2),
    "s2-antipodal": (2, 0),
    "s2-reflection": (2, 0),
    "square-trivial": (1, 1),
    "interval-trivial": (1,),
    "torus-involution": (0, 4),
}
MULTIPLICITIES = {
    "s2-identity": (2,),
    "s2-pi-rotation": (0, 2),
    "s2-order4-rotation": (0, 0, 0, 2),
    "s2-klein-four": (0, 0, 0, 2),
    "s2-antipodal": (1, 1),
    "s2-reflection": (1, 1),
    "square-trivial": (0, 1),
    "interval-trivial": (1,),
    "torus-involution": (-2, 2),
}


def test_trace_route_requires_regularized_input(cases):
    # s2-order4-rotation fails condition (A) until it is subdivided
    X = cases["s2-order4-rotation"].gcomplex
    with pytest.raises(ValidationError) as err:
        lefschetz_number_trace(X, 1)
    assert str(err.value) == "operation requires an action satisfying condition (A)"


def test_fixed_set_route_requires_condition_a(cases):
    """C2 flipping the interval [0, 1] fixes no simplex pointwise, so the
    fixed-set count of the flip is 0, yet L = 1: the route refuses that
    action, and s2-order4-rotation, which fails condition (A) as well, after
    the element check."""
    G = group_from_permutations([[1, 0]])
    flip = build_gcomplex(SimplicialComplex.from_maximal([[0, 1]]), G, [[1, 0]])
    assert equivariant_multiplicities(regularize(flip)).lefschetz == (1, 1)
    for X in (flip, cases["s2-order4-rotation"].gcomplex):
        assert not X.condition_a
        with pytest.raises(ValidationError) as err:
            lefschetz_number_fixed(X, 1)
        assert str(err.value) == "operation requires an action satisfying condition (A)"
        with pytest.raises(ValidationError) as err:
            lefschetz_number_fixed(X, -1)
        assert str(err.value).startswith("element -1 is not an element id")


def test_trace_and_fixed_point_routes_agree_everywhere(regular_cases):
    for cid, X in regular_cases.items():
        for g in range(X.group.order):
            t = lefschetz_number_trace(X, g)
            f = lefschetz_number_fixed(X, g)
            assert t == f, (cid, g)
            assert lefschetz_number(X, g) == t


def test_identity_gives_euler_characteristic(regular_cases):
    for X in regular_cases.values():
        assert lefschetz_number(X, X.group.identity) == euler_of_complex(X.complex)


def test_lefschetz_values_frozen(oracle_reports):
    for cid, rep in oracle_reports.items():
        assert rep.lefschetz == LEFSCHETZ[cid], cid


def test_multiplicities_frozen(oracle_reports):
    for cid, rep in oracle_reports.items():
        assert rep.multiplicities == MULTIPLICITIES[cid], cid


def test_chi_rho_is_degree_times_multiplicity(oracle_reports):
    for cid, rep in oracle_reports.items():
        tab = character_table(rep.gcomplex.group)
        for chi in tab:
            assert rep.chi_rho[chi.index] == chi.degree * rep.multiplicities[chi.index]


def test_isotypical_sum_recovers_euler_characteristic(oracle_reports):
    for cid, rep in oracle_reports.items():
        chi = euler_of_complex(rep.gcomplex.complex)
        assert rep.lefschetz[rep.gcomplex.group.identity] == chi
        tab = character_table(rep.gcomplex.group)
        assert sum(c.degree * rep.multiplicities[c.index] for c in tab) == chi


def test_multiplicities_reassemble_every_lefschetz_number(oracle_reports):
    # sum over irreducibles of m_rho * chi_rho(g) equals L(g) for each g
    for cid, rep in oracle_reports.items():
        G = rep.gcomplex.group
        tab = character_table(G)
        for g in range(G.order):
            total = Cyc.zero(1)
            for chi in tab:
                total = total + chi.values[G.class_of(g)] * rep.multiplicities[chi.index]
            assert total == Cyc.rational(rep.lefschetz[g]), (cid, g)


def test_lefschetz_class_function_matches_table(oracle_reports):
    for rep in oracle_reports.values():
        G = rep.gcomplex.group
        cf = rep.lefschetz_class_function()
        for g in range(G.order):
            assert cf.values[G.class_of(g)] == Cyc.rational(rep.lefschetz[g])


def test_pairing_with_irreducible_extracts_its_multiplicity(oracle_reports):
    for rep in oracle_reports.values():
        for chi in character_table(rep.gcomplex.group):
            got = distributional_pairing(rep, chi)
            assert got == Cyc.rational(rep.multiplicities[chi.index])


def test_pairing_with_constant_one_gives_invariant_multiplicity(oracle_reports):
    for rep in oracle_reports.values():
        G = rep.gcomplex.group
        triv = trivial_character(G)
        from equichi import trivial_index

        assert distributional_pairing(rep, triv) == Cyc.rational(
            rep.multiplicities[trivial_index(G)]
        )


def test_pairing_with_regular_character_gives_euler_characteristic(oracle_reports):
    for rep in oracle_reports.values():
        G = rep.gcomplex.group
        got = distributional_pairing(rep, regular_character(G))
        # only the identity contributes, leaving chi(X)
        assert got == Cyc.rational(euler_of_complex(rep.gcomplex.complex))


def test_pairing_rejects_foreign_class_function(oracle_reports):
    other = group_from_permutations([[1, 0]])
    rep = oracle_reports["s2-pi-rotation"]
    with pytest.raises(ValidationError):
        distributional_pairing(rep, trivial_character(other))


def test_report_json_shape(oracle_reports):
    rep = oracle_reports["s2-pi-rotation"]
    assert rep.lefschetz == (2, 2)
    assert rep.multiplicities == (0, 2)
    assert rep.chi_rho == (0, 2)


def doctored_case(cid, rows):
    """A fresh regular copy of a corpus case whose group's table is replaced
    by `rows`, one tuple of integer class values per row; the degree is the
    value at the identity class."""
    X = regularize(corpus.load_case(cid).gcomplex)
    G = X.group
    one = G.class_of(G.identity)
    G._char_table = tuple(
        Character(G, tuple(map(Cyc.rational, row)), degree=row[one], index=i)
        for i, row in enumerate(rows)
    )
    return X


@pytest.mark.parametrize("row", [(1, 0), (Fraction(1, 2), Fraction(1, 2))])
def test_a_fractional_multiplicity_is_a_defect_naming_its_value(row):
    # square-trivial has L = (1, 1): both rows pair to 1/2
    X = doctored_case("square-trivial", [row, (1, 1)])
    with pytest.raises(DefectError) as err:
        equivariant_multiplicities(X)
    assert str(err.value) == "multiplicity of irreducible 0 is not an integer: 1/2"


def test_rows_with_fractional_values_reassemble_exactly():
    # (1/2, -1/2) pairs to 0 with L = (1, 1), and the trivial row to 1
    X = doctored_case("square-trivial", [(Fraction(1, 2), Fraction(-1, 2)), (1, 1)])
    assert equivariant_multiplicities(X).multiplicities == (0, 1)


def test_multiplicities_that_miss_a_lefschetz_number_are_a_defect():
    # two trivial rows: each pairs to 1, and together they give 2 != L(1) = 1
    X = doctored_case("square-trivial", [(1, 1), (1, 1)])
    with pytest.raises(DefectError) as err:
        equivariant_multiplicities(X)
    assert str(err.value) == "multiplicities do not reassemble the Lefschetz numbers"


# ---------------------------------------------------------------------------
# the fixed-set route, one Euler number per fixer mask, against the fixed
# subcomplex found by vertex tuples


def fixed_subcomplex_euler(X, g):
    """chi of the simplices whose every vertex g fixes, read off the vertex
    map of g and `order` alone."""
    K = X.complex
    image = dict(zip(K.vertices, map(K.vertices.__getitem__, X.vertex_perm[g])))
    return euler_characteristic(s for s in K.order if all(image[v] == v for v in s))


def per_mask_cases():
    """Every corpus action at sd0-sd2, relabelled, and the rotation actions at
    the first level of the ladder that satisfies condition (A)."""
    rng = random.Random(33)
    for cid in corpus.case_ids():
        G, maximal, maps = corpus_action(cid)
        for level in range(3):
            yield pytest.param(build(G, *relabel(maximal, maps, rng)), id=f"{cid}:sd{level}")
            maximal, maps = subdivide(maximal, maps)
    for name, (gens, faces) in ROTATION_ACTIONS.items():
        X = build(group_from_permutations(gens), faces, [dict(enumerate(g)) for g in gens])
        yield pytest.param(_ladder(X)[0], id=f"{name}:ladder")


@pytest.mark.parametrize("X", list(per_mask_cases()))
def test_fixed_route_per_mask_matches_the_fixed_subcomplex(X):
    """Every element: the sum of the per-mask Euler numbers over the masks
    holding it is chi of its fixed subcomplex; an action that fails
    condition (A) is refused instead."""
    for g in range(X.group.order):
        if not X.condition_a:
            with pytest.raises(ValidationError, match="condition \\(A\\)"):
                lefschetz_number_fixed(X, g)
            continue
        assert lefschetz_number_fixed(X, g) == fixed_subcomplex_euler(X, g), g
