"""The stratified route to isotypical Euler characteristics."""

import pytest

from equichi import (
    Character,
    CodimensionError,
    Cyc,
    DefectError,
    Subgroup,
    ValidationError,
    character_table,
    corpus,
    equivariant_euler_via_strata,
    euler_of_complex,
    group_from_permutations,
    orbit_type_stratification,
    regularize,
    trivial_index,
    verify_strata_vs_oracle,
)
from equichi.gcomplex import _ladder
from equichi.strataformula import StrataGeometry, _class_counts, _homogeneous, strata_geometry

S3_GENS = [[1, 2, 0], [1, 0, 2]]


def test_homogeneous_chi_whole_group_trivial_twist():
    # G/G is a point: only the trivial representation sees it
    G = group_from_permutations(S3_GENS)
    whole = Subgroup.generated(G, list(G.generators))
    tab = character_table(G)
    k = trivial_index(G)
    for rho in tab:
        assert _homogeneous(rho, _class_counts(whole)) == (1 if rho.index == k else 0)


def test_homogeneous_chi_free_orbit_gives_degree_squared():
    # G/e carries the regular representation
    G = group_from_permutations(S3_GENS)
    triv = Subgroup.generated(G, [])
    for rho in character_table(G):
        assert _homogeneous(rho, _class_counts(triv)) == rho.degree**2


def test_breakdown_internals_half_rotation(regular_cases):
    X = regular_cases["s2-pi-rotation"]
    tab = character_table(X.group)
    sign_b = equivariant_euler_via_strata(X, tab[0])
    triv_b = equivariant_euler_via_strata(X, tab[1])
    # quotient sphere minus two singular points kills the principal term
    for b in (sign_b, triv_b):
        assert b.principal_homogeneous == 1
        assert b.principal_relative == 0
        assert b.principal_product == 0
        assert len(b.terms) == 2
    assert [t.product for t in sign_b.terms] == [0, 0]
    assert [t.product for t in triv_b.terms] == [1, 1]
    assert sign_b.total == 0
    assert triv_b.total == 2


def test_breakdown_internals_torus_involution(regular_cases):
    X = regular_cases["torus-involution"]
    tab = character_table(X.group)
    sign_b = equivariant_euler_via_strata(X, tab[0])
    triv_b = equivariant_euler_via_strata(X, tab[1])
    # chi(quotient) = 2 with four singular points
    assert sign_b.principal_relative == -2
    assert triv_b.principal_relative == -2
    assert [t.product for t in sign_b.terms] == [0, 0, 0, 0]
    assert [t.product for t in triv_b.terms] == [1, 1, 1, 1]
    assert sign_b.total == -2
    assert triv_b.total == 2


def test_breakdown_internals_klein_four(regular_cases):
    # each nontrivial character survives exactly on the stratum its kernel fixes
    X = regular_cases["s2-klein-four"]
    tab = character_table(X.group)
    k = trivial_index(X.group)
    for rho in tab:
        b = equivariant_euler_via_strata(X, rho)
        assert b.principal_relative == -1
        hits = sum(t.product for t in b.terms)
        if rho.index == k:
            assert hits == 3
            assert b.total == 2
        else:
            assert hits == 1
            assert b.total == 0


def test_breakdown_free_action_has_no_singular_terms(regular_cases):
    X = regular_cases["s2-antipodal"]
    for rho in character_table(X.group):
        b = equivariant_euler_via_strata(X, rho)
        assert b.terms == ()
        assert b.total == rho.degree**2 * 1  # chi(quotient) = 1


def test_breakdown_total_is_principal_plus_terms(regular_cases):
    for cid, X in regular_cases.items():
        if cid == "s2-reflection":
            continue
        for rho in character_table(X.group):
            b = equivariant_euler_via_strata(X, rho)
            assert b.total == b.principal_product + sum(t.product for t in b.terms)
            assert b.rho_index == rho.index


def test_breakdown_totals_sum_to_euler_characteristic(regular_cases):
    for cid, X in regular_cases.items():
        if cid == "s2-reflection":
            continue
        tab = character_table(X.group)
        total = sum(equivariant_euler_via_strata(X, rho).total for rho in tab)
        assert total == euler_of_complex(X.complex), cid


def test_breakdown_terms_record_trivial_sign_characters(regular_cases):
    for cid in ["s2-pi-rotation", "s2-order4-rotation", "s2-klein-four", "torus-involution"]:
        X = regular_cases[cid]
        for rho in character_table(X.group):
            for t in equivariant_euler_via_strata(X, rho).terms:
                assert t.sign_character_trivial
                assert t.codimension >= 2


def test_codimension_one_stratum_is_rejected_with_location(regular_cases):
    X = regular_cases["s2-reflection"]
    rho = character_table(X.group)[0]
    with pytest.raises(CodimensionError) as err:
        equivariant_euler_via_strata(X, rho)
    assert err.value.stratum_index == 1
    assert err.value.component_index == 0
    assert "codimension 1" in str(err.value)


def test_refusal_is_the_skip_and_the_raised_error(cases):
    """On every corpus case the geometry's refusal is verify's skip and the
    error that strata_geometry raises, with the same text and location."""
    refused = {}
    for cid, case in cases.items():
        X, _ = _ladder(case.gcomplex)
        refusal = StrataGeometry(X.group, orbit_type_stratification(X)).refusal
        skipped = verify_strata_vs_oracle(case.gcomplex).skipped
        if refusal is None:
            assert skipped is None, cid
            strata_geometry(X)
            continue
        assert skipped == str(refusal), cid
        with pytest.raises(CodimensionError) as err:
            strata_geometry(X)
        assert str(err.value) == str(refusal)
        assert (err.value.stratum_index, err.value.component_index) == (
            refusal.stratum_index, refusal.component_index
        )
        refused[cid] = (str(refusal), refusal.stratum_index, refusal.component_index)
    assert refused == {
        "s2-reflection": ("stratified sum rejected: component 0 of stratum 1 has codimension 1 < 2", 1, 0)
    }


def test_breakdown_requires_regular_complex(cases):
    # s2-order4-rotation fails condition (A) until it is subdivided
    X = cases["s2-order4-rotation"].gcomplex
    rho = character_table(X.group)[0]
    with pytest.raises(ValidationError) as err:
        equivariant_euler_via_strata(X, rho)
    assert str(err.value) == "operation requires an action satisfying condition (A)"


def test_verify_reports_match_on_all_unskipped_cases(cases):
    for cid, case in cases.items():
        rep = verify_strata_vs_oracle(case.gcomplex)
        if cid == "s2-reflection":
            assert rep.skipped is not None
            assert rep.rows == ()
            assert not rep.totals_consistent
        else:
            assert rep.skipped is None
            assert rep.all_match, cid
            assert rep.totals_consistent
            for row in rep.rows:
                assert row.oracle == row.formula


def test_verify_report_records_subdivisions(cases):
    rep = verify_strata_vs_oracle(cases["s2-order4-rotation"].gcomplex)
    assert rep.subdivisions == 2
    assert rep.euler_characteristic == 2


def test_verify_skip_message_names_the_stratum(cases):
    rep = verify_strata_vs_oracle(cases["s2-reflection"].gcomplex)
    assert rep.skipped == (
        "stratified sum rejected: component 0 of stratum 1 has codimension 1 < 2"
    )


def test_breakdown_json_shape(regular_cases):
    X = regular_cases["s2-pi-rotation"]
    b = equivariant_euler_via_strata(X, character_table(X.group)[1])
    doc = b.to_json_dict()
    assert doc["rho"] == 1
    assert doc["total"] == 2
    assert doc["principal"]["product"] == 0
    assert len(doc["singular_terms"]) == 2
    assert doc["singular_terms"][0]["codimension"] == 2


def test_a_negative_restriction_multiplicity_is_a_defect():
    # s2-pi-rotation has trivial principal isotropy, so a row that is -1 at
    # the identity restricts to it with multiplicity -1; the breakdown reads
    # the replaced table, not the one it read before
    X = regularize(corpus.load_case("s2-pi-rotation").gcomplex)
    G = X.group
    assert [equivariant_euler_via_strata(X, rho).total for rho in character_table(G)] == [0, 2]
    G._char_table = tuple(
        Character(G, tuple(map(Cyc.rational, row)), degree=1, index=i)
        for i, row in enumerate([(-1, 1), (1, 1)])
    )
    with pytest.raises(DefectError) as err:
        equivariant_euler_via_strata(X, G._char_table[0])
    assert str(err.value) == "negative multiplicity in a restriction"


@pytest.mark.parametrize("at_identity, elsewhere, average", [
    (Cyc.one(), Cyc.zero(), "1/3"),
    (Cyc.rational(3), Cyc.zeta(3) * 3, "1 + z3"),
])
def test_a_class_function_that_averages_to_a_non_integer_is_a_validation_error(
    at_identity, elsewhere, average
):
    # C3 and a class function that is not a character: (1, 0, 0) averages
    # to 1/3, and (3, 3 z3, 0) to 1 + z3
    G = group_from_permutations([[1, 2, 0]])
    one = G.class_of(G.identity)
    first = next(c for c in range(3) if c != one)
    values = tuple(
        at_identity if c == one else elsewhere if c == first else Cyc.zero() for c in range(3)
    )
    rho = Character(G, values, degree=at_identity.as_integer(), index=0)
    whole = Subgroup.generated(G, list(G.generators))
    with pytest.raises(ValidationError) as err:
        _homogeneous(rho, _class_counts(whole))
    assert str(err.value) == (
        f"character 0 does not average to an integer over a subgroup of order 3: {average}"
    )
