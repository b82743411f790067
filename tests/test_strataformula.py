"""The stratified route to isotypical Euler characteristics."""

import pytest

from equichi import (
    CodimensionError,
    Subgroup,
    ValidationError,
    character_table,
    chi_rho_homogeneous,
    equivariant_euler_via_strata,
    euler_of_complex,
    group_from_permutations,
    trivial_index,
    verify_strata_vs_oracle,
)

S3_GENS = [[1, 2, 0], [1, 0, 2]]


def test_homogeneous_chi_whole_group_trivial_twist():
    # G/G is a point: only the trivial representation sees it
    G = group_from_permutations(S3_GENS)
    whole = Subgroup.generated(G, list(G.generators))
    tab = character_table(G)
    k = trivial_index(G)
    for rho in tab:
        assert chi_rho_homogeneous(G, whole, rho) == (1 if rho.index == k else 0)


def test_homogeneous_chi_free_orbit_gives_degree_squared():
    # G/e carries the regular representation
    G = group_from_permutations(S3_GENS)
    triv = Subgroup.generated(G, [])
    for rho in character_table(G):
        assert chi_rho_homogeneous(G, triv, rho) == rho.degree**2


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


def test_breakdown_requires_regular_complex(cases):
    X = cases["s2-pi-rotation"].gcomplex
    rho = character_table(X.group)[0]
    with pytest.raises(ValidationError):
        equivariant_euler_via_strata(X, rho)


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
