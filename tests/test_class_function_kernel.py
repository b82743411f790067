"""The integer class-function kernel against the Cyc references.

The multiplicities of `equivariant_multiplicities` must equal
`inner_product` of the Lefschetz class function with each irreducible, and
every factor chi_rho(G/H) must equal deg(rho) * sum(rho over H) / |H|, for
every irreducible and one subgroup per conjugacy class, through
`_homogeneous` on the class counts of H, and through the breakdowns where
the codimension guard lets them run.  The actions are the
corpus, the rotation groups, S5, D30 and C2^4, and tables attached at a
conductor other than the exponent N (2N, and 1 for a rational table)."""

from itertools import combinations, product

import pytest

from equichi import (
    CodimensionError,
    Cyc,
    character_table,
    corpus,
    equivariant_multiplicities,
    group_from_permutations,
    inner_product,
    orbit_type_stratification,
)
from equichi.characters import attach_character_table, cyc_to_json, table_to_json
from equichi.gcomplex import _ladder
from equichi.groups import all_subgroups
from equichi.strataformula import StrataGeometry, _class_counts, _homogeneous
from test_action_table import ROTATION_ACTIONS, build, corpus_action, suspended_polygon


def permutation_action(gens, maximal):
    return group_from_permutations(gens), maximal, gens


def d30_bipyramid():
    # the rotations of the 15-gonal bipyramid: the half-turn through vertex 0
    # reflects the polygon and swaps the poles
    gens, faces = suspended_polygon(15)
    return permutation_action(gens + [[(-i) % 15 for i in range(15)] + [16, 15]], faces)


def c2_4_cross_polytope():
    # sign flips of the four coordinates; vertex 2i is +e_i, 2i + 1 is -e_i
    flips = [[v ^ 1 if v // 2 == i else v for v in range(8)] for i in range(4)]
    return permutation_action(flips, list(product(*((2 * i, 2 * i + 1) for i in range(4)))))


def attached_at(make, conductor_of):
    """The action of `make`, its table attached through JSON at the
    conductor `conductor_of(N)`, N the exponent, before any is computed."""

    def made():
        G, maximal, maps = make()
        twin = make()[0]
        m = conductor_of(G.exponent)
        data = dict(table_to_json(twin), conductor=m)
        data["rows"] = [
            [cyc_to_json(v if m % v.n == 0 else v.descend(m), m) for v in chi.values]
            for chi in character_table(twin)
        ]
        attach_character_table(G, data)
        return G, maximal, maps

    return made


def rotation(name):
    return lambda: permutation_action(*ROTATION_ACTIONS[name])


ACTIONS = {cid: (lambda cid=cid: corpus_action(cid)) for cid in corpus.case_ids()}
ACTIONS.update({name: rotation(name) for name in ROTATION_ACTIONS})
ACTIONS.update({
    "s5-simplex-boundary": lambda: permutation_action(
        [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], list(combinations(range(5), 4))
    ),
    "d30-bipyramid": d30_bipyramid,
    "c2^4-cross-polytope": c2_4_cross_polytope,
    "a4-tetrahedron@2N": attached_at(rotation("a4-tetrahedron"), lambda N: 2 * N),
    "c12-suspension@2N": attached_at(rotation("c12-suspension"), lambda N: 2 * N),
    "d30-bipyramid@2N": attached_at(d30_bipyramid, lambda N: 2 * N),
    "s4-octahedron@1": attached_at(rotation("s4-octahedron"), lambda N: 1),
})


def reference_homogeneous(G, H, rho):
    return rho.degree * (sum(map(rho, H.elements)) / H.order).as_integer()


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_integer_kernel_matches_the_cyc_references(name):
    G, maximal, maps = ACTIONS[name]()
    table = character_table(G)
    X, _ = _ladder(build(G, maximal, maps))
    report = equivariant_multiplicities(X)
    lefschetz = report.lefschetz_class_function()
    for chi in table:
        assert inner_product(lefschetz, chi) == Cyc.rational(report.multiplicities[chi.index])
    classes = {H.canonical_class_representative().elements: H for H in all_subgroups(G)}
    for H in classes.values():
        for rho in table:
            assert _homogeneous(rho, _class_counts(H)) == reference_homogeneous(G, H, rho), (H, rho.index)
    strata = orbit_type_stratification(X)
    try:
        geometry = StrataGeometry(G, strata)
    except CodimensionError:  # a reflection fixes a hyperplane
        assert name in ("s2-reflection", "s5-simplex-boundary", "c2^4-cross-polytope")
        return
    for rho in table:
        b = geometry.breakdown(rho)
        H_pr = strata.principal.isotropy
        assert b.principal_homogeneous == reference_homogeneous(G, H_pr, rho)
        by_stratum = {s.index: s.isotropy for s in strata.singular}
        for t in b.terms:
            assert t.homogeneous == reference_homogeneous(G, by_stratum[t.stratum_index], rho)
        assert b.total == report.chi_rho[rho.index]
