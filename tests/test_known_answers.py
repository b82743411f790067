"""Known answers for actions whose isotropy reverses the normal orientation.

The actions here have isotropy groups that act on the normal slice of
their fixed sets by orientation-reversing maps, or fixed sets that reach the
boundary; the signed permutation groups also act by rotations alone.  The
stratified sum carries no orientation twist, so both routes must give the
answer known in closed form.  So must joins of circle actions, the
rotations of the 4-cross-polytope, whose complexes reach 40,256 simplices
once regular, and two actions on the 5-cross-polytope, regular only at
sd^2 (460,800 top simplices), which both routes reach at sd^1.  The
symmetric groups on simplex boundaries and the dihedral groups on polygons
hold reflections, so `verify` skips their stratified sum, and the oracle
alone must give the closed form.
"""

import json
import random
from itertools import combinations, product

import pytest

from equichi import (
    ClassFunction,
    Cyc,
    SimplicialComplex,
    Subgroup,
    all_subgroups,
    build_gcomplex,
    character_table,
    equivariant_multiplicities,
    group_from_permutations,
    inner_product,
    regularize,
    verify_strata_vs_oracle,
)
from equichi.cli import main
from equichi.gcomplex import _ladder
from equichi.jsonio import gcomplex_from_json, group_from_json

# the boundary of the 4-cross-polytope, S^3: vertex 2i is +e_i and vertex
# 2i + 1 is -e_i, and each facet picks one of +-e_i for every i
CROSS_POLYTOPE = [[2 * i + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=4)]
NEGATE_123 = [1, 0, 3, 2, 5, 4, 6, 7]  # diag(-1, -1, -1, 1)
NEGATE_234 = [0, 1, 3, 2, 5, 4, 7, 6]  # diag(1, -1, -1, -1)
CYCLE_1234 = [2, 3, 4, 5, 6, 7, 0, 1]  # e_i -> e_(i+1)

# the cone over the half-turn of the octahedral sphere: a 3-ball whose axis
# of rotation reaches the boundary
OCTAHEDRON = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]
HALF_TURN = [3, 4, 2, 0, 1, 5]

REPRODUCTIONS = {
    # S^3 / C2 with two isolated fixed points: Lambda(g) = 2, Lambda(1) = 0
    "s3-negate-three": ([NEGATE_123], CROSS_POLYTOPE, (-1, 1)),
    "cone-over-half-turn": ([HALF_TURN + [6]], [t + [6] for t in OCTAHEDRON], (0, 1)),
    # three tetrahedra on the edge (0, 1), permuted cyclically by C3
    "three-tetrahedra-on-an-edge": (
        [[0, 1, 4, 5, 6, 7, 2, 3]],
        [[0, 1, 2, 3], [0, 1, 4, 5], [0, 1, 6, 7]],
        (0, 0, 1),
    ),
}


def write_action(tmp_path, gens, maximal, maps=None):
    gpath, cpath = tmp_path / "group.json", tmp_path / "complex.json"
    gpath.write_text(json.dumps({"permutation_generators": gens}))
    images = gens if maps is None else maps
    cpath.write_text(json.dumps({"maximal_simplices": maximal, "action": {"generator_images": images}}))
    return gpath, cpath


def verify(tmp_path, gens, maximal, maps=None):
    gpath, cpath = write_action(tmp_path, gens, maximal, maps)
    code = main(["verify", "--group", str(gpath), "--complex", str(cpath)])
    return code, gpath, cpath


@pytest.mark.parametrize("name", list(REPRODUCTIONS))
def test_normal_orientation_reversing_isotropy_verifies(tmp_path, capsys, name):
    gens, maximal, expected = REPRODUCTIONS[name]
    code, _, _ = verify(tmp_path, gens, maximal)
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = json.loads(out)["report"]["rows"]
    assert tuple(r["oracle"] for r in rows) == expected
    assert tuple(r["formula"] for r in rows) == expected


def signed_det(perm):
    """det of the signed permutation matrix acting on the cross-polytope's
    vertices as `perm`: the sign of the coordinate permutation times the
    signs it puts on the coordinates."""
    coords = [perm[2 * i] // 2 for i in range(len(perm) // 2)]
    det = 1
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if coords[i] > coords[j]:
                det = -det
    for i in range(len(coords)):
        if perm[2 * i] % 2:
            det = -det
    return det


def paired(G, lefschetz):
    """chi^rho = deg rho * <Lambda, rho> for every rho, where Lambda(g) is
    `lefschetz` of the permutation g acts by."""
    values = tuple(Cyc.rational(lefschetz(G.perms[g])) for g in G.class_representatives())
    lam = ClassFunction(G, values)
    return tuple(rho.degree * inner_product(lam, rho).as_integer() for rho in character_table(G))


def closed_form(G):
    """Lambda(g) = 1 + (-1)^(n-1) det g on S^(n-1), since g acts on H^(n-1)
    by det g."""
    n = len(G.perms[0]) // 2
    return paired(G, lambda perm: 1 + (-1) ** (n - 1) * signed_det(perm))


def relabeled(gens, rng):
    """The cross-polytope and the generators' vertex maps, with the vertices
    renamed at random into [100, 108)."""
    new = list(range(100, 108))
    rng.shuffle(new)
    maximal = [[new[v] for v in s] for s in CROSS_POLYTOPE]
    maps = [{str(new[v]): new[g[v]] for v in range(8)} for g in gens]
    return maximal, maps


CROSS_POLYTOPE_GROUPS = {
    "C2": ([NEGATE_123], 0),
    "V4": ([NEGATE_123, NEGATE_234], 0),
    "C4": ([CYCLE_1234], 0),
    # holds diag(1, 1, -1, 1), a reflection: its fixed set has codimension 1
    "order-64": ([CYCLE_1234, NEGATE_123], 3),
}


@pytest.mark.parametrize("name", list(CROSS_POLYTOPE_GROUPS))
def test_cross_polytope_signed_permutations_match_closed_form(tmp_path, capsys, name):
    gens, exit_code = CROSS_POLYTOPE_GROUPS[name]
    maximal, maps = relabeled(gens, random.Random(name))
    code, gpath, cpath = verify(tmp_path, gens, maximal, maps)
    out, _ = capsys.readouterr()
    assert code == exit_code
    G = group_from_json(json.loads(gpath.read_text()))
    expected = closed_form(G)
    report = json.loads(out)["report"]
    if exit_code == 0:
        assert tuple(r["oracle"] for r in report["rows"]) == expected
        assert tuple(r["formula"] for r in report["rows"]) == expected
    else:
        assert report["rows"] == [] and report["skipped"] is not None
        X = gcomplex_from_json(json.loads(cpath.read_text()), G)
        assert equivariant_multiplicities(regularize(X)).chi_rho == expected


# the octahedron, the boundary of the 3-cross-polytope, and generators of
# the signed permutations B_3 (order 48) acting on its vertices
OCTAHEDRON_FACETS = [[2 * i + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=3)]
B3 = [[2, 3, 4, 5, 0, 1], [2, 3, 0, 1, 4, 5], [1, 0, 2, 3, 4, 5]]


def signed_trace(perm):
    """Trace of the signed permutation matrix acting as `perm`."""
    return sum(1 if perm[2 * i] == 2 * i else -1 for i in range(len(perm) // 2) if perm[2 * i] // 2 == i)


def generators(H):
    """A generating set of H, picked greedily from its elements."""
    gens: list[int] = []
    for h in H.elements:
        if h not in Subgroup.generated(H.parent, gens).elements:
            gens.append(h)
    return gens


def test_octahedron_signed_permutation_subgroups_match_closed_form():
    """One subgroup from each conjugacy class of B_3 acts on the octahedron.
    Lambda(g) = 1 + det g, and both routes must give deg rho * <Lambda, rho>.
    A class holding a reflection (det -1, trace 1) fixes a great circle, a
    stratum of codimension 1: the stratified route is skipped there, and
    the oracle alone must match."""
    B = group_from_permutations(B3)
    assert B.order == 48
    classes = {H.canonical_class_representative().elements: H for H in all_subgroups(B)}
    assert len(classes) == 33
    skipped = 0
    for H in classes.values():
        perms = [B.perms[h] for h in generators(H)] or [B.perms[B.identity]]
        G = group_from_permutations(perms)
        X = regularize(build_gcomplex(SimplicialComplex.from_maximal(OCTAHEDRON_FACETS), G, perms))
        expected = closed_form(G)
        report = verify_strata_vs_oracle(X)
        reflection = any(signed_det(p) == -1 and signed_trace(p) == 1 for p in G.perms)
        if reflection:
            skipped += 1
            assert report.rows == () and report.skipped is not None
            assert equivariant_multiplicities(X).chi_rho == expected
        else:
            assert report.skipped is None and report.all_match
            assert tuple(r.oracle for r in report.rows) == expected
    assert skipped == 19


# the 4-cycle A on vertices 0-3 joined with the 4-cycle B on vertices 4-7:
# S^1 * S^1 = S^3, in 16 tetrahedra
JOIN = [[i, (i + 1) % 4, 4 + j, 4 + (j + 1) % 4] for i in range(4) for j in range(4)]
REFLECT_B = [4, 7, 6, 5]  # j -> -j on B

# (the vertex map of the generator, subdivisions to regularity, chi^rho)
JOIN_ACTIONS = {
    # A by a half turn: 1,696 simplices once regular
    "c2-half-turn": ([2, 3, 0, 1] + REFLECT_B, 1, (-1, 1)),
    # A by a quarter turn: 40,256 simplices once regular
    "c4-quarter-turn": ([1, 2, 3, 0] + REFLECT_B, 2, (-1, 0, 0, 1)),
    # A reflected too: Lambda_A = Lambda_B = 2 at the reflection, so only
    # the product term makes Lambda_{A*B} = 0 there
    "c2-both-reflected": ([0, 3, 2, 1] + REFLECT_B, 1, (0, 0)),
}


def circle_lefschetz(h):
    """Lambda of a dihedral map of a polygon, given as the images of its
    vertices 0, 1, ...: 1 - deg h, where the degree is +1 for a rotation and
    -1 for a reflection."""
    return 0 if (h[1] - h[0]) % len(h) == 1 else 2


def join_lefschetz(perm):
    """Lambda_{A*B} = Lambda_A + Lambda_B - Lambda_A Lambda_B: the reduced
    Euler characteristics 1 - Lambda of a join multiply."""
    a, b = circle_lefschetz(perm[:4]), circle_lefschetz([v - 4 for v in perm[4:]])
    return a + b - a * b


@pytest.mark.parametrize("name", list(JOIN_ACTIONS))
def test_joins_of_circle_actions_match_closed_form(name):
    """A and B acted on at once: both routes must give
    deg rho * <Lambda_{A*B}, rho>."""
    gen, subdivisions, expected = JOIN_ACTIONS[name]
    G = group_from_permutations([gen])
    assert paired(G, join_lefschetz) == expected
    report = verify_strata_vs_oracle(build_gcomplex(SimplicialComplex.from_maximal(JOIN), G, [gen]))
    assert report.skipped is None and report.all_match and report.subdivisions == subdivisions
    assert tuple(r.oracle for r in report.rows) == expected
    assert tuple(r.formula for r in report.rows) == expected


# generators of B_4^+, the signed permutations of four coordinates with
# det 1: e_i -> e_(i+1) for i < 4 with e_4 -> -e_1, and e_1 -> -e_2 with e_2 -> e_1
B4_PLUS = [[2, 3, 4, 5, 6, 7, 1, 0], [3, 2, 0, 1, 4, 5, 6, 7]]


def test_rotations_of_the_cross_polytope_cancel_over_the_strata():
    """B_4^+ (order 192) rotates S^3, so Lambda(g) = 1 - det g = 0 at every
    element and every chi^rho is 0.  This checks that the strata's terms
    cancel in every rho, nothing more: a closed form that is 0 throughout
    cannot tell one nonzero term from another."""
    G = group_from_permutations(B4_PLUS)
    assert G.order == 192 and all(signed_det(p) == 1 for p in G.perms)
    expected = closed_form(G)
    assert expected == (0,) * len(expected)
    X = build_gcomplex(SimplicialComplex.from_maximal(CROSS_POLYTOPE), G, B4_PLUS)
    report = verify_strata_vs_oracle(X)
    assert report.skipped is None and report.all_match and report.subdivisions == 2
    assert tuple(r.oracle for r in report.rows) == expected
    assert tuple(r.formula for r in report.rows) == expected


# the boundary of the 5-cross-polytope, S^4, numbered as the 4-cross-polytope
CROSS_POLYTOPE_5 = [[2 * i + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=5)]
CYCLE_12345 = [2, 3, 4, 5, 6, 7, 8, 9, 0, 1]  # e_i -> e_(i+1)
NEGATE_ALL = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8]  # -I
NEGATE_12 = [1, 0, 3, 2, 4, 5, 6, 7, 8, 9]  # diag(-1, -1, 1, 1, 1)


# (generators, order, chi^rho from rho and the element id of P), where P
# is the coordinate 5-cycle; both actions are regular only at sd^2
D4_ACTIONS = {
    # C10 = <P, -I>: Lambda(g) = 1 + det g is 2 on <P> and 0 off it, so
    # chi^rho is 1 exactly where rho is trivial on P, the trivial character
    # and the one with rho(-I) = -1
    "c10": ([CYCLE_12345, NEGATE_ALL], 10, lambda rho, P: int(rho(P) == Cyc.one())),
    # the even sign changes, permuted by P: det g = 1 throughout, so
    # Lambda = 2 and chi^rho is 2 on the trivial character alone
    "order-80": (
        [CYCLE_12345, NEGATE_12],
        80,
        lambda rho, P: 2 * all(v == Cyc.one() for v in rho.values),
    ),
}


@pytest.mark.parametrize("name", list(D4_ACTIONS))
def test_actions_on_the_5_cross_polytope_match_closed_form(name):
    gens, order, chi = D4_ACTIONS[name]
    G = group_from_permutations(gens)
    assert G.order == order
    expected = closed_form(G)
    P = G.perms.index(tuple(CYCLE_12345))
    assert expected == tuple(chi(rho, P) for rho in character_table(G))
    report = verify_strata_vs_oracle(build_gcomplex(SimplicialComplex.from_maximal(CROSS_POLYTOPE_5), G, gens))
    assert report.skipped is None and report.all_match and report.subdivisions == 2
    assert tuple(r.oracle for r in report.rows) == expected
    assert tuple(r.formula for r in report.rows) == expected


def permutation_sign(perm):
    """The sign of a permutation, from the parity of its even-length cycles."""
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = perm[v]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def linear_closed_form(G, linear, s):
    """chi^rho when Lambda = 1 + s * lam, for the linear character lam given
    by `linear` on the permutations and a sign s: 1 on the trivial
    character, s on lam and 0 on every other, each found in the table by
    its values at the class representatives."""
    reps = [G.perms[g] for g in G.class_representatives()]
    lam = tuple(Cyc.rational(linear(p)) for p in reps)
    trivial = tuple(Cyc.one() for _ in reps)
    table = character_table(G)
    assert sum(rho.values == lam for rho in table) == 1
    return tuple(int(rho.values == trivial) + s * int(rho.values == lam) for rho in table)


def assert_skipped_with_oracle(tmp_path, capsys, gens, maximal, expected):
    """`verify` skips the stratified sum at a component of codimension 1
    (exit 3), and the oracle on `_ladder`'s complex gives `expected`."""
    code, gpath, cpath = verify(tmp_path, gens, maximal)
    out, _ = capsys.readouterr()
    report = json.loads(out)["report"]
    assert code == 3 and report["rows"] == []
    assert report["skipped"] == "stratified sum rejected: component 0 of stratum 1 has codimension 1 < 2"
    G = group_from_json(json.loads(gpath.read_text()))
    X, _ = _ladder(gcomplex_from_json(json.loads(cpath.read_text()), G))
    assert equivariant_multiplicities(X).chi_rho == expected


@pytest.mark.parametrize("n", [4, 5])
def test_symmetric_group_on_the_simplex_boundary_matches_closed_form(tmp_path, capsys, n):
    """S_n permutes the vertices of the boundary of the (n-1)-simplex, the
    sphere S^(n-2) in the hyperplane of coordinate sum 0, where g acts with
    det sgn g.  So Lambda(g) = 1 + (-1)^n sgn g, and chi^rho is 1 on the
    trivial character, (-1)^n on the sign character and 0 on every other.
    A transposition fixes a hyperplane: the stratified sum is skipped."""
    gens = [[*range(1, n), 0], [1, 0, *range(2, n)]]
    G = group_from_permutations(gens)
    expected = linear_closed_form(G, permutation_sign, (-1) ** n)
    assert paired(G, lambda perm: 1 + (-1) ** n * permutation_sign(perm)) == expected
    assert_skipped_with_oracle(tmp_path, capsys, gens, list(map(list, combinations(range(n), n - 1))), expected)


@pytest.mark.parametrize("n", range(3, 9))
def test_dihedral_group_on_the_polygon_matches_closed_form(tmp_path, capsys, n):
    """D_n, of order 2n, acts on the n-gon.  Lambda is 0 on the rotations and
    2 on the reflections, so Lambda = 1 - det and chi^rho is 1 on the
    trivial character, -1 on det and 0 on every other.  A reflection fixes
    two points of the circle: the stratified sum is skipped."""
    gens = [[*range(1, n), 0], [(-i) % n for i in range(n)]]
    G = group_from_permutations(gens)
    assert G.order == 2 * n
    expected = linear_closed_form(G, lambda perm: 1 - circle_lefschetz(perm), -1)
    assert paired(G, circle_lefschetz) == expected
    assert_skipped_with_oracle(tmp_path, capsys, gens, [[i, (i + 1) % n] for i in range(n)], expected)
