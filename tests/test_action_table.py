"""The integer action table and the orbit walk against plain vertex-map
references, the frozen texts of `build_gcomplex` failures and of the
stratification checks, and known answers under equivariant subdivision up to
about 10^4 simplices."""

import json
import random
from itertools import combinations, permutations

import pytest

from equichi import (
    DefectError,
    SimplicialComplex,
    ValidationError,
    build_gcomplex,
    character_table,
    corpus,
    group_from_permutations,
    is_regular,
    orbit_space,
    orbit_type_stratification,
    regularize,
    verify_strata_vs_oracle,
)
from equichi.cli import main
from equichi.gcomplex import GComplex
from equichi.jsonio import group_from_json
from equichi.lefschetz import lefschetz_number_fixed, lefschetz_number_trace

# ---------------------------------------------------------------------------
# actions as plain data: maximal simplices plus one vertex map per generator


def closure(maximal):
    return sorted(
        {f for s in maximal for r in range(1, len(s) + 1) for f in combinations(s, r)},
        key=lambda s: (len(s), s),
    )


def subdivide(maximal, maps):
    """Equivariant barycentric subdivision: one vertex per simplex, maximal
    simplices are the full flags of the old maximal simplices."""
    ids = {s: i for i, s in enumerate(closure(maximal))}
    flags = [
        tuple(ids[tuple(sorted(order[: k + 1]))] for k in range(len(s)))
        for s in maximal
        for order in permutations(s)
    ]
    new_maps = [{i: ids[tuple(sorted(m[v] for v in s))] for s, i in ids.items()} for m in maps]
    return flags, new_maps


def relabel(maximal, maps, rng):
    """The same action on vertex ids drawn at random from [100, 100 + 5V)."""
    old = sorted({v for s in maximal for v in s})
    p = dict(zip(old, rng.sample(range(100, 100 + 5 * len(old)), len(old))))
    return (
        [tuple(p[v] for v in s) for s in maximal],
        [{p[v]: p[w] for v, w in m.items()} for m in maps],
    )


def build(G, maximal, maps):
    K = SimplicialComplex.from_maximal(maximal)
    return build_gcomplex(K, G, maps)


def corpus_action(cid):
    doc = json.loads(corpus.read_corpus_bytes(cid).decode("utf-8"))
    G = group_from_json(doc["group"])
    maximal = [tuple(s) for s in doc["complex"]["maximal_simplices"]]
    verts = sorted({v for s in maximal for v in s})
    maps = [
        {int(k): v for k, v in img.items()} if isinstance(img, dict) else dict(zip(verts, img))
        for img in doc["complex"]["action"]["generator_images"]
    ]
    return G, maximal, maps


def suspended_polygon(n):
    gen = [(i + 1) % n for i in range(n)] + [n, n + 1]
    faces = [(i, (i + 1) % n, pole) for i in range(n) for pole in (n, n + 1)]
    return [gen], faces


# the rotation groups of the tetrahedron (A4), octahedron (S4) and
# icosahedron (A5), and C8 / C12 rotating a suspended polygon
ROTATION_ACTIONS = {
    "a4-tetrahedron": ([[1, 2, 0, 3], [1, 0, 3, 2]], list(combinations(range(4), 3))),
    "s4-octahedron": (
        [[2, 3, 1, 0, 4, 5], [0, 1, 4, 5, 3, 2]],
        [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)],
    ),
    "a5-icosahedron": (
        [[0, 2, 6, 8, 10, 7, 5, 1, 4, 9, 11, 3], [2, 0, 1, 5, 3, 4, 8, 6, 7, 11, 9, 10]],
        [(0, 1, 2), (0, 1, 7), (0, 2, 6), (0, 5, 6), (0, 5, 7), (1, 2, 8), (1, 3, 7),
         (1, 3, 8), (2, 4, 6), (2, 4, 8), (3, 7, 11), (3, 8, 9), (3, 9, 11), (4, 6, 10),
         (4, 8, 9), (4, 9, 10), (5, 6, 10), (5, 7, 11), (5, 10, 11), (9, 10, 11)],
    ),
    "c8-suspension": suspended_polygon(8),
    "c12-suspension": suspended_polygon(12),
}


def parity_actions():
    rng = random.Random(2024)
    for cid in corpus.case_ids():
        G, maximal, maps = corpus_action(cid)
        for level in range(3):
            yield pytest.param(G, *relabel(maximal, maps, rng), id=f"{cid}:sd{level}")
            maximal, maps = subdivide(maximal, maps)
    for name, (gens, faces) in ROTATION_ACTIONS.items():
        G = group_from_permutations(gens)
        yield pytest.param(G, *relabel(faces, [dict(enumerate(g)) for g in gens], rng), id=name)


# ---------------------------------------------------------------------------
# the plain reference: vertex maps only, one simplex and one element at a time


class Reference:
    """Every image and every pointwise stabilizer, from the vertex maps."""

    def __init__(self, X):
        n = X.group.order
        self.images = {
            s: [tuple(sorted(X.action[g][v] for v in s)) for g in range(n)]
            for s in X.complex.simplices
        }
        self.isotropy = {
            s: tuple(g for g in range(n) if all(X.action[g][v] == v for v in s))
            for s in X.complex.simplices
        }


def ref_class_rep(G, elems):
    return min(tuple(sorted(G.conjugate(g, a) for a in elems)) for g in range(G.order))


def check_action(X, ref):
    G = X.group
    for s in X.complex.sorted_simplices():
        assert [X.apply(g, s) for g in range(G.order)] == ref.images[s]
        assert X.orbit(s) == frozenset(ref.images[s])
        assert X.isotropy(s).elements == ref.isotropy[s]
    # a vertex tuple outside the complex is mapped through the vertex maps
    v, w = X.complex.vertices[0], X.complex.vertices[-1]
    outside = (v, w) if (v, w) not in X.complex else (w, v)
    for g in range(G.order):
        assert X.apply(g, outside) == tuple(sorted(X.action[g][u] for u in outside))
    assert X.isotropy(outside).elements == tuple(
        g for g in range(G.order) if X.action[g][v] == v and X.action[g][w] == w
    )


def check_lefschetz(R, ref):
    G = R.group
    for g in range(G.order):
        trace = sum(
            (-1) ** (len(s) - 1) for s, images in ref.images.items() if images[g] == s
        )
        powers = {G.identity}
        x = g
        while x != G.identity:
            powers.add(x)
            x = G.mul(x, g)
        fixed = sum(
            (-1) ** (len(s) - 1)
            for s, iso in ref.isotropy.items()
            if powers <= set(iso)
        )
        assert lefschetz_number_trace(R, g) == trace
        assert lefschetz_number_fixed(R, g) == fixed


def check_stratification(R, ref):
    G = R.group
    by_iso = {}
    for s, iso in ref.isotropy.items():
        by_iso.setdefault(iso, set()).add(s)
    by_class = {}
    for iso, simplices in by_iso.items():
        by_class.setdefault(ref_class_rep(G, iso), set()).update(simplices)
    st = orbit_type_stratification(R)
    assert [s.isotropy.elements for s in st.strata] == sorted(
        by_class, key=lambda rep: (len(rep), rep)
    )
    for stratum in st.strata:
        assert stratum.simplices == by_class[stratum.isotropy.elements]
        covered = set()
        for comp in stratum.components:
            swept = {
                image
                for pid in comp.piece_indices
                for s in stratum.pieces[pid]
                for image in ref.images[s]
            }
            assert comp.simplices == swept & stratum.simplices
            assert comp.dim == max(len(s) for s in swept) - 1
            covered |= comp.simplices
        assert covered == stratum.simplices
        for n, perm in stratum.piece_action.items():
            for i, piece in enumerate(stratum.pieces):
                target = stratum.pieces[perm[i]]
                assert all(ref.images[s][n] in target for s in piece)


def check_orbit_space(R):
    orbit_of = {}
    for v in R.complex.vertices:
        orbit_of.setdefault(v, frozenset(R.action[g][v] for g in range(R.group.order)))
    labels = sorted({min(o) for o in orbit_of.values()})
    quotient_id = {v: labels.index(min(o)) for v, o in orbit_of.items()}
    Q = orbit_space(R)
    assert Q.vertex_orbit == quotient_id
    assert Q.complex.simplices == frozenset(
        tuple(sorted(quotient_id[v] for v in s)) for s in R.complex.simplices
    )


@pytest.mark.parametrize("G, maximal, maps", list(parity_actions()))
def test_table_matches_vertex_map_reference(G, maximal, maps):
    X = build(G, maximal, maps)
    check_action(X, Reference(X))
    R = regularize(X)
    ref = Reference(R)
    check_action(R, ref)
    check_lefschetz(R, ref)
    check_stratification(R, ref)
    check_orbit_space(R)


# ---------------------------------------------------------------------------
# regularity and the orbit space against a brute-force reference


def reference_regularity(X):
    """(a) on every simplex x element and (b) on every simplex-orbit image,
    from the vertex maps alone: the verdict, the vertex -> quotient vertex
    map and the quotient simplices."""
    n = X.group.order

    def image(g, s):
        return tuple(sorted(X.action[g][v] for v in s))

    pointwise = all(
        all(X.action[g][v] == v for v in s)
        for s in X.complex.simplices
        for g in range(n)
        if image(g, s) == s
    )
    least = {v: min(X.action[g][v] for g in range(n)) for v in X.complex.vertices}
    labels = sorted(set(least.values()))
    quotient_id = {v: labels.index(o) for v, o in least.items()}
    orbits = {frozenset(image(g, s) for g in range(n)) for s in X.complex.simplices}
    images = [tuple(sorted(quotient_id[v] for v in min(orbit))) for orbit in orbits]
    faithful = all(len(set(img)) == len(img) for img in images) and len(set(images)) == len(images)
    return pointwise and faithful, quotient_id, frozenset(images)


def check_regularity(X):
    regular, quotient_id, images = reference_regularity(X)
    assert is_regular(X) == regular
    flagged = GComplex(X.complex, X.group, X.action, regular=True)
    if not regular:
        with pytest.raises(DefectError):
            orbit_space(flagged)
        return
    for Q in (orbit_space(flagged), orbit_space(regularize(X))):
        assert Q.vertex_orbit == quotient_id
        assert Q.complex.simplices == images


@pytest.mark.parametrize("G, maximal, maps", list(parity_actions()))
def test_orbit_walk_matches_brute_force_reference(G, maximal, maps):
    X = build(G, maximal, maps)
    check_regularity(X)
    check_regularity(regularize(X))


S3 = [[1, 0, 2], [0, 2, 1]]

# actions that fail regularity, each named for what fails
NON_REGULAR_ACTIONS = {
    # (a) and (b): the edge is mapped to itself, its ends swapped
    "flipped-edge": ([[1, 0]], [[0, 1]], [[1, 0]]),
    # a fixed edge comes first; the flipped edge is walked later
    "flipped-second-edge": ([[1, 0, 3, 2]], [[0, 1], [2, 3]], [[0, 1, 3, 2]]),
    # element 1 flips the edge (1, 2) alone, which is not the first simplex of
    # its orbit; the walk probes (0, 1), flipped by a conjugate of element 1
    "s3-triangle-boundary": (S3, [[0, 1], [1, 2], [0, 2]], S3),
    # (b) only: no simplex is mapped to itself, but each edge has both ends
    # in the one vertex orbit
    "rotated-triangle-boundary": ([[1, 2, 0]], [[0, 1], [1, 2], [0, 2]], [[1, 2, 0]]),
    # (b) only: the two edge orbits of the square share their image
    "half-turn-square": ([[2, 3, 0, 1]], [[0, 1], [1, 2], [2, 3], [0, 3]], [[2, 3, 0, 1]]),
}


@pytest.mark.parametrize("name", list(NON_REGULAR_ACTIONS))
def test_orbit_walk_matches_reference_on_non_regular_actions(name):
    gens, maximal, images = NON_REGULAR_ACTIONS[name]
    G = group_from_permutations(gens)
    X = build_gcomplex(SimplicialComplex.from_maximal(maximal), G, images)
    assert not reference_regularity(X)[0]
    check_regularity(X)
    check_regularity(regularize(X))


def test_s3_case_violates_regularity_away_from_the_orbit_probe():
    gens, maximal, images = NON_REGULAR_ACTIONS["s3-triangle-boundary"]
    G = group_from_permutations(gens)
    X = build_gcomplex(SimplicialComplex.from_maximal(maximal), G, images)
    assert X.apply(1, (1, 2)) == (1, 2) and X.action[1][1] == 2
    assert X.apply(1, (0, 1)) != (0, 1)
    assert min(X.orbit((1, 2))) == (0, 1)


# ---------------------------------------------------------------------------
# the stratification checks keep their texts, reached from `verify`

STRATIFICATION_FAILURES = {
    # C2 swapping 0 and 1 on a triangle, beside a fixed isolated vertex
    "not-dense": (
        [[1, 0, 2, 3]],
        [[0, 1, 2], [3]],
        "principal stratum is not dense: some simplex is not a face of a principal simplex",
    ),
    # the Klein four group on two disjoint edges: each generator fixes one
    # edge and flips the other
    "two-minima": (
        [[0, 1, 3, 2], [1, 0, 2, 3]],
        [[0, 1], [2, 3]],
        "no unique principal orbit type: isotropy classes (0, 1) and (0, 2) "
        "are incomparable minima",
    ),
}


@pytest.mark.parametrize("name", list(STRATIFICATION_FAILURES))
def test_stratification_failures_keep_their_texts(tmp_path, capsys, name):
    gens, maximal, text = STRATIFICATION_FAILURES[name]
    G = group_from_permutations(gens)
    X = build_gcomplex(SimplicialComplex.from_maximal(maximal), G, gens)
    with pytest.raises(ValidationError) as err:
        orbit_type_stratification(regularize(X))
    assert str(err.value) == text
    gpath, cpath = tmp_path / "group.json", tmp_path / "complex.json"
    gpath.write_text(json.dumps({"permutation_generators": gens}))
    cpath.write_text(json.dumps({"maximal_simplices": maximal, "action": {"generator_images": gens}}))
    code = main(["verify", "--group", str(gpath), "--complex", str(cpath)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {text}\n")


# ---------------------------------------------------------------------------
# build_gcomplex failures keep their witnesses

TRIANGLE_BOUNDARY = SimplicialComplex.from_maximal([[10, 20], [20, 30], [10, 30]])
PATH = SimplicialComplex.from_maximal([[5, 7], [7, 9]])
FULL_TRIANGLE = SimplicialComplex.from_maximal([[1, 2, 3]])
C2 = [[1, 0]]


def test_non_homomorphism_names_the_first_failing_pair():
    G = group_from_permutations([[1, 2, 0]])
    with pytest.raises(ValidationError) as err:
        build_gcomplex(TRIANGLE_BOUNDARY, G, [[20, 10, 30]])
    assert str(err.value) == (
        "generator images do not define a group action "
        "(homomorphism fails at elements 1, 2)"
    )


def test_image_outside_the_complex_names_the_simplex():
    G = group_from_permutations(C2)
    with pytest.raises(ValidationError) as err:
        build_gcomplex(PATH, G, [[7, 5, 9]])
    assert str(err.value) == (
        "non-simplicial map: element 1 sends simplex (7, 9) to (5, 9), "
        "which is not a simplex of the complex"
    )


def test_collapsed_simplex_is_named():
    # generator images are checked to be vertex bijections first, so only a
    # hand-built action can collapse a simplex; its table build is the check
    G = group_from_permutations(C2)
    X = GComplex(FULL_TRIANGLE, G, {0: {1: 1, 2: 2, 3: 3}, 1: {1: 1, 2: 1, 3: 3}})
    with pytest.raises(ValidationError) as err:
        X.table
    assert str(err.value) == "non-simplicial map: element 1 collapses simplex (1, 2)"


def test_image_of_a_generator_must_be_the_map_it_acts_by():
    # the identity permutation is generator 0 here; a swap given as its
    # image contradicts e*e = e, although the other image alone is an action
    G = group_from_permutations([[0, 1], [1, 0]])
    edge = SimplicialComplex.from_maximal([[0, 1]])
    with pytest.raises(ValidationError, match="the image given for element 0 differs"):
        build_gcomplex(edge, G, [[1, 0], [1, 0]])
    assert build_gcomplex(edge, G, [[0, 1], [1, 0]]).action[1] == {0: 1, 1: 0}


# ---------------------------------------------------------------------------
# known answers: equivariant subdivision leaves chi^rho unchanged


CHI_RHO = {
    "s2-identity": (2,),
    "s2-pi-rotation": (0, 2),
    "s2-order4-rotation": (0, 0, 0, 2),
    "s2-klein-four": (0, 0, 0, 2),
    "s2-antipodal": (1, 1),
    "s2-reflection": None,  # the codimension guard skips it
    "square-trivial": (0, 1),
    "interval-trivial": (1,),
    "torus-involution": (-2, 2),
}


def test_subdivision_ladder_keeps_chi_rho():
    rng = random.Random(7)
    sizes = []
    for cid, expected in CHI_RHO.items():
        G, maximal, maps = corpus_action(cid)
        for level in range(4):
            report = verify_strata_vs_oracle(build(G, *relabel(maximal, maps, rng)))
            if expected is None:
                assert report.skipped is not None, (cid, level)
                assert "codimension 1 < 2" in report.skipped
            else:
                assert report.skipped is None, (cid, level)
                assert report.all_match and report.totals_consistent, (cid, level)
                assert tuple(r.formula for r in report.rows) == expected, (cid, level)
                assert len(report.rows) == len(character_table(G))
            if level < 3:
                maximal, maps = subdivide(maximal, maps)
        sizes.append(len(closure(maximal)))
    assert max(sizes) > 10**4
