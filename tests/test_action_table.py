"""The integer action table and the orbit table against plain vertex-map
references, the frozen texts of `build_gcomplex` failures and of the
stratification checks, and known answers under equivariant subdivision up to
about 10^4 simplices."""

import ast
import json
import random
from collections import Counter
from functools import cached_property
from itertools import combinations, permutations
from pathlib import Path

import pytest

from equichi import (
    CodimensionError,
    DefectError,
    SimplicialComplex,
    Subgroup,
    ValidationError,
    build_gcomplex,
    character_table,
    corpus,
    equivariant_multiplicities,
    euler_characteristic,
    euler_of_complex,
    fixed_subcomplex,
    group_from_permutations,
    is_regular,
    orbit_space,
    orbit_type_stratification,
    orientation_character,
    regularize,
    verify_strata_vs_oracle,
)
from equichi import strataformula
from equichi.cli import main
from equichi.gcomplex import GComplex, _subdivide
from equichi.jsonio import group_from_json
from equichi.groups import all_subgroups
from equichi.lefschetz import lefschetz_number_fixed, lefschetz_number_trace
from equichi.strataformula import strata_geometry
from test_known_answers import B3, OCTAHEDRON_FACETS, generators
from test_report_digests import DIGESTS, report_digests

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


def vertex_maps(X):
    """Per element, the vertex map on vertex ids read off its row of vertex
    positions; build it once per complex, not inside a comprehension."""
    V = X.complex.vertices
    return [dict(zip(V, map(V.__getitem__, row))) for row in X.vertex_perm]


class Reference:
    """Every image and every pointwise stabilizer, from the vertex maps."""

    def __init__(self, X):
        n = X.group.order
        self.maps = maps = vertex_maps(X)
        self.images = {
            s: [tuple(sorted(maps[g][v] for v in s)) for g in range(n)]
            for s in X.complex.simplices
        }
        self.isotropy = {
            s: tuple(g for g in range(n) if all(maps[g][v] == v for v in s))
            for s in X.complex.simplices
        }


def ref_class_rep(G, elems):
    return min(tuple(sorted(G.conjugate(g, a) for a in elems)) for g in range(G.order))


def simplices_at(K, positions):
    return frozenset(map(K.order.__getitem__, positions))


def check_action(X, ref):
    """Per position, the image under every element, the orbit and the
    isotropy, read off the simplex rows, the orbit table and the fixer masks."""
    order = X.complex.order
    V = len(X.complex.vertices)
    # the vertex layer of each simplex row is the stored row itself
    assert all(p[:V] == row for p, row in zip(X.perm, X.vertex_perm))
    orbits = {}
    for i, label in enumerate(X.orbit_of):
        orbits.setdefault(label, set()).add(order[i])
    for i, s in enumerate(order):
        assert [order[p[i]] for p in X.perm] == ref.images[s]
        assert orbits[X.orbit_of[i]] == set(ref.images[s])
        assert X._subgroup_of_mask(X.masks[i]).elements == ref.isotropy[s]


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


def face_components(simplices):
    """Components of a set of open simplices under all-faces adjacency: a
    union-find joining each member to every proper face of it in the set,
    listed by least simplex in (dimension, vertex tuple) order."""
    members = sorted(simplices, key=lambda s: (len(s), s))
    parent = {s: s for s in members}

    def find(s):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    for t in members:
        for r in range(1, len(t)):
            for f in combinations(t, r):
                if f in parent:
                    parent[find(t)] = find(f)
    groups = {}
    for s in members:
        groups.setdefault(find(s), set()).add(s)
    comps = [frozenset(g) for g in groups.values()]
    return tuple(sorted(comps, key=lambda c: min((len(s), s) for s in c)))


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
        simplices = simplices_at(R.complex, stratum.members)
        assert simplices == by_class[stratum.isotropy.elements]
        # pieces join along facets; the exact-isotropy set holds every
        # simplex between two of its members, so that is face adjacency
        exact = by_iso[stratum.isotropy.elements]
        pieces = tuple(simplices_at(R.complex, p) for p in stratum.piece_positions)
        assert pieces == face_components(exact)
        covered = set()
        for comp in stratum.components:
            swept = {
                image
                for pid in comp.piece_indices
                for s in pieces[pid]
                for image in ref.images[s]
            }
            assert simplices_at(R.complex, comp.swept) == swept & simplices
            assert comp.dim == max(len(s) for s in swept) - 1
            covered |= simplices_at(R.complex, comp.swept)
        assert covered == simplices
        for n, perm in stratum.piece_action.items():
            for i, piece in enumerate(pieces):
                target = pieces[perm[i]]
                assert all(ref.images[s][n] in target for s in piece)


def check_orbit_space(R, ref):
    orbit_of = {}
    for v in R.complex.vertices:
        orbit_of.setdefault(v, frozenset(m[v] for m in ref.maps))
    labels = sorted({min(o) for o in orbit_of.values()})
    quotient_id = {v: labels.index(min(o)) for v, o in orbit_of.items()}
    Q = orbit_space(R)
    assert Q.vertex_orbit == quotient_id
    assert Q.complex.simplices == frozenset(
        tuple(sorted(quotient_id[v] for v in s)) for s in R.complex.simplices
    )
    # the Euler numbers of the quotient, counted on simplex positions,
    # against the projected simplices
    st = orbit_type_stratification(R)
    for stratum in st.strata:
        for c in stratum.components:
            assert c.closure_euler == euler_characteristic(Q.project(c.closure))
            assert c.lower_euler == euler_characteristic(Q.project(c.lower))
    singular = {R.complex.order[i] for stratum in st.singular for i in stratum.members}
    try:
        geometry = strata_geometry(R)
    except CodimensionError:
        assert any(c.codim < 2 for stratum in st.singular for c in stratum.components)
    else:
        assert geometry.principal_relative == (
            euler_of_complex(Q.complex) - euler_characteristic(Q.project(singular))
        )
    for H in all_subgroups(R.group):
        fixed = fixed_subcomplex(R, H)
        assert fixed.euler_characteristic() == sum((-1) ** (len(s) - 1) for s in fixed.simplices)


@pytest.mark.parametrize("G, maximal, maps", list(parity_actions()))
def test_table_matches_vertex_map_reference(G, maximal, maps):
    X = build(G, maximal, maps)
    check_action(X, Reference(X))
    R = regularize(X)
    ref = Reference(R)
    check_action(R, ref)
    check_lefschetz(R, ref)
    check_stratification(R, ref)
    check_orbit_space(R, ref)


# ---------------------------------------------------------------------------
# regularity and the orbit space against a brute-force reference


def reference_regularity(X):
    """(a) on every simplex x element and (b) on every simplex-orbit image,
    from the vertex maps alone: the verdict, the vertex -> quotient vertex
    map and the quotient simplices.  Asserts that (b) implies (a)."""
    n = X.group.order
    maps = vertex_maps(X)

    def image(g, s):
        return tuple(sorted(maps[g][v] for v in s))

    pointwise = all(
        all(maps[g][v] == v for v in s)
        for s in X.complex.simplices
        for g in range(n)
        if image(g, s) == s
    )
    least = {v: min(m[v] for m in maps) for v in X.complex.vertices}
    labels = sorted(set(least.values()))
    quotient_id = {v: labels.index(o) for v, o in least.items()}
    orbits = {frozenset(image(g, s) for g in range(n)) for s in X.complex.simplices}
    images = [tuple(sorted(quotient_id[v] for v in min(orbit))) for orbit in orbits]
    faithful = all(len(set(img)) == len(img) for img in images) and len(set(images)) == len(images)
    # the walk checks (b) alone: every (a) failure must also be a (b) failure
    assert pointwise or not faithful
    return pointwise and faithful, quotient_id, frozenset(images)


def check_regularity(X):
    regular, quotient_id, images = reference_regularity(X)
    assert is_regular(X) == regular
    if not regular:
        with pytest.raises(ValidationError, match="^operation requires a regularized complex$"):
            orbit_space(X)
        return
    assert regularize(X) is X
    Q = orbit_space(X)
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


class ReportsRegular(GComplex):
    """A test double whose verdict reports the action regular, whatever the
    orbit table's probe finds.  The trace and fixed-set Lefschetz routes read
    `perm` and the fixer masks, never the verdict, so the dual-route check
    still sees the action as it is."""

    faithful = True


# what `verify_strata_vs_oracle` raises on each action above whose two
# Lefschetz routes disagree, once the action is flagged regular by the double
LEFSCHETZ_DISAGREEMENTS = {
    "flipped-edge": "Lefschetz number disagreement at element 1: trace -1 vs fixed-set 0",
    "flipped-second-edge": "Lefschetz number disagreement at element 1: trace 0 vs fixed-set 1",
    "s3-triangle-boundary": "Lefschetz number disagreement at element 1: trace 0 vs fixed-set 1",
}


# what `verify_strata_vs_oracle` makes of each action above, given
# unregularized: (subdivisions, oracle chi_rho, whether the codimension guard
# skips the stratified route), or the text it fails with
UNREGULARIZED_VERIFY = {
    # the midpoint of the edge is fixed: a stratum of codimension 1
    "flipped-edge": (1, (0, 1), True),
    # the fixed edge is a face of no principal simplex
    "flipped-second-edge": (
        "principal stratum is not dense: some simplex is not a face of a principal simplex"
    ),
    # each reflection fixes a vertex and the midpoint of the opposite edge
    "s3-triangle-boundary": (1, (-1, 1, 0), True),
    "rotated-triangle-boundary": (2, (0, 0, 0), False),
    "half-turn-square": (1, (0, 0), False),
}


@pytest.mark.parametrize("name", list(NON_REGULAR_ACTIONS))
def test_stratified_route_rejects_non_regular_actions_flagged_regular(name):
    """Unregularized, the stratification and the orbit space reject the
    action and `verify` regularizes it first; flagged regular, an action
    whose Lefschetz routes disagree fails the dual-route check."""
    gens, maximal, images = NON_REGULAR_ACTIONS[name]
    G = group_from_permutations(gens)
    X = build_gcomplex(SimplicialComplex.from_maximal(maximal), G, images)
    for run in (strata_geometry, orbit_space):
        with pytest.raises(ValidationError) as err:
            run(X)
        assert str(err.value) == "operation requires a regularized complex"
    expected = UNREGULARIZED_VERIFY[name]
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            verify_strata_vs_oracle(X)
        assert str(err.value) == expected
    else:
        subdivisions, chi_rho, skipped = expected
        report = verify_strata_vs_oracle(X)
        assert report.subdivisions == subdivisions
        assert equivariant_multiplicities(regularize(X)).chi_rho == chi_rho
        if skipped:
            assert report.rows == () and report.skipped is not None
        else:
            assert report.all_match and tuple(r.oracle for r in report.rows) == chi_rho
    flagged = ReportsRegular(X.complex, X.group, X.vertex_perm)
    assert is_regular(flagged) and regularize(flagged) is flagged
    if name in LEFSCHETZ_DISAGREEMENTS:
        with pytest.raises(DefectError) as err:
            verify_strata_vs_oracle(flagged)
        assert type(err.value) is DefectError
        assert str(err.value) == LEFSCHETZ_DISAGREEMENTS[name]


def ladder_actions():
    """Every corpus case and every rotation action at sd^0, sd^1 and sd^2,
    relabelled at each rung, whether the rung is regular or not."""
    rng = random.Random(2025)
    actions = [(cid, *corpus_action(cid)) for cid in corpus.case_ids()]
    for name, (gens, faces) in ROTATION_ACTIONS.items():
        maximal = [tuple(sorted(f)) for f in faces]
        actions.append((name, group_from_permutations(gens), maximal, [dict(enumerate(g)) for g in gens]))
    for name, G, maximal, maps in actions:
        for level in range(3):
            yield pytest.param(G, *relabel(maximal, maps, rng), id=f"{name}:sd{level}")
            maximal, maps = subdivide(maximal, maps)


@pytest.mark.parametrize("G, maximal, maps", list(ladder_actions()))
def test_orbit_table_matches_brute_force_reference(G, maximal, maps):
    X = build(G, maximal, maps)
    index, by_element = X.complex.index, vertex_maps(X)
    least = [min(index[tuple(sorted(m[v] for v in s))] for m in by_element) for s in X.complex.order]
    assert X.orbit_of == least
    orbits = {tuple(sorted({m[v] for m in by_element})) for v in X.complex.vertices}
    assert X.vertex_orbits() == tuple(sorted(orbits))
    assert is_regular(X) == reference_regularity(X)[0]


def count_orbit_tables(monkeypatch):
    """Record every complex whose orbit table is built from here on."""
    built = []
    table = GComplex.__dict__["orbit_of"]

    def counted(self):
        built.append(self)
        return table.func(self)

    prop = cached_property(counted)
    prop.__set_name__(GComplex, "orbit_of")
    monkeypatch.setattr(GComplex, "orbit_of", prop)
    return built


def b3_slice():
    """One subgroup from each conjugacy class of B_3, acting on the octahedron."""
    B = group_from_permutations(B3)
    classes = {H.canonical_class_representative().elements: H for H in all_subgroups(B)}
    for H in classes.values():
        perms = [B.perms[h] for h in generators(H)] or [B.perms[B.identity]]
        yield group_from_permutations(perms), OCTAHEDRON_FACETS, perms


def test_components_read_one_orbit_table_per_complex(monkeypatch):
    """The components group pieces on the orbit table, without the piece
    action, and every orbit question on a complex reads one table."""
    gens, faces = ROTATION_ACTIONS["a5-icosahedron"]
    actions = [(group_from_permutations(gens), faces, gens), *b3_slice()]
    assert len(actions) == 34
    built = count_orbit_tables(monkeypatch)
    for G, maximal, images in actions:
        R = regularize(build_gcomplex(SimplicialComplex.from_maximal(maximal), G, images))
        st = orbit_type_stratification(R)
        for stratum in st.strata:
            assert stratum.open_euler == sum(c.closure_euler - c.lower_euler for c in stratum.components)
            assert "piece_action" not in vars(stratum)
            for c in stratum.components:
                orbit = {stratum.piece_action[n][c.piece_indices[0]] for n in stratum.piece_action}
                assert orbit == set(c.piece_indices)
        assert is_regular(R) and orbit_space(R).vertex_orbit
        assert R.vertex_orbits() and R in built
    assert len(built) >= 35 and set(Counter(map(id, built)).values()) == {1}


# ---------------------------------------------------------------------------
# simplex rows from the per-layer join against the sort-and-lookup they replace


def sort_and_lookup_rows(X):
    """Every element's simplex row as it was built before the join: the
    sorted image of each simplex under the vertex map, looked up in `index`."""
    index, order = X.complex.index, X.complex.order
    return tuple(tuple(index[tuple(sorted(m[v] for v in s))] for s in order) for m in vertex_maps(X))


def b3_actions():
    for k, (G, maximal, images) in enumerate(b3_slice()):
        yield pytest.param(G, maximal, images, id=f"b3-class{k}-order{G.order}")


@pytest.mark.parametrize("G, maximal, maps", [*ladder_actions(), *b3_actions()])
def test_join_rows_match_sort_and_lookup(G, maximal, maps):
    X = build(G, maximal, maps)
    assert X.perm == sort_and_lookup_rows(X)
    if len(X.complex) < 100:  # every B_3 case and the small ladder rungs
        # a subdivision's vertex rows are its parent's simplex rows
        sd = _subdivide(X)
        assert sd.perm == sort_and_lookup_rows(sd)


def test_b3_actions_cover_the_33_classes():
    assert len(list(b3_actions())) == 33


def record_complexes(monkeypatch):
    """Record every complex constructed from here on."""
    built = []
    construct = SimplicialComplex.__init__

    def recorded(self, simplices):
        construct(self, simplices)
        built.append(self)

    monkeypatch.setattr(SimplicialComplex, "__init__", recorded)
    return built


def test_verify_and_strata_build_no_simplex_tuple(tmp_path, monkeypatch):
    """Both routes, and every stratification count that `strata` reports,
    run on positions: no complex on the way builds `order` or `index`."""
    built = record_complexes(monkeypatch)
    for cid in corpus.case_ids():
        G, maximal, maps = corpus_action(cid)
        for level in range(4):
            built.clear()
            report = verify_strata_vs_oracle(build(G, maximal, maps))
            assert len(built) == 1 + report.subdivisions
            assert [vars(K).keys() & {"order", "index"} for K in built] == [set()] * len(built), f"{cid}:sd{level}"
            maximal, maps = subdivide(maximal, maps)
    built.clear()
    digests = report_digests(tmp_path)
    assert digests == json.loads(DIGESTS.read_text())
    assert built and not any(vars(K).keys() & {"order", "index"} for K in built)


GCOMPLEX_SOURCE = Path(__file__).resolve().parent.parent / "src" / "equichi" / "gcomplex.py"

# every function or method of `gcomplex` that reads a complex's vertex
# tuples (`order`, `index` or `simplices`), and why it may
TUPLE_READERS = {
    "_raise_non_simplicial": "the witness rescan names the first failing simplex in canonical order",
    "FixedSubcomplex.simplices": "the README documents fixed_subcomplex",
    "FixedSubcomplex.components": "the README documents fixed_subcomplex",
    "StratumComponent.closure": "the benchmark projects it into the orbit space",
    "StratumComponent.lower": "the benchmark projects it into the orbit space",
    "orbit_space": "the README documents the quotient, built on vertex tuples",
    "orientation_character": "the orientation diagnostic, which the benchmark times",
}


def attribute_reads(tree, names):
    """(qualified name of the enclosing function, owner expression) for each
    read of an attribute in `names` that is not called as a method."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr in names and id(child) not in called:
                reads.append((".".join(scope), ast.unparse(child.value)))
            visit(child, scope)

    visit(tree, [])
    return reads


def test_only_the_listed_functions_read_vertex_tuples():
    """A complex in `gcomplex` is `K`, `complex` or an attribute `complex`,
    and a group `G`, `group` or an attribute `group`; a read of either kind
    of owner under another name fails here rather than go unlisted."""
    reads = attribute_reads(ast.parse(GCOMPLEX_SOURCE.read_text()), {"order", "index", "simplices"})
    on_complex = {"K", "complex"}
    on_group = {"G", "group"}
    owners = {owner for _, owner in reads}
    assert all(o.split(".")[-1] in on_complex | on_group for o in owners), owners
    readers = {scope for scope, owner in reads if owner.split(".")[-1] in on_complex}
    assert readers == set(TUPLE_READERS)


# ---------------------------------------------------------------------------
# a join that misses falls through to the rescan, which names the witness


def cli_error(tmp_path, capsys, gens, maximal, images):
    """The first line of what `verify` prints for an action it rejects."""
    gpath, cpath = tmp_path / "group.json", tmp_path / "complex.json"
    gpath.write_text(json.dumps({"permutation_generators": gens}))
    cpath.write_text(json.dumps({"maximal_simplices": maximal, "action": {"generator_images": images}}))
    assert main(["verify", "--group", str(gpath), "--complex", str(cpath)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    return err.splitlines()[0][len("error: ") :]


def test_triangle_sent_onto_a_hollow_one_is_named(tmp_path, capsys):
    """Every edge goes to an edge, but the filled triangle goes to the hollow
    one: the join finds the edges and misses the triangle."""
    text = (
        "non-simplicial map: element 1 sends simplex (1, 2, 3) to (4, 5, 6), "
        "which is not a simplex of the complex"
    )
    maximal, swap = [[1, 2, 3], [4, 5], [5, 6], [4, 6]], [4, 5, 6, 1, 2, 3]
    G = group_from_permutations(C2)
    with pytest.raises(ValidationError) as err:
        build_gcomplex(SimplicialComplex.from_maximal(maximal), G, [swap])
    assert str(err.value) == text
    assert cli_error(tmp_path, capsys, C2, maximal, [swap]) == text


def test_collapsed_tetrahedron_is_named(tmp_path, capsys):
    """Vertex 4 goes to 3, collapsing the tetrahedron, two of its triangles
    and the edge (3, 4), which comes first in canonical order."""
    tetrahedron = SimplicialComplex.from_maximal([[1, 2, 3, 4]])
    X = GComplex(tetrahedron, group_from_permutations(C2), ((0, 1, 2, 3), (0, 1, 2, 2)))
    with pytest.raises(ValidationError) as err:
        X.perm
    assert str(err.value) == "non-simplicial map: element 1 collapses simplex (3, 4)"
    # as generator images, such a map is rejected before any row is built
    text = cli_error(tmp_path, capsys, C2, [[1, 2, 3, 4]], [[1, 2, 3, 3]])
    assert text == "generator image is not a vertex bijection"


def test_s3_case_violates_regularity_away_from_the_orbit_probe():
    gens, maximal, images = NON_REGULAR_ACTIONS["s3-triangle-boundary"]
    G = group_from_permutations(gens)
    X = build_gcomplex(SimplicialComplex.from_maximal(maximal), G, images)
    index = X.complex.index
    assert X.perm[1][index[(1, 2)]] == index[(1, 2)] and vertex_maps(X)[1][1] == 2
    assert X.perm[1][index[(0, 1)]] != index[(0, 1)]
    assert X.orbit_of[index[(1, 2)]] == index[(0, 1)]


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
    # hand-built action can collapse a simplex; building its rows is the check
    G = group_from_permutations(C2)
    # vertices 1, 2, 3 sit at positions 0, 1, 2; element 1 sends 2 to 1
    X = GComplex(FULL_TRIANGLE, G, ((0, 1, 2), (0, 0, 2)))
    with pytest.raises(ValidationError) as err:
        X.perm
    assert str(err.value) == "non-simplicial map: element 1 collapses simplex (1, 2)"


def test_image_of_a_generator_must_be_the_map_it_acts_by():
    # the identity permutation is generator 0 here; a swap given as its
    # image contradicts e*e = e, although the other image alone is an action
    G = group_from_permutations([[0, 1], [1, 0]])
    edge = SimplicialComplex.from_maximal([[0, 1]])
    with pytest.raises(ValidationError, match="the image given for element 0 differs"):
        build_gcomplex(edge, G, [[1, 0], [1, 0]])
    assert vertex_maps(build_gcomplex(edge, G, [[0, 1], [1, 0]]))[1] == {0: 1, 1: 0}


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
    # the parent's simplex rows are handed over as the subdivision's vertex rows
    X = corpus.load_case("s2-pi-rotation").gcomplex
    assert _subdivide(X).vertex_perm is X.perm
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


# ---------------------------------------------------------------------------
# the stratification on positions: nothing is built before it is read, every
# field built on first read matches a brute-force reference, and `verify`
# counts the principal stratum without building its components

STRATUM_FIELDS = {"open_euler", "piece_positions", "piece_action", "components"}


def check_lazy_strata(R, ref):
    G, K = R.group, R.complex
    order, index = K.order, K.index
    firsts = {min(index[t] for t in ref.images[s]) for s in order}

    def faces(simplices):
        return {f for s in simplices for r in range(1, len(s) + 1) for f in combinations(s, r)}

    def orbit_euler(simplices):
        """chi of the image of a G-invariant set: one simplex per orbit."""
        return sum((-1) ** (len(s) - 1) for s in simplices if index[s] in firsts)

    st = orbit_type_stratification(R)
    for stratum in st.strata:
        assert not STRATUM_FIELDS & vars(stratum).keys()
        H = stratum.isotropy.elements
        members = [i for i, s in enumerate(order) if ref_class_rep(G, ref.isotropy[s]) == H]
        assert stratum.members == tuple(members)
        assert stratum.exact == [i for i, s in enumerate(order) if ref.isotropy[s] == H]
        pieces = face_components(order[i] for i in stratum.exact)
        assert tuple(simplices_at(K, p) for p in stratum.piece_positions) == pieces
        for pid, piece in enumerate(stratum.piece_positions):
            assert piece == sorted(index[s] for s in pieces[pid])
            assert stratum.piece_vertices(pid) == sorted(index[s] for s in pieces[pid] if len(s) == 1)
        normal = [g for g in range(G.order) if sorted(G.conjugate(g, a) for a in H) == list(H)]
        assert sorted(stratum.piece_action) == normal
        for n, perm in stratum.piece_action.items():
            for pid, piece in enumerate(pieces):
                assert {ref.images[s][n] for s in piece} == pieces[perm[pid]]
        total = 0
        listed = []
        for comp in stratum.components:
            assert {stratum.piece_action[n][comp.piece_indices[0]] for n in normal} == set(comp.piece_indices)
            listed.extend(comp.piece_indices)
            swept = {image for pid in comp.piece_indices for s in pieces[pid] for image in ref.images[s]}
            closure = faces(swept)
            assert comp.swept == tuple(sorted(index[s] for s in swept))
            assert comp.closure_positions == {index[s] for s in closure}
            assert comp.closure == closure
            assert comp.lower == closure - swept
            assert comp.dim == max(len(s) for s in swept) - 1
            assert comp.codim == K.dim - comp.dim
            assert comp.closure_euler == orbit_euler(closure)
            assert comp.lower_euler == orbit_euler(closure - swept)
            total += comp.closure_euler - comp.lower_euler
        assert sorted(listed) == list(range(len(pieces)))
        # the principal count is the sum over the principal components
        assert stratum.open_euler == total == orbit_euler(order[i] for i in members)


def check_mask_tally(R, ref):
    tally = {}
    for s, iso in ref.isotropy.items():
        m = sum(1 << g for g in iso)
        tally[m] = tally.get(m, 0) + (-1) ** (len(s) - 1)
    assert R.mask_tally == tally
    for g in range(R.group.order):
        cyclic = Subgroup.generated(R.group, [g])
        assert lefschetz_number_fixed(R, g) == fixed_subcomplex(R, cyclic).euler_characteristic()


@pytest.mark.parametrize("G, maximal, maps", list(parity_actions()))
def test_lazy_strata_fields_match_brute_force_reference(G, maximal, maps):
    R = regularize(build(G, maximal, maps))
    ref = Reference(R)
    check_lazy_strata(R, ref)
    check_mask_tally(R, ref)


@pytest.mark.parametrize("G, maximal, maps", list(parity_actions()))
def test_verify_never_builds_the_principal_components(monkeypatch, G, maximal, maps):
    built = []

    def recorded(X):
        built.append(orbit_type_stratification(X))
        return built[-1]

    monkeypatch.setattr(strataformula, "orbit_type_stratification", recorded)
    report = verify_strata_vs_oracle(build(G, maximal, maps))
    assert report.skipped is not None or report.all_match
    (strat,) = built
    assert "components" not in vars(strat.principal)
    assert "piece_positions" not in vars(strat.principal)
    assert strat.principal.open_euler == sum(
        c.closure_euler - c.lower_euler for c in strat.principal.components
    )


def test_non_principal_maximal_edge_fails_density(tmp_path, capsys):
    """C2 swaps 0 and 1 in the triangle (0, 1, 2); the edge (2, 3) beside it
    is fixed and maximal, so it is a face of no principal simplex."""
    text = "principal stratum is not dense: some simplex is not a face of a principal simplex"
    gens, maximal = [[1, 0, 2, 3]], [[0, 1, 2], [2, 3]]
    G = group_from_permutations(gens)
    R = regularize(build_gcomplex(SimplicialComplex.from_maximal(maximal), G, gens))
    principal = {i for i, m in enumerate(R.masks) if m == 1 << R.group.identity}
    assert principal and not R.complex.closure(principal) >= set(R.complex.maximal_positions())
    with pytest.raises(ValidationError) as err:
        orbit_type_stratification(R)
    assert str(err.value) == text
    gpath, cpath = tmp_path / "group.json", tmp_path / "complex.json"
    gpath.write_text(json.dumps({"permutation_generators": gens}))
    cpath.write_text(json.dumps({"maximal_simplices": maximal, "action": {"generator_images": gens}}))
    assert main(["verify", "--group", str(gpath), "--complex", str(cpath)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {text}\n")


def test_basepoint_outside_the_piece_is_rejected():
    X = regularize(corpus.load_case("s2-pi-rotation").gcomplex)
    st = orbit_type_stratification(X)
    stratum = st.strata[1]
    component = stratum.components[0]
    order = X.complex.order
    principal_vertex = next(order[i] for i in st.principal.members if len(order[i]) == 1)
    other_piece = order[stratum.piece_vertices(stratum.components[1].piece_indices[0])[0]]
    for basepoint in (principal_vertex, other_piece, (10**6,)):
        with pytest.raises(ValidationError) as err:
            orientation_character(X, stratum, component, basepoint=basepoint)
        assert str(err.value) == f"basepoint {basepoint} is not in the component piece"
