"""Group actions on complexes: validation, regularization, strata, quotients."""

import pytest

from equichi import (
    FiniteGroup,
    SimplicialComplex,
    ValidationError,
    build_gcomplex,
    euler_of_complex,
    group_from_permutations,
    is_regular,
    orbit_space,
    orbit_type_stratification,
    orientation_character,
    regularize,
)
from equichi.jsonio import gcomplex_from_json, group_from_json
from equichi.lefschetz import lefschetz_number, lefschetz_number_fixed, lefschetz_number_trace
from test_fuzz import bench_inputs

OCT_TRIS = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]
PI_ROT = [3, 4, 2, 0, 1, 5]
SUBDIVISIONS = {
    "s2-identity": 0,
    "s2-pi-rotation": 1,
    "s2-order4-rotation": 2,
    "s2-klein-four": 1,
    "s2-antipodal": 1,
    "s2-reflection": 0,
    "square-trivial": 0,
    "interval-trivial": 0,
    "torus-involution": 0,
}
# (stratum index, isotropy order, component count, codimension, principal)
STRATA_SHAPES = {
    "s2-identity": [(0, 1, 1, 0, True)],
    "s2-pi-rotation": [(0, 1, 1, 0, True), (1, 2, 2, 2, False)],
    "s2-order4-rotation": [(0, 1, 1, 0, True), (1, 4, 2, 2, False)],
    "s2-klein-four": [
        (0, 1, 1, 0, True),
        (1, 2, 1, 2, False),
        (2, 2, 1, 2, False),
        (3, 2, 1, 2, False),
    ],
    "s2-antipodal": [(0, 1, 1, 0, True)],
    "torus-involution": [(0, 1, 1, 0, True), (1, 2, 4, 2, False)],
}
QUOTIENT_EULER = {
    "s2-identity": 2,
    "s2-pi-rotation": 2,
    "s2-order4-rotation": 2,
    "s2-klein-four": 2,
    "s2-antipodal": 1,
    "s2-reflection": 1,
    "square-trivial": 1,
    "interval-trivial": 1,
    "torus-involution": 2,
}


def octahedron():
    return SimplicialComplex.from_maximal(OCT_TRIS)


def test_build_rejects_vertex_collapse():
    G = group_from_permutations([[1, 0]])
    with pytest.raises(ValidationError, match="bijection"):
        build_gcomplex(octahedron(), G, [[1, 1, 2, 3, 4, 5]])


def test_build_rejects_non_simplicial_image():
    K = SimplicialComplex.from_maximal([[0, 1], [2]])
    G = group_from_permutations([[1, 0]])
    with pytest.raises(ValidationError, match="not a simplex"):
        build_gcomplex(K, G, [[0, 2, 1]])


def test_build_rejects_wrong_generator_order():
    # order four vertex map assigned to an order two generator
    G = group_from_permutations([[1, 0]])
    with pytest.raises(ValidationError, match="homomorphism"):
        build_gcomplex(octahedron(), G, [[1, 3, 2, 4, 0, 5]])


def test_build_rejects_generator_count_mismatch():
    G = group_from_permutations([[1, 0]])
    with pytest.raises(ValidationError, match="generator"):
        build_gcomplex(octahedron(), G, [])


def test_build_accepts_dict_images():
    G = group_from_permutations([[1, 0]])
    K = SimplicialComplex.from_maximal([[0, 1]])
    X = build_gcomplex(K, G, [{0: 1, 1: 0}])
    assert tuple(X.vertex_perm[1]) == (1, 0)
    assert X.perm[1][K.index[(0, 1)]] == K.index[(0, 1)]


@pytest.mark.parametrize(
    "image",
    [[1.7, 0.2], {0: 1.9, 1: 0.5}, ["1", "0"], {"0": 1, "1": 0}],
    ids=["floats", "float-values", "strings", "string-keys"],
)
def test_build_compares_vertex_ids_as_given(image):
    """Ids that only int() turns into vertices name no vertex: they used to
    be accepted as the flip of the edge."""
    G = group_from_permutations([[1, 0]])
    K = SimplicialComplex.from_maximal([[0, 1]])
    with pytest.raises(ValidationError, match="^generator image is not a vertex bijection$"):
        build_gcomplex(K, G, [image])


@pytest.mark.parametrize(
    "image",
    [[1.0, 0.0], [True, False], {1.0: 0, 0: True}],
    ids=["integral-floats", "bools", "float-key-and-bool-value"],
)
def test_build_rejects_ids_that_only_equal_a_vertex(image):
    """1.0 and True equal and hash like the vertex 1, so these images pass the
    bijection check on values alone: they used to build the flip of the
    edge.  Every id must be an int."""
    G = group_from_permutations([[1, 0]])
    K = SimplicialComplex.from_maximal([[0, 1]])
    with pytest.raises(ValidationError, match="^generator image is not a vertex bijection$"):
        build_gcomplex(K, G, [image])


def test_apply_orbit_isotropy():
    """The image, the orbit and the isotropy of a simplex, read by position
    off the simplex rows, the orbit table and the fixer masks."""
    G = group_from_permutations([[1, 0]])
    X = build_gcomplex(octahedron(), G, [PI_ROT])
    order, index = X.complex.order, X.complex.index
    assert order[X.perm[1][index[(0, 1, 2)]]] == (2, 3, 4)
    assert [order[i] for i, label in enumerate(X.orbit_of) if label == index[(0,)]] == [(0,), (3,)]
    assert X.orbit_of.count(index[(2,)]) == 1
    assert X._subgroup_of_mask(X.masks[index[(2,)]]).elements == (0, 1)
    assert X._subgroup_of_mask(X.masks[index[(0,)]]).elements == (0,)
    assert X.vertex_orbits() == ((0, 3), (1, 4), (2,), (5,))


# element ids outside s2-pi-rotation's group C2
INVALID_ELEMENTS = {"negative-element": -1, "element-past-the-group": 5, "first-id-past-the-group": 2}


@pytest.mark.parametrize("name", list(INVALID_ELEMENTS))
def test_action_calls_reject_invalid_arguments(regular_cases, name):
    """Each Lefschetz route rejects an element id outside the group."""
    g = INVALID_ELEMENTS[name]
    for call in (lefschetz_number, lefschetz_number_trace, lefschetz_number_fixed):
        with pytest.raises(ValidationError) as err:
            call(regular_cases["s2-pi-rotation"], g)
        assert str(err.value) == f"element {g} is not an element id in [0, 1]", call.__name__


def test_subdivision_counts_frozen(regular_cases):
    for cid, X in regular_cases.items():
        assert X.subdivisions == SUBDIVISIONS[cid], cid
        assert X.subdivisions <= 2


def test_regularize_establishes_both_conditions(cases, regular_cases):
    G2 = group_from_permutations([[1, 0]])
    raw = build_gcomplex(octahedron(), G2, [PI_ROT])
    assert not is_regular(raw)
    for cid, X in regular_cases.items():
        assert is_regular(X)
        # a setwise invariant simplex must be pointwise fixed
        V = X.complex.vertices
        maps = [dict(zip(V, map(V.__getitem__, row))) for row in X.vertex_perm]
        for i, s in enumerate(X.complex.order):
            for g in range(X.group.order):
                if X.perm[g][i] == i:
                    assert all(maps[g][v] == v for v in s)


def test_regularize_is_identity_when_already_regular(cases):
    X = cases["s2-identity"].gcomplex
    assert is_regular(X)
    XR = regularize(X)
    assert XR.subdivisions == 0
    assert XR.complex.f_vector() == X.complex.f_vector()


def test_regularize_preserves_euler(cases, regular_cases):
    for cid, case in cases.items():
        before = euler_of_complex(case.gcomplex.complex)
        after = euler_of_complex(regular_cases[cid].complex)
        assert before == after, cid


def test_stratification_shapes_frozen(regular_cases):
    for cid, expected in STRATA_SHAPES.items():
        st = orbit_type_stratification(regular_cases[cid])
        got = [
            (s.index, len(s.isotropy.elements), len(s.components), s.codimension, s.is_principal)
            for s in st.strata
        ]
        assert got == expected, cid


def test_principal_stratum_has_trivial_isotropy_on_corpus(regular_cases):
    for cid, X in regular_cases.items():
        st = orbit_type_stratification(X)
        pr = st.principal
        if cid.startswith(("square", "interval")):
            # a trivial action fixes everything, isotropy is the whole group
            assert len(pr.isotropy.elements) == X.group.order
        else:
            assert pr.isotropy.elements == (X.group.identity,)
        assert pr.is_principal
        assert sum(len(s.members) for s in st.strata) == len(X.complex)


def test_strata_partition_is_disjoint(regular_cases):
    X = regular_cases["s2-klein-four"]
    st = orbit_type_stratification(X)
    seen = set()
    for s in st.strata:
        assert not (seen & set(s.members))
        seen |= set(s.members)
    assert seen == set(range(len(X.complex)))


def test_stratification_scans_each_isotropy_class_once(monkeypatch):
    """A5 on the icosahedron, regularized: 32 fixer masks in 4 classes.  A
    scan over the group conjugates the identity by itself exactly once, so
    counting those calls counts the scans; one per stratum, plus one for the
    principal class's subconjugacy checks."""
    gens, action = bench_inputs().icosahedron_a5()
    G = group_from_json({"permutation_generators": gens})
    X = regularize(gcomplex_from_json(action.to_json(), G))
    assert len(X.complex.order) == 2162 and len(set(X.masks)) == 32
    scans = []
    conjugate = FiniteGroup.conjugate

    def counted(self, g, a):
        if g == a == self.identity:
            scans.append(self)
        return conjugate(self, g, a)

    monkeypatch.setattr(FiniteGroup, "conjugate", counted)
    st = orbit_type_stratification(X)
    assert len(st.strata) == 4
    assert 1 <= len(scans) <= len(st.strata) + 1
    monkeypatch.undo()
    for s in st.strata:
        assert s.isotropy.canonical_class_representative() == s.isotropy


def test_stratum_component_closure_and_lower(regular_cases):
    X = regular_cases["s2-pi-rotation"]
    st = orbit_type_stratification(X)
    comp = st.strata[1].components[0]
    # an isolated fixed vertex is its own closure with empty lower part
    assert comp.dim == 0
    assert comp.closure == frozenset(X.complex.order[i] for i in comp.swept)
    assert comp.lower == frozenset()
    assert st.strata[1].codimension == 2


def test_quotient_euler_frozen(regular_cases):
    for cid, X in regular_cases.items():
        Q = orbit_space(X)
        assert euler_of_complex(Q.complex) == QUOTIENT_EULER[cid], cid


def test_quotient_of_identity_action_is_isomorphic(regular_cases):
    X = regular_cases["s2-identity"]
    Q = orbit_space(X)
    assert Q.complex.f_vector() == X.complex.f_vector()


def test_quotient_projection_is_simplicial_and_surjective(regular_cases):
    for X in regular_cases.values():
        Q = orbit_space(X)
        order = X.complex.order
        image = {Q.project_simplex(s) for s in order}
        assert image == set(Q.complex.simplices)
        for i, s in enumerate(order):
            for row in X.perm:
                assert Q.project_simplex(order[row[i]]) == Q.project_simplex(s)


def test_orientation_characters_of_rotation_fixed_points_are_trivial(regular_cases):
    for cid in ["s2-pi-rotation", "s2-order4-rotation", "s2-klein-four", "torus-involution"]:
        st = orbit_type_stratification(regular_cases[cid])
        for s in st.strata:
            if s.is_principal:
                continue
            for comp in s.components:
                oc = orientation_character(regular_cases[cid], s, comp)
                assert set(oc.signs.values()) == {1}, (cid, s.index, comp.index)


def test_orientation_character_is_multiplicative(regular_cases):
    X = regular_cases["s2-klein-four"]
    st = orbit_type_stratification(X)
    s = st.strata[1]
    oc = orientation_character(X, s, s.components[0])
    H = sorted(oc.signs)
    G = X.group
    for a in H:
        for b in H:
            assert oc.signs[G.mul(a, b)] == oc.signs[a] * oc.signs[b]


def test_orientation_character_basepoint_independent(regular_cases):
    X = regular_cases["s2-pi-rotation"]
    st = orbit_type_stratification(X)
    s = st.strata[1]
    for comp in s.components:
        base = orientation_character(X, s, comp)
        for i in comp.swept:
            again = orientation_character(X, s, comp, basepoint=X.complex.order[i])
            assert again.signs == base.signs


# ---------------------------------------------------------------------------
# the pseudomanifold checks on stars keep their texts: each complex below,
# under the trivial group, has exactly one simplex that can be the witness

# the six-vertex real projective plane; its cone has a non-orientable star
RP2 = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
       [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]]

STAR_FAILURES = {
    # the edge (0, 3) hangs off the triangle at the basepoint
    "not-pure": (
        [[0, 1, 2], [0, 3]],
        "star of (0,) fails the pseudomanifold check: not pure at (0, 3)",
    ),
    # three triangles on the edge (0, 1)
    "wall-in-three-tops": (
        [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        "star of (0,) fails the pseudomanifold check: wall (0, 1) in 3 tops",
    ),
    # the basepoint is the free end of an edge
    "one-sided": (
        [[0, 1]],
        "star of (0,) fails the pseudomanifold check: wall (0,) is one-sided",
    ),
    "not-orientable": (
        [[0] + t for t in RP2],
        "star of (0,) is not orientable; orientation sign undefined",
    ),
    # two triangulated discs pinched at the basepoint
    "not-wall-connected": (
        [[0, 1, 2], [0, 2, 3], [0, 1, 3], [0, 4, 5], [0, 5, 6], [0, 4, 6]],
        "star of (0,) fails the pseudomanifold check: top simplices are not wall-connected",
    ),
}


@pytest.mark.parametrize("name", list(STAR_FAILURES))
def test_star_checks_keep_their_texts(name):
    maximal, text = STAR_FAILURES[name]
    X = regularize(build_gcomplex(SimplicialComplex.from_maximal(maximal), group_from_permutations([]), []))
    st = orbit_type_stratification(X)
    (stratum,) = st.strata
    (component,) = stratum.components
    with pytest.raises(ValidationError) as err:
        orientation_character(X, stratum, component, basepoint=(0,))
    assert str(err.value) == text


def test_by_mask_lists_the_int_objects_of_positions():
    """On torus-involution sd3 (20,736 simplices) every position that
    `by_mask` lists is the int object of `complex.positions`, not a copy."""
    from equichi import corpus
    from equichi.gcomplex import _subdivide

    X = corpus.load_case("torus-involution").gcomplex
    for _ in range(3):
        X = _subdivide(X)
    positions = X.complex.positions
    assert len(positions) == 20736
    listed = [i for ps in X.by_mask.values() for i in ps]
    assert sorted(listed) == list(positions)
    assert all(i is positions[i] for i in listed)
