"""`verify` and `strata` compute on the first complex of the ladder X, sd X
that satisfies Bredon's condition (A), and report the subdivision count of
the first regular one without building it.

Every corpus case, every rotation action and every known-answer input runs
at sd^0, sd^1 and sd^2, relabelled at each rung, while the input stays
below `INPUT_CAP` simplices.  Both commands must report what the public
functions report on `regularize(X)`, and the stratification checks must
fail with their texts.  The public functions must compute the same on
every rung that satisfies (A), and refuse every rung that fails it.  The
actions on the 5-cross-polytope are left out: they are regular only at
sd^2 of the input, 460,800 top simplices, which no reference here can
build; `test_known_answers` checks their counts.
"""

import json
import random

import pytest

from equichi import (
    CodimensionError,
    DefectError,
    SimplicialComplex,
    ValidationError,
    character_table,
    corpus,
    equivariant_multiplicities,
    euler_of_complex,
    group_from_permutations,
    is_regular,
    orbit_space,
    orbit_type_stratification,
    regularize,
    strata_geometry,
    verify_strata_vs_oracle,
)
from equichi import gcomplex
from equichi.cli import _stratification_summary, main
from equichi.gcomplex import GComplex, _ladder, _subdivide
from equichi.lefschetz import lefschetz_number, lefschetz_number_fixed, lefschetz_number_trace
from equichi.strataformula import VerifyReport, VerifyRow
from test_action_table import (
    NON_REGULAR_ACTIONS,
    ROTATION_ACTIONS,
    STRATIFICATION_FAILURES,
    b3_slice,
    build,
    corpus_action,
    reference_condition_a,
    relabel,
    subdivide,
)
from test_known_answers import (
    B4_PLUS,
    CROSS_POLYTOPE,
    CROSS_POLYTOPE_GROUPS,
    JOIN,
    JOIN_ACTIONS,
    REPRODUCTIONS,
)

INPUT_CAP = 2_500  # simplices in the input rung


def on_vertices(maximal, image):
    """A vertex map given as a list aligned with the sorted vertices."""
    return dict(zip(sorted({v for s in maximal for v in s}), image))


def permutation_action(gens, maximal, images=None):
    images = gens if images is None else images
    group_doc = {"permutation_generators": gens}
    maps = [on_vertices(maximal, g) for g in images]
    return group_doc, group_from_permutations(gens), [tuple(sorted(s)) for s in maximal], maps


def inputs():
    """(name, group JSON, group, maximal simplices, generator vertex maps)."""
    for cid in corpus.case_ids():
        doc = json.loads(corpus.read_corpus_bytes(cid).decode("utf-8"))
        yield (cid, doc["group"], *corpus_action(cid))
    for name, (gens, faces) in ROTATION_ACTIONS.items():
        yield (name, *permutation_action(gens, faces))
    for name, (gens, maximal, _) in REPRODUCTIONS.items():
        yield (name, *permutation_action(gens, maximal))
    for name, (gens, _) in CROSS_POLYTOPE_GROUPS.items():
        yield (f"cross-polytope-{name}", *permutation_action(gens, CROSS_POLYTOPE))
    yield ("cross-polytope-b4-plus", *permutation_action(B4_PLUS, CROSS_POLYTOPE))
    for name, (gen, _, _) in JOIN_ACTIONS.items():
        yield (f"join-{name}", *permutation_action([gen], JOIN))
    for k, (G, maximal, perms) in enumerate(b3_slice()):
        gens = [list(p) for p in perms]
        yield (f"b3-class{k}", *permutation_action(gens, maximal))
    for name, (gens, maximal, images) in NON_REGULAR_ACTIONS.items():
        yield (name, *permutation_action(gens, maximal, images))
    for name, (gens, maximal, _) in STRATIFICATION_FAILURES.items():
        yield (name, *permutation_action(gens, maximal))


# chains of faces that end at a d-simplex: the ordered set partitions of
# its d + 1 vertices
FUBINI = (1, 3, 13, 75, 541)


def subdivided_size(maximal):
    """The number of simplices of sd K, one per chain of faces of K."""
    f = SimplicialComplex.from_maximal(maximal).f_vector()
    return sum(n * FUBINI[d] for d, n in enumerate(f))


def rungs():
    rng = random.Random(26)
    for name, group_doc, G, maximal, maps in inputs():
        for level in range(3):
            yield pytest.param(group_doc, G, *relabel(maximal, maps, rng), id=f"{name}:sd{level}")
            if level == 2 or subdivided_size(maximal) > INPUT_CAP:
                break
            maximal, maps = subdivide(maximal, maps)


RUNGS = list(rungs())


def reference_verify(R):
    """The `verify` report, computed on the regular complex R through the
    public functions."""
    chi_rho = equivariant_multiplicities(R).chi_rho
    try:
        geometry = strata_geometry(R)
        rows = tuple(
            VerifyRow(rho.index, rho.degree, chi_rho[rho.index], geometry.breakdown(rho).total)
            for rho in character_table(R.group)
        )
        skipped = None
    except CodimensionError as exc:
        rows, skipped = (), str(exc)
    return VerifyReport(rows, skipped, R.subdivisions, euler_of_complex(R.complex))


def reference_strata(R):
    """The `strata` report's computed part on the regular complex R."""
    strat = orbit_type_stratification(R)
    try:
        geometry = strata_geometry(R)
        breakdowns = [geometry.breakdown(rho).to_json_dict() for rho in character_table(R.group)]
        skipped = None
    except CodimensionError as exc:
        breakdowns, skipped = [], str(exc)
    return {
        "subdivisions": R.subdivisions,
        "stratification": _stratification_summary(R, strat),
        "breakdowns": breakdowns,
        "skipped": skipped,
    }


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("group_doc, G, maximal, maps", RUNGS)
def test_commands_on_the_condition_a_rung_match_the_regular_rung(tmp_path, capsys, group_doc, G, maximal, maps):
    X = build(G, maximal, maps)
    L, subdivisions = _ladder(X)
    assert L.subdivisions == (0 if reference_condition_a(maximal, maps) else 1)
    R = regularize(build(G, maximal, maps))
    assert subdivisions == R.subdivisions - X.subdivisions
    gpath, cpath = tmp_path / "group.json", tmp_path / "complex.json"
    gpath.write_text(json.dumps(group_doc))
    images = [{str(v): w for v, w in m.items()} for m in maps]
    cpath.write_text(json.dumps({"maximal_simplices": maximal, "action": {"generator_images": images}}))
    files = ["--group", str(gpath), "--complex", str(cpath)]
    try:
        verify_expected, strata_expected = reference_verify(R), reference_strata(R)
    except ValidationError as exc:  # a stratification check fails
        with pytest.raises(ValidationError) as err:
            verify_strata_vs_oracle(X)
        assert str(err.value) == str(exc)
        for command in ("verify", "strata"):
            code, out, err = run([command, *files], capsys)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {exc}\n")
        return
    assert verify_strata_vs_oracle(X) == verify_expected
    code, out, _ = run(["verify", *files], capsys)
    assert json.loads(out)["report"] == verify_expected.to_json_dict()
    assert code == (3 if verify_expected.skipped else 0)
    code, out, _ = run(["strata", *files], capsys)
    payload = json.loads(out)
    assert {k: payload[k] for k in strata_expected} == strata_expected
    assert code == (3 if strata_expected["skipped"] else 0)


def test_the_rungs_reach_every_input_and_both_check_failures():
    ids = [p.id for p in RUNGS]
    names = {i.split(":")[0] for i in ids}
    assert len(names) == len(list(inputs())) == 9 + 5 + 3 + 4 + 1 + 3 + 33 + 5 + 2
    assert {"not-dense:sd0", "two-minima:sd2", "flipped-second-edge:sd1"} <= set(ids)
    assert {"a5-icosahedron:sd2", "cross-polytope-b4-plus:sd1", "join-c4-quarter-turn:sd1"} <= set(ids)


# ---------------------------------------------------------------------------
# the public functions ask for condition (A) and nothing more

CONDITION_A_TEXT = "operation requires an action satisfying condition (A)"


def test_public_functions_reject_the_condition_a_rung():
    """On every rung that satisfies condition (A), the multiplicities, the
    stratification and the breakdowns are those of `regularize(X)`, and only
    the orbit space asks for more when the rung is not regular.  On every
    rung that fails (A), all six entry points refuse it with one text."""
    seen = set()
    for param in RUNGS:
        _, G, maximal, maps = param.values
        X = build(G, maximal, maps)
        seen.add((X.condition_a, is_regular(X)))
        if not is_regular(X):
            with pytest.raises(ValidationError) as err:
                orbit_space(X)
            assert str(err.value) == "operation requires a regularized complex", param.id
        g = G.order - 1
        if not X.condition_a:
            for route in (
                lambda: lefschetz_number_trace(X, g),
                lambda: lefschetz_number_fixed(X, g),
                lambda: lefschetz_number(X, g),
                lambda: equivariant_multiplicities(X),
                lambda: orbit_type_stratification(X),
                lambda: strata_geometry(X),
            ):
                with pytest.raises(ValidationError) as err:
                    route()
                assert str(err.value) == CONDITION_A_TEXT, param.id
            continue
        R = regularize(X)
        report, expected = equivariant_multiplicities(X), equivariant_multiplicities(R)
        assert report.lefschetz == expected.lefschetz, param.id
        assert report.multiplicities == expected.multiplicities, param.id
        assert report.chi_rho == expected.chi_rho, param.id
        try:
            summary = _stratification_summary(R, orbit_type_stratification(R))
        except ValidationError as exc:  # a stratification check fails
            with pytest.raises(ValidationError) as err:
                orbit_type_stratification(X)
            assert str(err.value) == str(exc), param.id
            continue
        assert _stratification_summary(X, orbit_type_stratification(X)) == summary, param.id
        try:
            reference = strata_geometry(R)
        except CodimensionError as exc:
            with pytest.raises(CodimensionError) as err:
                strata_geometry(X)
            assert str(err.value) == str(exc), param.id
            continue
        geometry = strata_geometry(X)
        for rho in character_table(G):
            assert geometry.breakdown(rho) == reference.breakdown(rho), (param.id, rho.index)
    assert seen == {(False, False), (True, False), (True, True)}


def test_condition_a_failing_on_the_subdivision_is_a_defect(monkeypatch):
    X = corpus.load_case("s2-order4-rotation").gcomplex
    monkeypatch.setattr(GComplex, "condition_a", False)
    with pytest.raises(DefectError) as err:
        _ladder(X)
    assert str(err.value) == (
        "condition (A) fails on the barycentric subdivision: an edge joins two vertices of one orbit"
    )


def test_a_non_regular_subdivision_of_a_condition_a_rung_is_a_defect(monkeypatch):
    X = corpus.load_case("s2-klein-four").gcomplex
    monkeypatch.setattr(GComplex, "faithful", False)
    assert _ladder(X) == (X, 1)
    with pytest.raises(DefectError) as err:
        regularize(X)
    assert str(err.value) == "the subdivision of a complex satisfying condition (A) is not regular"


def test_regularize_builds_one_rung_past_the_condition_a_rung(monkeypatch):
    """sd^2 of s2-order4-rotation is built by `regularize` and by nothing
    that `verify` runs."""
    subdivided = []
    plain = _subdivide

    def counted(X):
        subdivided.append(X.subdivisions)
        return plain(X)

    monkeypatch.setattr(gcomplex, "_subdivide", counted)
    X = corpus.load_case("s2-order4-rotation").gcomplex
    assert verify_strata_vs_oracle(X).subdivisions == 2
    assert subdivided == [0]
    subdivided.clear()
    assert regularize(X).subdivisions == 2
    assert subdivided == [0, 1]
