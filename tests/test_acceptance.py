"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass or fail line per criterion.  Every check uses
exact arithmetic, so comparisons are equalities, never tolerances.  Each
criterion re-derives what it claims from scratch and asserts a wall-time
budget on its own work.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from equichi import (
    CodimensionError,
    ComponentSystem,
    Cyc,
    FineEntry,
    IndexData,
    StratumRecord,
    all_subgroups,
    assemble_index,
    canonical_isotropy_bundle,
    character_table,
    corpus,
    distributional_pairing,
    equivariant_euler_via_strata,
    equivariant_multiplicities,
    fine_decomposition,
    group_from_permutations,
    index_data_from_breakdown,
    induce,
    inner_product,
    is_adapted,
    regularize,
    restrict,
    verify_strata_vs_oracle,
)
from equichi.lefschetz import lefschetz_number_fixed, lefschetz_number_trace

# reference isotypical Euler characteristics, indexed like the character table
REFERENCE_CHI_RHO = {
    "s2-pi-rotation": (0, 2),
    "s2-order4-rotation": (0, 0, 0, 2),
    "s2-klein-four": (0, 0, 0, 2),
    "s2-antipodal": (1, 1),
    "torus-involution": (-2, 2),
}

GENERATOR_POOLS = [
    [[1, 0]],
    [[1, 2, 0], [1, 0, 2]],
    [
        [3, 4, 2, 0, 1, 5],
        [1, 3, 2, 4, 0, 5],
        [0, 4, 5, 3, 1, 2],
        [3, 4, 5, 0, 1, 2],
        [0, 1, 5, 3, 4, 2],
    ],
    [[0, 3, 2, 1, 12, 15, 14, 13, 8, 11, 10, 9, 4, 7, 6, 5]],
]


def group_matrix(max_order=12):
    """Every distinct group of order at most max_order generated by a
    subset of one bundled generator pool."""
    tables = {}
    for gens in GENERATOR_POOLS:
        for r in range(1, len(gens) + 1):
            for sub in combinations(range(len(gens)), r):
                G = group_from_permutations([gens[i] for i in sub])
                if G.order <= max_order:
                    tables.setdefault(tuple(map(tuple, G.table)), G)
    return list(tables.values())


def test_criterion_1_dual_route_agreement_on_reference_actions():
    start = time.perf_counter()
    for cid, expected in REFERENCE_CHI_RHO.items():
        X = regularize(corpus.load_case(cid).gcomplex)
        report = equivariant_multiplicities(X)
        assert report.chi_rho == expected, cid
        for rho in character_table(X.group):
            breakdown = equivariant_euler_via_strata(X, rho)
            assert breakdown.total == expected[rho.index], (cid, rho.index)
    assert time.perf_counter() - start < 5.0


def test_criterion_2_trace_equals_fixed_point_count():
    start = time.perf_counter()
    checked = 0
    for cid in corpus.case_ids():
        X = regularize(corpus.load_case(cid).gcomplex)
        for g in range(X.group.order):
            assert lefschetz_number_trace(X, g) == lefschetz_number_fixed(X, g), (cid, g)
            checked += 1
    assert checked == 20
    assert time.perf_counter() - start < 1.0


def test_criterion_3_pairing_recovers_every_multiplicity():
    start = time.perf_counter()
    for cid in corpus.case_ids():
        X = regularize(corpus.load_case(cid).gcomplex)
        report = equivariant_multiplicities(X)
        for chi in character_table(X.group):
            got = distributional_pairing(report, chi)
            assert got == Cyc.rational(report.multiplicities[chi.index]), (cid, chi.index)
    assert time.perf_counter() - start < 1.0


def test_criterion_4_fine_structure_properties_over_group_matrix():
    start = time.perf_counter()
    groups = group_matrix()
    assert len(groups) >= 10
    assert {G.order for G in groups} == {2, 3, 4, 6, 8}
    triples = 0
    for G in groups:
        for H in all_subgroups(G):
            HG, _ = H.as_group()
            subtable = character_table(HG)
            system = ComponentSystem.single(G, H)
            for sigma in subtable:
                canonical = canonical_isotropy_bundle(system, "a0", sigma)
                piece = canonical.piece
                data = canonical.bundle
                assert sigma.index in piece.orbit
                # constant multiplicity and degree across the twist orbit
                for idx in piece.orbit:
                    assert data.multiplicity(0, idx) == piece.multiplicity
                    assert subtable[idx].degree == piece.degree
                assert piece.rank == len(piece.orbit) * piece.multiplicity * piece.degree
                # re-verification: decomposing the bundle returns the same piece
                pieces = fine_decomposition(data, "a0")
                assert [p.orbit for p in pieces] == [piece.orbit]
                # the canonical bundle is adapted to its own piece
                assert is_adapted(data, piece)
                triples += 1
    assert triples >= 400
    assert time.perf_counter() - start < 30.0


def test_criterion_5_character_identities_over_group_matrix():
    start = time.perf_counter()
    for G in group_matrix():
        table = character_table(G)
        assert sum(chi.degree**2 for chi in table) == G.order
        for a in table:
            for b in table:
                want = Cyc.rational(1 if a.index == b.index else 0)
                assert inner_product(a, b) == want
        classes = G.conjugacy_classes()
        for i, ci in enumerate(classes):
            for j in range(len(classes)):
                total = Cyc.zero(1)
                for chi in table:
                    total = total + chi.values[i] * chi.values[j].conj()
                centralizer = G.order // len(ci)
                assert total == Cyc.rational(centralizer if i == j else 0)
        for H in all_subgroups(G):
            HG, _ = H.as_group()
            for sigma in character_table(HG):
                up = induce(sigma, H)
                for chi in table:
                    assert inner_product(up, chi) == inner_product(sigma, restrict(chi, H))
    assert time.perf_counter() - start < 10.0


def test_criterion_6_index_assembly_worked_examples():
    start = time.perf_counter()
    # the bundled worked example assembles to exactly 1/2 and is flagged
    out = assemble_index(corpus.load_index_case("index-beta-example"))
    assert out.total == Fraction(1, 2)
    assert not out.is_integer
    assert out.warning is not None

    # spectral data synthesized from breakdowns assembles back to the
    # oracle multiplicity on every non-skipped bundled action
    for cid in corpus.case_ids():
        if cid == "s2-reflection":
            continue
        X = regularize(corpus.load_case(cid).gcomplex)
        report = equivariant_multiplicities(X)
        for rho in character_table(X.group):
            data = index_data_from_breakdown(
                equivariant_euler_via_strata(X, rho), rho.degree
            )
            res = assemble_index(data)
            assert res.is_integer
            assert res.warning is None
            assert res.total == report.multiplicities[rho.index], (cid, rho.index)

    # perturbing eta to 1/3 flags a warning without raising
    bad = StratumRecord("s1", (FineEntry(1, 1, Fraction(1, 3), 1, Fraction(2)),))
    flagged = assemble_index(IndexData("equivariant", 1, Fraction(1), (bad,)))
    assert flagged.total == Fraction(5, 3)
    assert not flagged.is_integer
    assert "not an integer" in flagged.warning
    assert time.perf_counter() - start < 1.0


def test_criterion_7_codimension_guard_names_stratum_and_exits_3():
    start = time.perf_counter()
    X = regularize(corpus.load_case("s2-reflection").gcomplex)
    rho = character_table(X.group)[0]
    with pytest.raises(CodimensionError) as err:
        equivariant_euler_via_strata(X, rho)
    assert err.value.stratum_index == 1
    assert err.value.component_index == 0
    assert "codimension 1" in str(err.value)

    report = verify_strata_vs_oracle(corpus.load_case("s2-reflection").gcomplex)
    assert report.skipped == (
        "stratified sum rejected: component 0 of stratum 1 has codimension 1 < 2"
    )

    proc = subprocess.run(
        [sys.executable, "-m", "equichi.cli", "verify", "--corpus", "--case", "s2-reflection"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert time.perf_counter() - start < 1.0


def test_criterion_8_reports_are_byte_identical():
    cmd = [sys.executable, "-m", "equichi.cli", "verify", "--corpus"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 3
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    payload = json.loads(first.stdout)
    assert payload["summary"] == {"mismatch": 0, "ok": 8, "skipped": 1}
