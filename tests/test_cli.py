"""Command line behavior: exit codes, deterministic reports, diagnostics."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equichi
from equichi import cli, complexes, corpus, finedecomp, gcomplex, jsonio, strataformula
from equichi.cli import main

BETA_DATA = {
    "mode": "equivariant",
    "dim": 1,
    "principal_integral": 0,
    "strata": [
        {
            "id": "s1",
            "entries": [
                {"n_b": 1, "rank": 1, "eta": [1, 2], "h": 1, "integral": 2}
            ],
        }
    ],
}
PER_RHO_DATA = {
    "per_rho": {
        "0": {"mode": "equivariant", "dim": 1, "principal_integral": 2, "strata": []},
        "1": {"mode": "equivariant", "dim": 1, "principal_integral": [1, 3], "strata": []},
    }
}


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_case_files(tmp_path, cid):
    doc = json.loads(corpus.read_corpus_bytes(cid).decode("utf-8"))
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    gpath.write_text(json.dumps(doc["group"]))
    cpath.write_text(json.dumps(doc["complex"]))
    return str(gpath), str(cpath)


def test_verify_corpus_aggregates_and_reports_skip(capsys):
    code, out, err = run_cli(["verify", "--corpus"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["summary"] == {"mismatch": 0, "ok": 8, "skipped": 1}
    assert payload["exact_arithmetic"] is True
    assert len(payload["corpus"]) == 9
    for entry in payload["corpus"]:
        assert len(entry["sha256"]) == 64
    by_case = {e["case"]: e for e in payload["corpus"]}
    assert by_case["s2-reflection"]["report"]["skipped"] is not None
    assert by_case["torus-involution"]["report"]["all_match"] is True


def test_verify_corpus_output_is_byte_identical(capsys):
    _, first, _ = run_cli(["verify", "--corpus"], capsys)
    _, second, _ = run_cli(["verify", "--corpus"], capsys)
    assert first == second
    assert first.endswith("\n")


def test_verify_corpus_single_case(capsys):
    code, out, _ = run_cli(["verify", "--corpus", "--case", "torus-involution"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"mismatch": 0, "ok": 1, "skipped": 0}
    rows = payload["corpus"][0]["report"]["rows"]
    assert [(r["rho"], r["formula"]) for r in rows] == [(0, -2), (1, 2)]


def test_verify_reflection_case_exits_skipped(capsys):
    code, out, _ = run_cli(["verify", "--corpus", "--case", "s2-reflection"], capsys)
    assert code == 3
    payload = json.loads(out)
    skipped = payload["corpus"][0]["report"]["skipped"]
    assert skipped == (
        "stratified sum rejected: component 0 of stratum 1 has codimension 1 < 2"
    )


def test_verify_corpus_reads_each_case_file_once(capsys, monkeypatch):
    """One read per case file and one of the manifest; each entry's sha256
    is that of the bytes its case was parsed from."""
    reads = []
    read = corpus.read_corpus_bytes

    def counted(name):
        reads.append(name)
        return read(name)

    corpus._manifest.cache_clear()
    monkeypatch.setattr(corpus, "read_corpus_bytes", counted)
    code, out, _ = run_cli(["verify", "--corpus"], capsys)
    assert code == 3
    assert sorted(reads) == sorted([*corpus.case_ids(), "manifest"])
    for entry in json.loads(out)["corpus"]:
        assert entry["sha256"] == hashlib.sha256(read(entry["case"])).hexdigest()


def test_verify_explicit_files(tmp_path, capsys):
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    code, out, _ = run_cli(["verify", "--group", gpath, "--complex", cpath], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["all_match"] is True
    assert payload["report"]["subdivisions"] == 1


def test_verify_without_inputs_is_invalid(capsys):
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "inputs, flags, message",
    [
        (("--group", "--complex"), ["--case", "s2-pi-rotation"], "verify --case restricts --corpus, which is not given"),
        (("--group", "--complex"), ["--corpus"], "verify --corpus takes no --group or --complex"),
        (("--group",), ["--corpus", "--case", "s2-pi-rotation"], "verify --corpus takes no --group"),
        (("--complex",), ["--corpus"], "verify --corpus takes no --complex"),
    ],
)
def test_verify_flags_that_would_be_ignored_are_invalid(tmp_path, capsys, inputs, flags, message):
    paths = dict(zip(("--group", "--complex"), write_case_files(tmp_path, "s2-pi-rotation")))
    argv = ["verify", *(arg for flag in inputs for arg in (flag, paths[flag])), *flags]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("elapsed:")] == [f"error: {message}"]


def test_strata_report_structure(tmp_path, capsys):
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    code, out, _ = run_cli(["strata", "--group", gpath, "--complex", cpath], capsys)
    assert code == 0
    payload = json.loads(out)
    strat = payload["stratification"]
    assert strat["orbit_space_euler"] == 2
    assert strat["euler"] == 2
    assert len(strat["strata"]) == 2
    singular = strat["strata"][1]
    assert singular["codimension"] == 2
    assert len(singular["components"]) == 2
    assert all(c["closure_euler"] == 1 for c in singular["components"])
    assert [b["total"] for b in payload["breakdowns"]] == [0, 2]
    assert payload["exact_arithmetic"] is True


def test_strata_single_rho(tmp_path, capsys):
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    code, out, _ = run_cli(
        ["strata", "--group", gpath, "--complex", cpath, "--rho", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [b["rho"] for b in payload["breakdowns"]] == [1]


def test_strata_rho_out_of_range(tmp_path, capsys):
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    code, _, err = run_cli(
        ["strata", "--group", gpath, "--complex", cpath, "--rho", "9"], capsys
    )
    assert code == 1
    assert "--rho" in err


def test_strata_codimension_guard(tmp_path, capsys):
    gpath, cpath = write_case_files(tmp_path, "s2-reflection")
    code, out, _ = run_cli(["strata", "--group", gpath, "--complex", cpath], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["breakdowns"] == []
    assert "codimension 1" in payload["skipped"]
    # the stratification is still reported for inspection
    assert payload["stratification"]["strata"][1]["codimension"] == 1


def test_strata_stratifies_once_when_the_guard_fires(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(X):
        calls.append(X)
        return gcomplex.orbit_type_stratification(X)

    for module in (strataformula, cli):
        monkeypatch.setattr(module, "orbit_type_stratification", counted)
    gpath, cpath = write_case_files(tmp_path, "s2-reflection")
    code, _, _ = run_cli(["strata", "--group", gpath, "--complex", cpath], capsys)
    assert code == 3
    assert len(calls) == 1


def test_geometry_is_built_once_per_complex(tmp_path, capsys, monkeypatch):
    calls = {"stratify": 0}
    built = []  # every SimplicialComplex constructed, in order

    def counted(name, fn):
        def wrapper(X):
            calls[name] += 1
            return fn(X)

        return wrapper

    for module in (strataformula, cli):
        monkeypatch.setattr(
            module,
            "orbit_type_stratification",
            counted("stratify", gcomplex.orbit_type_stratification),
        )
    construct = complexes.SimplicialComplex.__init__

    def recorded(self, simplices):
        construct(self, simplices)
        built.append(self)

    monkeypatch.setattr(complexes.SimplicialComplex, "__init__", recorded)
    # the orbit space is counted, never built: the input satisfies condition
    # (A), so it is the only complex, though regularity is one subdivision on
    report = strataformula.verify_strata_vs_oracle(
        corpus.load_case("s2-klein-four").gcomplex
    )
    assert len(report.rows) == 4
    assert report.all_match
    assert calls == {"stratify": 1}
    assert report.subdivisions == 1
    assert len(built) == 1

    calls.update(stratify=0)
    built.clear()
    gpath, cpath = write_case_files(tmp_path, "s2-klein-four")
    code, out, _ = run_cli(["strata", "--group", gpath, "--complex", cpath], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["breakdowns"]) == 4
    assert calls == {"stratify": 1}
    assert payload["subdivisions"] == 1
    assert len(built) == 1


C2_GROUP = {"permutation_generators": [[1, 0]]}
C2_EDGE = {"maximal_simplices": [[0, 1]], "action": {"generator_images": [[1, 0]]}}
C2_TABLE = {
    "conductor": 2,
    "rows": [[[[1, 1], [0, 1]], [[-1, 1], [0, 1]]], [[[1, 1], [0, 1]], [[1, 1], [0, 1]]]],
}


def with_coefficient(pair, cls=1):
    """The C2 table with one coefficient of its first row replaced."""
    rows = json.loads(json.dumps(C2_TABLE["rows"]))
    rows[0][cls][0] = pair
    return dict(C2_TABLE, rows=rows)


@pytest.mark.parametrize(
    "group, complex_data",
    [
        (C2_GROUP, dict(C2_EDGE, maximal_simplices=5)),
        (C2_GROUP, dict(C2_EDGE, maximal_simplices=[["a", 1]])),
        ({"table": [[0, 1], [1, 0]], "generators": [5]}, C2_EDGE),
        (dict(C2_GROUP, character_table={"conductor": 2}), C2_EDGE),
        (dict(C2_GROUP, character_table=5), C2_EDGE),
        (dict(C2_GROUP, character_table=dict(C2_TABLE, rows=5)), C2_EDGE),
        (dict(C2_GROUP, character_table=dict(C2_TABLE, conductor=0)), C2_EDGE),
        (dict(C2_GROUP, character_table=dict(C2_TABLE, conductor="two")), C2_EDGE),
        (dict(C2_GROUP, character_table=with_coefficient([1, 0])), C2_EDGE),
        (dict(C2_GROUP, character_table=with_coefficient([1, 2], cls=0)), C2_EDGE),
        ({"table": [[0, 1], [1, 0]], "generators": ["a"]}, C2_EDGE),
        ({"permutation_generators": [["a", 0]]}, C2_EDGE),
        (C2_GROUP, dict(C2_EDGE, action={"generator_images": [["a", 0]]})),
        (C2_GROUP, dict(C2_EDGE, action={"generator_images": 5})),
        ({"table": [[0, 1], [1, 0]], "generators": [1.7]}, C2_EDGE),
        ({"table": [[0, 1], [1, 0]], "generators": [True]}, C2_EDGE),
        ({"table": [[0, 1.0], [1, 0]]}, C2_EDGE),
        ({"permutation_generators": [[1.9, 0.2]]}, C2_EDGE),
        ({"permutation_generators": [[True, False]]}, C2_EDGE),
        (C2_GROUP, dict(C2_EDGE, maximal_simplices=[[0.0, 1]])),
        (C2_GROUP, dict(C2_EDGE, action={"generator_images": [[1.0, 0]]})),
        (C2_GROUP, dict(C2_EDGE, action={"generator_images": [{"0": True, "1": False}]})),
        (C2_GROUP, dict(C2_EDGE, action={"generator_images": [{"0.0": 1, "1": 0}]})),
        (dict(C2_GROUP, character_table=dict(C2_TABLE, conductor=2.0)), C2_EDGE),
        (dict(C2_GROUP, character_table=with_coefficient([-1.0, 1])), C2_EDGE),
        (C2_GROUP, dict(C2_EDGE, action={"generator_images": [{"0": 1, "1": 0, "01": 0}]})),
    ],
    ids=["maximal-not-a-list", "vertex-not-an-integer", "generator-out-of-range",
         "table-without-rows", "table-not-an-object", "rows-not-a-list",
         "conductor-zero", "conductor-not-an-integer", "zero-denominator",
         "fractional-degree", "generator-not-an-integer",
         "permutation-entry-not-an-integer", "image-entry-not-an-integer",
         "images-not-a-list", "generator-float", "generator-bool",
         "table-entry-float", "permutation-entry-float", "permutation-entry-bool",
         "vertex-float", "image-entry-float", "image-value-bool", "image-key-float",
         "conductor-float", "coefficient-float", "image-key-not-canonical"],
)
def test_malformed_action_input_is_invalid(tmp_path, capsys, group, complex_data):
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    gpath.write_text(json.dumps(group))
    cpath.write_text(json.dumps(complex_data))
    code, out, err = run_cli(
        ["verify", "--group", str(gpath), "--complex", str(cpath)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def switched_z6():
    """Z/6 with one intercalate switched: a Latin square with the identity 0
    that is not associative."""
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    for a in (1, 4):
        for b in (1, 4):
            table[a][b] = (table[a][b] + 3) % 6
    return table


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "table row 1 is not a permutation of element ids"),
        ([[0, 1, 2], [1, 2, 3], [2, 0, 1]], "table row 1 is not a permutation of element ids"),
        ([[0, 1, 2], [1, 2, -1], [2, 0, 1]], "table row 1 is not a permutation of element ids"),
        # permutation rows and the identity 0, so only associativity fails
        # before the columns are scanned
        ([[0, 1, 2], [1, 0, 2], [2, 0, 1]], "table column 1 is not a permutation of element ids"),
        # equal permutation rows: no identity either, the columns named first
        ([[0, 1, 2], [0, 1, 2], [0, 1, 2]], "table column 0 is not a permutation of element ids"),
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "table has no identity element"),
        (switched_z6(), "non-associative table: (1*1)*2 != 1*(1*2)"),
    ],
    ids=["row-repeats-an-id", "row-holds-n", "row-holds-minus-one", "column-not-a-permutation",
         "columns-and-identity-fail", "no-identity", "not-associative"],
)
def test_invalid_group_table_names_its_first_failure(tmp_path, capsys, table, message):
    # rows, columns, identity, associativity: the columns are scanned only
    # when the identity or associativity check fails, and still named first
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    gpath.write_text(json.dumps({"table": table}))
    cpath.write_text(json.dumps(C2_EDGE))
    code, out, err = run_cli(["verify", "--group", str(gpath), "--complex", str(cpath)], capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("elapsed:")] == [f"error: {message}"]


def test_table_with_columns_swapped_is_invalid(tmp_path, capsys):
    # C4's table with the columns of g and g^2 swapped is orthonormal and
    # integral and has the trivial row, but it is not C4's table
    group = {"permutation_generators": [[1, 2, 3, 0]]}
    table = equichi.characters.table_to_json(equichi.group_from_permutations([[1, 2, 3, 0]]))
    for row in table["rows"]:
        row[1], row[2] = row[2], row[1]
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    gpath.write_text(json.dumps(dict(group, character_table=table)))
    cpath.write_text(json.dumps({
        "maximal_simplices": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "action": {"generator_images": [[1, 2, 3, 0]]},
    }))
    code, out, err = run_cli(
        ["verify", "--group", str(gpath), "--complex", str(cpath)], capsys
    )
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: supplied character table is invalid: "
        "character row 0 violates the class algebra identity at classes 1,1\n"
    )


V4_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_generators_that_do_not_generate_are_invalid(tmp_path, capsys):
    """A table group whose listed generators reach only part of it is
    invalid input for the commands that read generators; fine-decomp,
    which reads none, decomposes the bundle as usual."""
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    bpath = tmp_path / "bundle.json"
    gpath.write_text(json.dumps({"table": V4_TABLE, "generators": [1]}))
    cpath.write_text(json.dumps({
        "maximal_simplices": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "action": {"generator_images": [[2, 3, 0, 1]]},
    }))
    bpath.write_text(json.dumps({
        "H": {"generators": [1]},
        "components": [{"id": "a0", "multiplicities": {"0": 1}}],
    }))
    for command in ("verify", "strata"):
        code, out, err = run_cli([command, "--group", str(gpath), "--complex", str(cpath)], capsys)
        assert (code, out) == (1, ""), command
        assert [line for line in err.splitlines() if not line.startswith("elapsed:")] == [
            "error: generators [1] reach 2 of the 4 group elements"
        ]
    code, out, _ = run_cli(["fine-decomp", "--group", str(gpath), "--bundle", str(bpath)], capsys)
    assert code == 0
    assert json.loads(out)["subgroup"] == [0, 1]


def test_one_vertex_complex_under_c2(tmp_path, capsys):
    """Every action row has one position, so every gather returns 1-tuples."""
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    gpath.write_text(json.dumps({"permutation_generators": [[1, 0]]}))
    cpath.write_text(json.dumps({"maximal_simplices": [[5]], "action": {"generator_images": [[5]]}}))
    code, out, _ = run_cli(["verify", "--group", str(gpath), "--complex", str(cpath)], capsys)
    assert code == 0
    assert json.loads(out)["report"] == {
        "all_match": True,
        "euler_characteristic": 1,
        "rows": [
            {"degree": 1, "formula": 0, "match": True, "oracle": 0, "rho": 0},
            {"degree": 1, "formula": 1, "match": True, "oracle": 1, "rho": 1},
        ],
        "skipped": None,
        "subdivisions": 0,
        "totals_consistent": True,
    }
    code, out, _ = run_cli(["strata", "--group", str(gpath), "--complex", str(cpath)], capsys)
    assert code == 0
    report = json.loads(out)
    principal = {"isotropy": [0, 1], "relative": 1}
    assert report["breakdowns"] == [
        {"principal": {**principal, "homogeneous": h, "product": h}, "rho": h, "singular_terms": [], "total": h}
        for h in (0, 1)
    ]
    assert report["stratification"] == {
        "ambient_dim": 0,
        "euler": 1,
        "orbit_space_euler": 1,
        "strata": [
            {
                "codimension": 0,
                "components": [
                    {"closure_euler": 1, "codimension": 0, "dim": 0, "index": 0, "lower_euler": 0, "pieces": 1}
                ],
                "index": 0,
                "is_principal": True,
                "isotropy": [0, 1],
                "isotropy_order": 2,
            }
        ],
    }
    assert (report["skipped"], report["subdivisions"]) == (None, 0)


@pytest.mark.parametrize(
    "maximal, text",
    [
        ([[0, 0, 1]], "maximal simplex [0, 0, 1] repeats a vertex"),
        ([[0, 1], [1, 0, 1]], "maximal simplex [1, 0, 1] repeats a vertex"),
        ([[0, 1], []], "maximal simplex [] has no vertices"),
        ([[]], "maximal simplex [] has no vertices"),
        # both faults: the first in input order is named
        ([[0, 1], [2, 2], []], "maximal simplex [2, 2] repeats a vertex"),
        ([[0, 1], [], [2, 2]], "maximal simplex [] has no vertices"),
        # rows out of order are sorted, but only once none repeats a vertex
        ([[2, 0, 1], [2, 1, 2]], "maximal simplex [2, 1, 2] repeats a vertex"),
    ],
    ids=[
        "repeated-vertex",
        "repeated-vertex-beside-an-edge",
        "empty-beside-an-edge",
        "only-empty",
        "repeat-before-empty",
        "empty-before-repeat",
        "out-of-order-then-repeat-out-of-order",
    ],
)
def test_degenerate_maximal_simplex_is_named(tmp_path, capsys, maximal, text):
    # such a simplex used to be read as a smaller one, or dropped
    gpath = tmp_path / "group.json"
    cpath = tmp_path / "complex.json"
    gpath.write_text(json.dumps(C2_GROUP))
    cpath.write_text(json.dumps(dict(C2_EDGE, maximal_simplices=maximal)))
    code, out, err = run_cli(
        ["verify", "--group", str(gpath), "--complex", str(cpath)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {text}\n")


def test_a_wrong_per_mask_euler_number_is_a_defect(tmp_path, capsys, monkeypatch):
    """The fixed-set Lefschetz route sums the Euler numbers cached per fixer
    mask.  One wrong number makes it disagree with the trace route: every
    mask holds the identity, so element 0 is named first, and `verify`
    exits 2 with no report."""
    build_euler = gcomplex.GComplex.mask_euler.func

    def one_wrong(X):
        euler = build_euler(X)
        euler[max(euler)] += 1
        return euler

    monkeypatch.setattr(gcomplex.GComplex, "mask_euler", property(one_wrong))
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    code, out, err = run_cli(["verify", "--group", gpath, "--complex", cpath], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("defect: Lefschetz number disagreement at element 0: trace 2 vs fixed-set 3\n")


def test_parser_is_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--rho", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: equichi [-h] {strata,verify,fine-decomp,assemble} ...\n"
        "equichi: error: unrecognized arguments: --rho 1\n"
    )


C3_IN_S3 = json.loads(corpus.read_corpus_bytes("bundle-c3-in-s3").decode("utf-8"))


def bundle_with(**changes):
    return dict(C3_IN_S3["bundle"], **changes)


def multiplicity(m):
    return bundle_with(components=[{"id": "a0", "multiplicities": {"0": m, "1": m}}])


def beta_with(**changes):
    """BETA_DATA with keys of the data block or, under `entry`, of its one
    fine entry replaced."""
    entry = dict(BETA_DATA["strata"][0]["entries"][0], **changes.pop("entry", {}))
    return dict(dict(BETA_DATA, strata=[{"id": "s1", "entries": [entry]}]), **changes)


def run_on_data(tmp_path, capsys, command, data, *flags):
    """Run fine-decomp (over the group of bundle-c3-in-s3) or assemble on
    `data`, written to a file."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    if command == "fine-decomp":
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps(C3_IN_S3["group"]))
        argv = ["fine-decomp", "--group", str(gpath), "--bundle", str(path)]
    else:
        argv = ["assemble", "--data", str(path)]
    return run_cli([*argv, *flags], capsys)


@pytest.mark.parametrize(
    "command, data",
    [
        ("fine-decomp", multiplicity(1.7)),
        ("fine-decomp", multiplicity(True)),
        ("fine-decomp", bundle_with(H=5)),
        ("fine-decomp", bundle_with(components=5)),
        ("fine-decomp", bundle_with(component_action=[])),
        ("fine-decomp", bundle_with(component_action={"0": 5})),
        ("assemble", beta_with(dim=1.5)),
        ("assemble", beta_with(entry={"n_b": 1.5})),
        ("assemble", beta_with(entry={"rank": 2.9})),
        ("assemble", beta_with(entry={"h": 0.5})),
        ("assemble", beta_with(strata=5)),
        ("assemble", dict(BETA_DATA, strata=[{"id": "s1", "entries": 5}])),
        ("assemble", beta_with(entry={"n_b": "x"})),
        ("assemble", beta_with(entry={"h": None})),
        ("assemble", beta_with(entry={"rank": [1]})),
        ("assemble", beta_with(dim=None)),
        ("fine-decomp", bundle_with(components=[{"id": "a0", "multiplicities": {"0": 1, "1": 1, "01": 1}}])),
        ("fine-decomp", bundle_with(components=[{"id": "a0", "multiplicities": {"0": 1, "1": 1, "-0": 1}}])),
        ("assemble", {"per_rho": {"1": BETA_DATA, "01": PER_RHO_DATA["per_rho"]["0"]}}),
        ("assemble", {"per_rho": {"0": BETA_DATA, "-0": BETA_DATA}}),
    ],
    ids=["multiplicity-float", "multiplicity-bool", "H-not-an-object",
         "components-not-a-list", "component-action-a-list",
         "component-moves-not-an-object", "dim-float", "n_b-float", "rank-float",
         "h-float", "strata-not-a-list", "entries-not-a-list", "n_b-string",
         "h-null", "rank-a-list", "dim-null", "multiplicity-key-leading-zero",
         "multiplicity-key-minus-zero", "per-rho-key-leading-zero", "per-rho-key-minus-zero"],
)
def test_malformed_bundle_and_index_input_is_invalid(tmp_path, capsys, command, data):
    code, out, err = run_on_data(tmp_path, capsys, command, data)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "mode, shown",
    [(5, "5"), (None, "None"), (True, "True"), (["equivariant"], "['equivariant']")],
    ids=["integer", "null", "true", "list"],
)
def test_mode_that_is_not_a_string_is_invalid(tmp_path, capsys, mode, shown):
    """5 and null used to be read as the modes "5" and "None"."""
    code, out, err = run_on_data(tmp_path, capsys, "assemble", beta_with(mode=mode))
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: mode must be a JSON string, got {shown}"


@pytest.mark.parametrize(
    "H, message",
    [
        ({"elements": [0, 2, 4, 6]}, "subgroup elements must be element ids in [0, 5]"),
        ({"elements": [-1, 0]}, "subgroup elements must be element ids in [0, 5]"),
        ({"generators": [2, 9]}, "subgroup generators must be element ids in [0, 5]"),
        ({"generators": [-4]}, "subgroup generators must be element ids in [0, 5]"),
    ],
)
def test_bundle_subgroup_ids_outside_the_group_are_invalid(tmp_path, capsys, H, message):
    gpath, bpath = tmp_path / "group.json", tmp_path / "bundle.json"
    gpath.write_text(json.dumps(C3_IN_S3["group"]))
    bpath.write_text(json.dumps(bundle_with(H=H)))
    code, out, err = run_cli(["fine-decomp", "--group", str(gpath), "--bundle", str(bpath)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: {message}"


NOT_NAMES = [None, True, 1.5, [], {}]


def named(field, name, target):
    """The command and the index data with the stratum record id `name`, or
    the bundle data with the component id `name`, which element 1 moves to
    `target`."""
    if field == "stratum record id":
        return "assemble", dict(BETA_DATA, strata=[dict(BETA_DATA["strata"][0], id=name)])
    component = {"id": name, "multiplicities": {"0": 1, "1": 1}}
    return "fine-decomp", bundle_with(components=[component], component_action={"1": {str(name): target}})


@pytest.mark.parametrize("field", ["bundle component id", "component_action target of element 1", "stratum record id"])
@pytest.mark.parametrize("bad", NOT_NAMES, ids=["null", "true", "float", "list", "object"])
def test_ids_that_are_neither_strings_nor_integers_are_invalid(tmp_path, capsys, field, bad):
    """null, true, 1.5, [] and {} used to become the ids "None", "True",
    "1.5", "[]" and "{}".  A target is checked against a component whose id
    is that text, so only its type is wrong."""
    command, data = named(field, str(bad) if field.startswith("component_action") else bad, bad)
    code, out, err = run_on_data(tmp_path, capsys, command, data)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: {field} must be a JSON string or integer, got {bad!r}"


@pytest.mark.parametrize("field", ["bundle component id", "stratum record id"])
def test_integer_ids_report_as_their_strings(tmp_path, capsys, field):
    """The id 7 and the id "7" give one report, apart from the input digest."""
    reports = []
    for name in (7, "7"):
        code, out, _ = run_on_data(tmp_path, capsys, *named(field, name, name))
        assert code == 0 and '"7"' in out
        reports.append({k: v for k, v in json.loads(out).items() if k != "inputs"})
    assert reports[0] == reports[1]


DIGITS = int("9" * 4300)  # at the int-to-str limit, so twice it is past it


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "command, data",
    [
        ("fine-decomp", multiplicity(DIGITS)),
        ("assemble", beta_with(principal_integral=DIGITS, entry={"integral": DIGITS})),
        ("assemble", beta_with(principal_integral=DIGITS, entry={"integral": DIGITS, "eta": -1})),
    ],
    ids=["fine-decomp-rank", "assemble-fractional-total", "assemble-integer-total"],
)
def test_an_integer_past_the_digit_limit_is_one_error_line(tmp_path, capsys, command, data, fmt):
    """A report holding an integer that Python will not write as a string
    exits 1 with one `error:` line, nothing on stdout and no --out file."""
    target = tmp_path / "report.txt"
    for out_flags in ([], ["--out", str(target)]):
        code, out, err = run_on_data(tmp_path, capsys, command, data, "--format", fmt, *out_flags)
        assert (code, out) == (1, "")
        (line,) = [line for line in err.splitlines() if not line.startswith("elapsed:")]
        assert line == f"error: the report holds an integer of more than {sys.get_int_max_str_digits()} digits"
        assert not target.exists()


def test_fine_decomp_report(tmp_path, capsys):
    doc = json.loads(corpus.read_corpus_bytes("bundle-c3-in-s3").decode("utf-8"))
    gpath = tmp_path / "group.json"
    bpath = tmp_path / "bundle.json"
    gpath.write_text(json.dumps(doc["group"]))
    bpath.write_text(json.dumps(doc["bundle"]))
    code, out, _ = run_cli(
        ["fine-decomp", "--group", str(gpath), "--bundle", str(bpath)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["subgroup"] == [0, 2, 4]
    assert payload["normalizer"] == [0, 1, 2, 3, 4, 5]
    comp = payload["components"][0]
    assert comp["id"] == "a0"
    piece = comp["pieces"][0]
    assert piece["orbit"] == [0, 1]
    assert piece["rank"] == 2
    assert piece["type_count"] == 2
    assert piece["canonical"]["ambient_index"] == 2
    assert piece["canonical"]["ambient_degree"] == 2
    assert piece["canonical"]["adapted_to_input"] is True


def test_fine_decomp_rejects_non_equivariant_bundle(tmp_path, capsys):
    doc = json.loads(
        corpus.read_corpus_bytes("bundle-bad-equivariance").decode("utf-8")
    )
    gpath = tmp_path / "group.json"
    bpath = tmp_path / "bundle.json"
    gpath.write_text(json.dumps(doc["group"]))
    bpath.write_text(json.dumps(doc["bundle"]))
    code, _, err = run_cli(
        ["fine-decomp", "--group", str(gpath), "--bundle", str(bpath)], capsys
    )
    assert code == 1
    assert "not equivariant" in err


SWAPPED = bundle_with(
    components=[
        {"id": "a", "multiplicities": {"0": 1, "2": 2}},
        {"id": "b", "multiplicities": {"1": 1, "2": 2}},
    ],
    component_action={n: {"a": "b", "b": "a"} for n in ("1", "3", "5")},
)


def test_fine_decomp_over_components_the_reflections_swap(tmp_path, capsys):
    """Each component is fixed by the rotations alone, so its pieces are
    single irreducibles, and no canonical bundle, which also lives over the
    other component, is adapted to the input."""
    code, out, _ = run_on_data(tmp_path, capsys, "fine-decomp", SWAPPED)
    assert code == 0
    payload = json.loads(out)
    assert payload["normalizer"] == [0, 1, 2, 3, 4, 5]

    def piece(orbit, multiplicity, ambient_index, ambient_degree):
        return {
            "canonical": {
                "adapted_to_input": False,
                "ambient_degree": ambient_degree,
                "ambient_index": ambient_index,
            },
            "degree": 1,
            "multiplicity": multiplicity,
            "orbit": orbit,
            "rank": multiplicity,
            "type_count": 1,
        }

    assert payload["components"] == [
        {"id": cid, "pieces": [piece([i], 1, 2, 2), piece([2], 2, 0, 1)], "stabilizer": [0, 2, 4]}
        for cid, i in (("a", 0), ("b", 1))
    ]


def test_fine_decomp_names_the_element_that_moves_a_component_inequivariantly(tmp_path, capsys):
    data = dict(SWAPPED, components=[
        {"id": "a", "multiplicities": {"0": 1, "2": 2}},
        {"id": "b", "multiplicities": {"0": 1, "2": 2}},
    ])
    code, out, err = run_on_data(tmp_path, capsys, "fine-decomp", data)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == (
        "error: bundle data is not equivariant: element 1 sends component a "
        "irreducible 0 (multiplicity 1) to component b irreducible 1 (multiplicity 0)"
    )


def test_fine_decomp_builds_one_twist_map_per_normalizer_element(tmp_path, capsys, monkeypatch):
    built = []
    twist_index_map = finedecomp.twist_index_map

    def counted(H, n):
        built.append(n)
        return twist_index_map(H, n)

    monkeypatch.setattr(finedecomp, "twist_index_map", counted)
    code, _, _ = run_on_data(tmp_path, capsys, "fine-decomp", C3_IN_S3["bundle"])
    assert code == 0
    assert built == [0, 1, 2, 3, 4, 5]


def test_assemble_single_block(tmp_path, capsys):
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(BETA_DATA))
    code, out, _ = run_cli(["assemble", "--data", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    (result,) = payload["results"]
    assert result["total"] == [1, 2]
    assert result["is_integer"] is False
    assert "not an integer" in result["warning"]


def test_assemble_per_rho_blocks(tmp_path, capsys):
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(PER_RHO_DATA))
    code, out, _ = run_cli(["assemble", "--data", str(path)], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["rho"] for r in results] == [0, 1]
    assert results[0]["is_integer"] is True
    assert results[1]["total"] == [1, 3]

    code, out, _ = run_cli(["assemble", "--data", str(path), "--rho", "1"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["rho"] for r in results] == [1]

    code, _, err = run_cli(["assemble", "--data", str(path), "--rho", "7"], capsys)
    assert code == 1
    assert "no entry for irreducible index 7" in err


def test_malformed_json_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["assemble", "--data", str(path)], capsys)
    assert code == 1
    assert "error:" in err


def test_unreadable_files_exit_invalid_naming_the_path(tmp_path, capsys):
    """Unreadable input files and an unwritable --out end with exit 1 and one
    `error:` line naming the path, not a traceback."""
    data = tmp_path / "idx.json"
    data.write_text(json.dumps(BETA_DATA))
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    contents = {
        "bad-bytes.json": b"\xff\xfe",
        "deep.json": b"[" * 200_000,
        "long-int.json": b"9" * 5000,
    }
    runs = [
        (["verify", "--group", str(tmp_path / "missing.json"), "--complex", cpath],
         tmp_path / "missing.json"),
        (["assemble", "--data", str(tmp_path)], tmp_path),
        (["assemble", "--data", str(data), "--out", str(tmp_path / "no-dir" / "r.json")],
         tmp_path / "no-dir" / "r.json"),
    ]
    for name, raw in contents.items():
        (tmp_path / name).write_bytes(raw)
        runs.append((["assemble", "--data", str(tmp_path / name)], tmp_path / name))
    for argv, path in runs:
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert out == ""
        (line,) = [line for line in err.splitlines() if not line.startswith("elapsed:")]
        assert line.startswith("error: ") and str(path) in line, line


CRLF_SYNTAX = b'{\r\n  "a": [1,\r\n  2,,\r\n 3]\r\n}\r\n'


def text_mode_error(path):
    """The `error:` line for a file that text-mode reading (UTF-8, universal
    newlines) and `json.load` refuse, as the commands word it."""
    try:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    except OSError as exc:
        return f"error: cannot read {path}: {exc.strerror}"
    except (ValueError, RecursionError) as exc:
        return f"error: {path} is not valid JSON: {exc}"
    raise AssertionError(f"{path} reads as JSON")


@pytest.mark.parametrize(
    "raw",
    [
        CRLF_SYNTAX,
        b'\xef\xbb\xbf{"a": 1}',
        b'{"a": "\xff"}',
        b'[' + b'0, ' * 4000 + b'"\xc3\x28"]',
        b"9" * 5000,
        b"[" * 200_000,
        None,  # a directory
        "missing",
    ],
    ids=["crlf-syntax", "bom", "invalid-utf8", "invalid-utf8-past-8k", "digit-limit", "deep", "directory", "missing"],
)
def test_a_file_read_once_keeps_the_text_mode_errors(tmp_path, capsys, raw):
    """Each input is read once as bytes, hashed, and decoded as text mode
    decodes it, so every error names the same line, column, char, byte
    position or reason."""
    path = tmp_path / "input.json"
    if raw is None:
        path.mkdir()
    elif raw != "missing":
        path.write_bytes(raw)
    want = text_mode_error(path)
    if raw == CRLF_SYNTAX:
        # lines and chars of the text with each CRLF read as one newline
        assert want.endswith("Expecting value: line 3 column 5 (char 17)")
    gpath, cpath = write_case_files(tmp_path, "s2-pi-rotation")
    for argv in (
        ["verify", "--group", str(path), "--complex", cpath],
        ["strata", "--group", gpath, "--complex", str(path)],
        ["fine-decomp", "--group", str(path), "--bundle", cpath],
        ["assemble", "--data", str(path)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.splitlines()[0] == want, argv


@pytest.fixture
def pipe():
    """A path to the read end of a pipe holding the given bytes, as a shell's
    process substitution gives it; the bytes can be read once."""
    fds = []

    def make(raw):
        r, w = os.pipe()
        os.write(w, raw)
        os.close(w)
        fds.append(r)
        return f"/dev/fd/{r}"

    yield make
    for fd in fds:
        os.close(fd)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("command", ["verify", "strata", "fine-decomp", "assemble"])
def test_inputs_from_pipes_report_the_digest_of_the_bytes_parsed(tmp_path, capsys, pipe, command):
    """Reading a pipe drains it, so a digest taken by reading the path again
    would be that of no bytes; the report holds the digest of what was
    parsed and is the report of the same bytes given as files."""
    if command in ("verify", "strata"):
        doc = json.loads(corpus.read_corpus_bytes("s2-pi-rotation").decode("utf-8"))
        inputs = {"group": doc["group"], "complex": doc["complex"]}
    elif command == "fine-decomp":
        inputs = {"group": C3_IN_S3["group"], "bundle": C3_IN_S3["bundle"]}
    else:
        inputs = {"data": BETA_DATA}
    raw = {name: json.dumps(value).encode("utf-8") for name, value in inputs.items()}
    for name, data in raw.items():
        (tmp_path / name).write_bytes(data)
    code, from_files, _ = run_cli([command, *(a for n in raw for a in (f"--{n}", str(tmp_path / n)))], capsys)
    assert code == 0
    code, from_pipes, _ = run_cli([command, *(a for n, data in raw.items() for a in (f"--{n}", pipe(data)))], capsys)
    assert code == 0
    assert from_pipes == from_files
    assert json.loads(from_pipes)["inputs"] == {n: {"sha256": hashlib.sha256(data).hexdigest()} for n, data in raw.items()}


@pytest.mark.parametrize("command", ["verify", "strata", "fine-decomp", "assemble"])
def test_each_command_reads_each_input_file_once(tmp_path, capsys, monkeypatch, command):
    if command in ("verify", "strata"):
        paths = dict(zip(("group", "complex"), write_case_files(tmp_path, "s2-reflection")))
    elif command == "fine-decomp":
        paths = {name: str(tmp_path / name) for name in ("group", "bundle")}
        for name, path in paths.items():
            Path(path).write_text(json.dumps(C3_IN_S3[name]))
    else:
        paths = {"data": str(tmp_path / "data")}
        Path(paths["data"]).write_text(json.dumps(BETA_DATA))
    reads = []
    read = jsonio._read

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(jsonio, "_read", counted)
    code, _, _ = run_cli([command, *(a for n, p in paths.items() for a in (f"--{n}", p))], capsys)
    assert code == (3 if command in ("verify", "strata") else 0)
    assert reads == list(paths.values())


def test_missing_out_directory_fails_before_the_run(tmp_path, capsys):
    """An --out path into a missing directory exits 1 before any work: its
    one stderr line is the `error:` line, with no `elapsed:` line, and no
    file is made.  A path the write itself fails on still exits 1 after."""
    target = tmp_path / "no-dir" / "x.json"
    code, out, err = run_cli(["verify", "--corpus", "--out", str(target)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]
    assert not target.parent.exists()
    data = tmp_path / "idx.json"
    data.write_text(json.dumps(BETA_DATA))
    code, out, err = run_cli(["assemble", "--data", str(data), "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: cannot write {tmp_path}: Is a directory"


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(BETA_DATA))
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["assemble", "--data", str(path), "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "assemble"


def test_table_format_renders_text(tmp_path, capsys):
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(BETA_DATA))
    code, out, _ = run_cli(
        ["assemble", "--data", str(path), "--format", "table"], capsys
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "results" in out


def test_timing_goes_to_stderr_not_stdout(capsys):
    _, out, err = run_cli(["verify", "--corpus", "--case", "interval-trivial"], capsys)
    assert "elapsed" in err
    assert "elapsed" not in out


def test_module_entry_point_round_trip():
    cmd = [sys.executable, "-m", "equichi.cli", "verify", "--corpus", "--case", "s2-antipodal"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["ok"] == 1


STDLIB_ONLY = """
import io, json, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
import equichi
from equichi import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--corpus"])
allowed = sys.stdlib_module_names | {"equichi"}
foreign = sorted(n for n in sys.modules if n != "__main__" and n.split(".")[0] not in allowed)
print(json.dumps([code, foreign]))
"""


def test_verify_corpus_loads_only_the_standard_library():
    # a fresh interpreter without site hooks, so only what equichi imports
    # loads; -E drops PYTHONDONTWRITEBYTECODE, so -B keeps it from writing
    # bytecode next to the sources
    package_root = str(Path(equichi.__file__).resolve().parent.parent)
    cmd = [sys.executable, "-B", "-E", "-S", "-c", STDLIB_ONLY, package_root]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, foreign = json.loads(done.stdout)
    assert code == 3  # s2-reflection is skipped by the codimension guard
    assert foreign == []
