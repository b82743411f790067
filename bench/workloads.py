"""The benchmark's workloads: seeded set-up, ops, known answers and checks.

Each workload's set-up writes its inputs under a work directory and returns
a list of ops.  An op runs either untraced (the command line entry point or
the public API, exactly as a user calls it) or traced (the same calls made
one by one from here, each wrapped in a span).  Every outcome is checked
against a known answer that does not depend on the seed.
"""

from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from equichi import cli, corpus
from equichi.characters import attach_character_table, character_table, table_to_json, trivial_index
from equichi.complexes import euler_characteristic, euler_of_complex
from equichi.errors import CodimensionError
from equichi.gcomplex import orbit_space, orbit_type_stratification, orientation_character, regularize
from equichi.jsonio import canonical_json, file_digest, gcomplex_from_json, group_from_json, load_json_file
from equichi.lefschetz import equivariant_multiplicities
from equichi.strataformula import VerifyReport, VerifyRow, equivariant_euler_via_strata

import inputs
from spans import Tracer

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# chi^rho of every corpus case in table order; None marks the case the
# codimension guard must skip.  Subdivision leaves all of them unchanged.
CORPUS_CHI_RHO = {
    "s2-identity": (2,),
    "s2-pi-rotation": (0, 2),
    "s2-order4-rotation": (0, 0, 0, 2),
    "s2-klein-four": (0, 0, 0, 2),
    "s2-antipodal": (1, 1),
    "s2-reflection": None,
    "square-trivial": (0, 1),
    "interval-trivial": (1,),
    "torus-involution": (-2, 2),
}
INVALID_BUNDLES = {"bundle-bad-equivariance"}
SUBDIVISION_LEVELS = 4


@dataclass
class Outcome:
    code: int
    payload: Any
    text: str = ""
    err: str = ""


@dataclass
class Op:
    id: str
    kind: str
    run: Callable[[], Any]  # untraced call; returns what `outcome` reads
    traced: Callable[[Tracer], Any]
    outcome: Callable[[Any], Outcome]
    expected: Any


# ---------------------------------------------------------------------------
# running the command line in-process


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return Outcome(code, None, out.getvalue(), err.getvalue())


def parse_report(o: Outcome) -> Outcome:
    try:
        o.payload = json.loads(o.text) if o.text else None
    except json.JSONDecodeError:
        o.payload = None
    return o


def cli_op(op_id: str, kind: str, argv: list[str], expected: Any,
           traced: Callable[[Tracer, list[str]], Outcome]) -> Op:
    """An op that runs one command through cli.main; `traced` is the form
    the traced run uses."""
    return Op(op_id, kind, lambda: run_cli(argv), lambda tr: traced(tr, argv), parse_report, expected)


def whole_command(span: str) -> Callable[[Tracer, list[str]], Outcome]:
    """A traced form that wraps the whole command in one span."""

    def traced(tr: Tracer, argv: list[str]) -> Outcome:
        with tr.span(span):
            return run_cli(argv)

    return traced


def _write(path: Path, data: Any) -> str:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# traced command routes, in the order cli.main and verify_strata_vs_oracle
# make their calls


def _load_action(tr: Tracer, argv: list[str]):
    """What the CLI does for `strata` and `verify` before its own work:
    parse the arguments, read both inputs and digest them."""
    with tr.span("cli.args"):
        args = cli.build_parser().parse_args(argv)
    with tr.span("jsonio.parse"):
        group_data = load_json_file(args.group)
        complex_data = load_json_file(args.complex)
    with tr.span("groups.build"):
        G = group_from_json(group_data)
    with tr.span("gcomplex.build"):
        X = gcomplex_from_json(complex_data, G)
    with tr.span("jsonio.digest"):
        digests = {
            "group": {"sha256": file_digest(args.group)},
            "complex": {"sha256": file_digest(args.complex)},
        }
    tr.count("gcomplex.simplices_in", len(X.complex.simplices))
    with tr.span("gcomplex.regularize"):
        X = regularize(X)
    tr.count("gcomplex.simplices", len(X.complex.simplices))
    tr.count("gcomplex.subdivisions", X.subdivisions)
    with tr.span("characters.table"):
        table = character_table(G)
    _count_table(tr, G, table)
    return args, digests, X, table


def _count_table(tr: Tracer, G, table) -> None:
    k = len(table)
    tr.count("characters.classes", k)
    tr.count("characters.certify_pairs", k * k)
    tr.counts["characters.conductor"] = max(tr.counts.get("characters.conductor", 0), G.exponent)


def _report(tr: Tracer, payload: dict, code: int) -> Outcome:
    payload["exact_arithmetic"] = True
    with tr.span("jsonio.report"):
        text = canonical_json(payload)
    return Outcome(code, None, text)


def _count_strata(tr: Tracer, strat) -> None:
    tr.count("gcomplex.strata", len(strat.strata))
    tr.count("gcomplex.components", sum(len(s.components) for s in strat.singular))


GEOMETRY_REPEATS = 3


def _probe_geometry(tr: Tracer, X) -> None:
    """Time the rho-independent geometry of one complex: stratification,
    orbit space and orientation characters, as probes made only in the traced
    run.  Each is timed GEOMETRY_REPEATS times back to back; the metrics
    take the median, so one slow repeat does not skew the wasted-work ratio."""
    for _ in range(GEOMETRY_REPEATS):
        with tr.span("gcomplex.stratify", probe=True):
            strat = orbit_type_stratification(X)
        with tr.span("gcomplex.orbit_space", probe=True):
            orbit_space(X)
        with tr.span("gcomplex.orientation", probe=True):
            for stratum in strat.singular:
                for component in stratum.components:
                    if component.codim >= 2:
                        orientation_character(X, stratum, component)
    _count_strata(tr, strat)


def traced_verify(tr: Tracer, argv: list[str]) -> Outcome:
    """`verify --group --complex` call by call, as cli.main and
    verify_strata_vs_oracle make them, building the same report."""
    _, digests, X, table = _load_action(tr, argv)
    with tr.span("complexes.euler"):
        chi_m = euler_of_complex(X.complex)
    with tr.span("lefschetz.multiplicities"):
        oracle = equivariant_multiplicities(X)
    tr.count("lefschetz.evaluations", X.group.order)
    rows, skipped = [], None
    try:
        for rho in table:
            tr.count("strataformula.rho_calls")
            with tr.span("strataformula.per_rho"):
                breakdown = equivariant_euler_via_strata(X, rho)
            rows.append(VerifyRow(rho.index, rho.degree, oracle.chi_rho[rho.index], breakdown.total))
    except CodimensionError as exc:
        rows, skipped = [], str(exc)
    _probe_geometry(tr, X)
    report = VerifyReport(tuple(rows), skipped, X.subdivisions, chi_m)
    code = 3 if skipped else (0 if report.all_match and report.totals_consistent else 2)
    payload = {"command": "verify", "inputs": digests, "report": report.to_json_dict()}
    return _report(tr, payload, code)


def _stratification_summary(tr: Tracer, X) -> dict:
    """The `stratification` block of a `strata` report."""
    with tr.span("gcomplex.stratify"):
        strat = orbit_type_stratification(X)
    with tr.span("gcomplex.orbit_space"):
        Q = orbit_space(X)
    _count_strata(tr, strat)
    with tr.span("complexes.euler"):
        strata = [
            {
                "index": s.index,
                "isotropy": list(s.isotropy.elements),
                "isotropy_order": len(s.isotropy.elements),
                "codimension": s.codimension,
                "is_principal": s.is_principal,
                "components": [
                    {
                        "index": c.index,
                        "dim": c.dim,
                        "codimension": c.codim,
                        "pieces": len(c.piece_indices),
                        "closure_euler": euler_characteristic(Q.project(c.closure)),
                        "lower_euler": euler_characteristic(Q.project(c.lower)),
                    }
                    for c in s.components
                ],
            }
            for s in strat.strata
        ]
        return {
            "ambient_dim": strat.ambient_dim,
            "orbit_space_euler": euler_of_complex(Q.complex),
            "euler": euler_of_complex(X.complex),
            "strata": strata,
        }


def traced_strata(tr: Tracer, argv: list[str]) -> Outcome:
    """`strata --group --complex --rho` call by call, as cli.main makes them,
    building the same report."""
    args, digests, X, table = _load_action(tr, argv)
    breakdowns, skipped, code = [], None, 0
    try:
        tr.count("strataformula.rho_calls")
        with tr.span("strataformula.per_rho"):
            breakdowns.append(equivariant_euler_via_strata(X, table[args.rho]).to_json_dict())
    except CodimensionError as exc:
        breakdowns, skipped, code = [], str(exc), 3
    payload = {
        "command": "strata",
        "inputs": digests,
        "subdivisions": X.subdivisions,
        "stratification": _stratification_summary(tr, X),
        "breakdowns": breakdowns,
        "skipped": skipped,
    }
    return _report(tr, payload, code)


# ---------------------------------------------------------------------------
# checks: each returns None when the outcome is right, else the reason


def check_verify(expected, o: Outcome) -> str | None:
    report = (o.payload or {}).get("report")
    if report is None:
        return f"exit {o.code} without a report"
    if expected is None:
        if o.code != 3 or not report["skipped"] or report["rows"]:
            return f"expected a codimension skip (exit 3), got exit {o.code}"
        return None
    if o.code != 0 or report["skipped"] is not None:
        return f"exit {o.code}, skipped={report['skipped']!r}"
    if not (report["all_match"] and report["totals_consistent"]):
        return "routes disagree or totals inconsistent"
    formula = tuple(r["formula"] for r in report["rows"])
    oracle = tuple(r["oracle"] for r in report["rows"])
    if formula != tuple(expected) or oracle != tuple(expected):
        return f"chi_rho {formula}/{oracle} != known {tuple(expected)}"
    return None


def check_strata(expected, o: Outcome) -> str | None:
    rows = (o.payload or {}).get("breakdowns") or []
    if o.code != 0 or len(rows) != 1:
        return f"exit {o.code} with {len(rows)} breakdowns"
    if rows[0]["rho"] != expected["rho"] or rows[0]["total"] != expected["total"]:
        return f"breakdown rho={rows[0]['rho']} total={rows[0]['total']} != known {expected}"
    return None


def check_report(expected, o: Outcome) -> str | None:
    if o.code != 0 or o.text != expected:
        return f"exit {o.code}; report differs from the expected report"
    return None


def check_invalid(expected, o: Outcome) -> str | None:
    if o.code != expected or o.text or not o.err.startswith("error:"):
        return f"expected exit {expected} with an error message, got exit {o.code}"
    return None


def check_table(expected, o: Outcome) -> str | None:
    got = o.payload
    degrees = sorted(got["degrees"])
    if got["classes"] != len(expected["degrees"]) or degrees != expected["degrees"]:
        return f"{got['classes']} classes of degrees {degrees} != known {expected['degrees']}"
    if sum(d * d for d in degrees) != got["order"] or got["order"] != expected["order"]:
        return f"sum of squared degrees {sum(d * d for d in degrees)} != |G| {got['order']}"
    if "table" in expected and got["table"] != expected["table"]:
        return "attached table differs from the built one"
    return None


CHECKS = {
    "verify": check_verify,
    "strata": check_strata,
    "report": check_report,
    "invalid": check_invalid,
    "table": check_table,
}


def check(op: Op, o: Outcome) -> str | None:
    return CHECKS[op.kind](op.expected, o)


# ---------------------------------------------------------------------------
# self-check: a wrong expected answer or a corrupted report must fail


def _bump_first_coefficient(table: dict) -> dict:
    table = copy.deepcopy(table)
    table["rows"][0][0][0][0] += 1
    return table


def _mutants(kind: str, expected, o: Outcome) -> list[tuple[str, Any, Outcome]]:
    """(label, expected, outcome) triples that the check for `kind` must fail."""
    def with_payload(edit):
        p = copy.deepcopy(o.payload)
        edit(p)
        return Outcome(o.code, p, o.text, o.err)

    if kind == "verify" and expected is None:
        return [
            ("wrong expected", (2,), o),
            ("corrupted report", None, Outcome(0, with_payload(lambda p: p["report"].update(skipped=None)).payload, o.text, o.err)),
        ]
    if kind == "verify":
        def corrupt(p):  # consistent between routes, so only the known answer can catch it
            p["report"]["rows"][0]["formula"] += 1
            p["report"]["rows"][0]["oracle"] += 1
        return [
            ("wrong expected", (expected[0] + 1,) + tuple(expected[1:]), o),
            ("corrupted report", expected, with_payload(corrupt)),
        ]
    if kind == "strata":
        return [
            ("wrong expected", dict(expected, rho=expected["rho"] + 1), o),
            ("corrupted report", expected, with_payload(lambda p: p["breakdowns"][0].update(total=3))),
        ]
    if kind == "report":
        return [
            ("wrong expected", expected + " ", o),
            ("corrupted report", expected, Outcome(o.code, None, o.text[:-1] + " ")),
        ]
    if kind == "invalid":
        return [
            ("wrong expected", 0, o),
            ("corrupted report", expected, Outcome(0, None, "", o.err)),
        ]
    if kind == "table":
        wrong = dict(expected, degrees=expected["degrees"][:-1] + [expected["degrees"][-1] + 1])
        out = [
            ("wrong expected", wrong, o),
            ("corrupted report", expected, with_payload(lambda p: p["degrees"].__setitem__(-1, p["degrees"][-1] + 1))),
        ]
        if "table" in expected:
            out.append(("corrupted table", expected, with_payload(lambda p: p.update(table=_bump_first_coefficient(p["table"])))))
        return out
    raise KeyError(kind)


def self_check(first: dict[tuple, tuple[Op, Outcome]]) -> tuple[int, list[str]]:
    """Run every mutant of one passing outcome per op kind and variant;
    returns (mutants tried, labels of mutants the checks let through)."""
    tried, missed = 0, []
    for op, o in first.values():
        for label, expected, mutant in _mutants(op.kind, op.expected, o):
            tried += 1
            if CHECKS[op.kind](expected, mutant) is None:
                missed.append(f"{op.id}: {label}")
    return tried, missed


# ---------------------------------------------------------------------------
# workloads


def subdiv_ladder(workdir: Path, seed: int) -> list[Op]:
    """Every corpus action at 0..3 equivariant barycentric subdivisions, plus
    fine-decomp on both corpus bundles and assemble on both index files."""
    rng = random.Random(seed)
    ops = []
    for cid in corpus.case_ids():
        data = json.loads(corpus.read_corpus_bytes(cid))
        group_path = _write(workdir / f"{cid}.group.json", data["group"])
        G = group_from_json(data["group"])
        action = inputs.action_from_json(data["complex"])
        for level in range(SUBDIVISION_LEVELS):
            complex_data = action.relabeled(rng).to_json()
            gcomplex_from_json(complex_data, G)  # validates through build_gcomplex
            complex_path = _write(workdir / f"{cid}.sd{level}.json", complex_data)
            argv = ["verify", "--group", group_path, "--complex", complex_path]
            ops.append(cli_op(f"verify:{cid}:sd{level}", "verify", argv, CORPUS_CHI_RHO[cid], traced_verify))
            if level + 1 < SUBDIVISION_LEVELS:
                action = action.subdivide()
    for bid in corpus.bundle_ids():
        data = json.loads(corpus.read_corpus_bytes(bid))
        argv = [
            "fine-decomp",
            "--group", _write(workdir / f"{bid}.group.json", data["group"]),
            "--bundle", _write(workdir / f"{bid}.bundle.json", data["bundle"]),
        ]
        if bid in INVALID_BUNDLES:
            ops.append(cli_op(f"fine-decomp:{bid}", "invalid", argv, 1, whole_command("finedecomp.decompose")))
        else:
            expected = (EXPECTED_DIR / f"{bid}.report.json").read_text(encoding="utf-8")
            ops.append(cli_op(f"fine-decomp:{bid}", "report", argv, expected, whole_command("finedecomp.decompose")))
    for iid in corpus.index_data_ids():
        data = json.loads(corpus.read_corpus_bytes(iid))
        argv = ["assemble", "--data", _write(workdir / f"{iid}.json", data["data"])]
        expected = (EXPECTED_DIR / f"{iid}.report.json").read_text(encoding="utf-8")
        ops.append(cli_op(f"assemble:{iid}", "report", argv, expected, whole_command("assembler.assemble")))
    return ops


# (name, form, generators, degrees of the irreducibles)
TABLE_GROUPS = [
    ("C12", "permutations", inputs.cyclic(12), [1] * 12),
    ("C20", "permutations", inputs.cyclic(20), [1] * 20),
    ("S4", "permutations", inputs.symmetric(4), [1, 1, 2, 3, 3]),
    ("D30", "permutations", inputs.dihedral(30), [1, 1] + [2] * 7),
    ("C2^4", "table", inputs.elementary_abelian_2(4), [1] * 16),
    ("D12", "table", inputs.dihedral(12), [1, 1, 1, 1, 2, 2]),
    ("A5", "table", inputs.alternating5(), [1, 3, 3, 4, 5]),
    ("S5", "table", inputs.symmetric(5), [1, 1, 4, 4, 5, 5, 6]),
]


def _table_outcome(G) -> Outcome:
    table = character_table(G)
    payload = {
        "order": G.order,
        "classes": len(G.conjugacy_classes()),
        "degrees": [chi.degree for chi in table],
        "table": table_to_json(G),
    }
    return Outcome(0, payload)


def _build(data: dict):
    G = group_from_json(data)
    character_table(G)
    return G


def _traced_build(tr: Tracer, data: dict):
    with tr.span("groups.build"):
        G = group_from_json(data)
    with tr.span("characters.table"):
        table = character_table(G)
    _count_table(tr, G, table)
    return G


def _traced_attach(tr: Tracer, data: dict):
    bare = {k: v for k, v in data.items() if k != "character_table"}
    with tr.span("groups.build"):
        G = group_from_json(bare)
    with tr.span("characters.attach"):
        attach_character_table(G, data["character_table"])
    _count_table(tr, G, character_table(G))
    return G


def char_tables(workdir: Path, seed: int) -> list[Op]:
    """Fresh groups, one `build` (compute the table) and one `attach`
    (validate a supplied table) op each."""
    rng = random.Random(seed)
    ops = []
    for name, form, gens, degrees in TABLE_GROUPS:
        if form == "permutations":
            data = {"permutation_generators": gens}
        else:
            data = {"table": inputs.multiplication_table(gens, rng)}
        order = len(inputs.close_permutations(gens))
        known = {"order": order, "degrees": sorted(degrees)}
        G = group_from_json(data)
        attached = dict(data, character_table=table_to_json(G))
        ops.append(
            Op(f"build:{name}", "table", lambda d=data: _build(d),
               lambda tr, d=data: _traced_build(tr, d), _table_outcome, known)
        )
        ops.append(
            Op(f"attach:{name}", "table", lambda d=attached: group_from_json(d),
               lambda tr, d=attached: _traced_attach(tr, d), _table_outcome,
               dict(known, table=attached["character_table"]))
        )
    return ops


# (name, generator function, group order)
ROTATION_ACTIONS = [
    ("a4-tetrahedron", inputs.tetrahedron_a4, 12),
    ("s4-octahedron", inputs.octahedron_s4, 24),
    ("a5-icosahedron", inputs.icosahedron_a5, 60),
    ("c8-suspension", lambda: inputs.suspended_polygon(8), 8),
    ("c12-suspension", lambda: inputs.suspended_polygon(12), 12),
]


def rotation_groups(workdir: Path, seed: int) -> list[Op]:
    """Orientation-preserving actions on the 2-sphere, given unregularized:
    chi^rho is 2 on the trivial irreducible and 0 on every other, since
    every element has Lefschetz number 2."""
    rng = random.Random(seed)
    ops = []
    for name, make, order in ROTATION_ACTIONS:
        gens, action = make()
        group_data = {"permutation_generators": gens}
        complex_data = action.relabeled(rng).to_json()
        G = group_from_json(group_data)
        if G.order != order:
            raise ValueError(f"{name}: generators give a group of order {G.order}, not {order}")
        gcomplex_from_json(complex_data, G)  # validates through build_gcomplex
        t = trivial_index(G)
        chi = tuple(2 if i == t else 0 for i in range(len(character_table(G))))
        g = _write(workdir / f"{name}.group.json", group_data)
        c = _write(workdir / f"{name}.complex.json", complex_data)
        ops.append(cli_op(f"verify:{name}", "verify", ["verify", "--group", g, "--complex", c], chi, traced_verify))
        argv = ["strata", "--group", g, "--complex", c, "--rho", str(t)]
        ops.append(cli_op(f"strata:{name}", "strata", argv, {"rho": t, "total": 2}, traced_strata))
    return ops


WORKLOADS = {
    "subdiv-ladder": subdiv_ladder,
    "char-tables": char_tables,
    "rotation-groups": rotation_groups,
}
