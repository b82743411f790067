"""Command line front end.

Subcommands:

  strata       stratified isotypical Euler breakdowns for an action
  verify       compare the stratified route against the trace oracle
  fine-decomp  split bundle data over fixed components into fine pieces
  assemble     evaluate a stratified index sum from spectral data

Each input file is read once, through `_read_inputs`: the bytes parsed are
the bytes whose sha256 the report's `inputs` block gives, so a pipe works as
an input.  Reports go to stdout (or --out) as canonical JSON: keys sorted,
trailing newline, no timestamps or machine-dependent content, so the same
input bytes always produce the same output bytes.  Wall time goes to stderr.

Exit codes: 0 success (and, for verify, all routes agree); 1 invalid input,
or a report holding an integer too long for Python to write; 2 route
mismatch or internal defect; 3 a codimension guard skipped the stratified
route.  In aggregate mode a mismatch outranks a skip, which
outranks success.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from functools import cache
from typing import Any

from . import corpus
from .assembler import assemble_index
from .characters import character_table
from .errors import DefectError, ValidationError
from .finedecomp import canonical_isotropy_bundle, fine_decomposition, is_adapted
from .complexes import euler_of_complex
from .gcomplex import _ladder, orbit_type_stratification
from .jsonio import (
    bundle_from_json,
    canonical_json,
    gcomplex_from_json,
    group_from_json,
    index_file_from_json,
    read_json_file,
)
from .strataformula import StrataGeometry, verify_strata_vs_oracle

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_SKIPPED = 3

# the outcomes of verify --corpus, worst first: the worst case's code wins
CORPUS_OUTCOMES = {EXIT_MISMATCH: "mismatch", EXIT_SKIPPED: "skipped", EXIT_OK: "ok"}


def _read_inputs(args, *flags: str) -> tuple[list[Any], dict]:
    """The JSON value of the file each flag names, each file read once, in
    flag order, and the report's `inputs` block of their sha256 digests."""
    values, inputs = [], {}
    for flag in flags:
        value, digest = read_json_file(getattr(args, flag))
        values.append(value)
        inputs[flag] = {"sha256": digest}
    return values, inputs


def _load_action(args) -> tuple[Any, dict]:
    (group_data, complex_data), inputs = _read_inputs(args, "group", "complex")
    return gcomplex_from_json(complex_data, group_from_json(group_data)), inputs


def _stratification_summary(X, strat) -> dict:
    strata = []
    for s in strat.strata:
        strata.append(
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
                        "closure_euler": c.closure_euler,
                        "lower_euler": c.lower_euler,
                    }
                    for c in s.components
                ],
            }
        )
    return {
        "ambient_dim": strat.ambient_dim,
        # the open components partition Q
        "orbit_space_euler": sum(
            c.closure_euler - c.lower_euler for s in strat.strata for c in s.components
        ),
        "euler": euler_of_complex(X.complex),
        "strata": strata,
    }


def _cmd_strata(args) -> tuple[dict, int]:
    X, inputs = _load_action(args)
    X, subdivisions = _ladder(X)
    table = character_table(X.group)
    if args.rho is not None:
        if not 0 <= args.rho < len(table):
            raise ValidationError(
                f"--rho must lie in [0, {len(table) - 1}] for this group"
            )
        rows = [table[args.rho]]
    else:
        rows = list(table)
    geometry = StrataGeometry(X.group, orbit_type_stratification(X))
    refusal = geometry.refusal
    payload = {
        "command": "strata",
        "inputs": inputs,
        "subdivisions": subdivisions,
        "breakdowns": [] if refusal else [geometry.breakdown(rho).to_json_dict() for rho in rows],
        "stratification": _stratification_summary(X, geometry.stratification),
        "skipped": str(refusal) if refusal else None,
    }
    return payload, EXIT_SKIPPED if refusal else EXIT_OK


def _verify_code(report) -> int:
    if report.skipped is not None:
        return EXIT_SKIPPED
    if not report.all_match or not report.totals_consistent:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    if args.corpus:
        given = [flag for flag, path in (("--group", args.group), ("--complex", args.complex)) if path]
        if given:
            raise ValidationError(f"verify --corpus takes no {' or '.join(given)}")
        entries, codes = [], []
        for cid in corpus.case_ids() if args.case is None else (args.case,):
            case = corpus.load_case(cid)
            report = verify_strata_vs_oracle(case.gcomplex)
            codes.append(_verify_code(report))
            entries.append(
                {
                    "case": cid,
                    "title": case.title,
                    "sha256": case.sha256,
                    "report": report.to_json_dict(),
                }
            )
        summary = {name: codes.count(code) for code, name in CORPUS_OUTCOMES.items()}
        worst = next((code for code in CORPUS_OUTCOMES if code in codes), EXIT_OK)
        return {"command": "verify", "corpus": entries, "summary": summary}, worst
    if not args.group or not args.complex:
        raise ValidationError("verify needs either --corpus or both --group and --complex")
    if args.case is not None:
        raise ValidationError("verify --case restricts --corpus, which is not given")
    X, inputs = _load_action(args)
    report = verify_strata_vs_oracle(X)
    payload = {
        "command": "verify",
        "inputs": inputs,
        "report": report.to_json_dict(),
    }
    return payload, _verify_code(report)


def _cmd_fine_decomp(args) -> tuple[dict, int]:
    (group_data, bundle_data), inputs = _read_inputs(args, "group", "bundle")
    bundle = bundle_from_json(bundle_data, group_from_json(group_data))
    system = bundle.system
    Hgroup, _ = system.H.as_group()
    table = character_table(Hgroup)
    components = []
    for cid in system.component_ids:
        pieces = []
        for piece in fine_decomposition(bundle, cid):
            sigma = table[piece.orbit[0]]
            canonical = canonical_isotropy_bundle(system, cid, sigma)
            pieces.append(
                {
                    "orbit": list(piece.orbit),
                    "multiplicity": piece.multiplicity,
                    "degree": piece.degree,
                    "rank": piece.rank,
                    "type_count": piece.type_count,
                    "canonical": {
                        "ambient_index": canonical.ambient_index,
                        "ambient_degree": canonical.ambient_character.degree,
                        "adapted_to_input": is_adapted(bundle, canonical.piece),
                    },
                }
            )
        components.append(
            {
                "id": cid,
                "stabilizer": list(system.stabilizer(system.position(cid)).elements),
                "pieces": pieces,
            }
        )
    payload = {
        "command": "fine-decomp",
        "inputs": inputs,
        "subgroup": list(system.H.elements),
        "normalizer": list(sorted(system.action)),
        "components": components,
    }
    return payload, EXIT_OK


def _cmd_assemble(args) -> tuple[dict, int]:
    (data,), inputs = _read_inputs(args, "data")
    blocks = index_file_from_json(data)
    if args.rho is not None:
        if args.rho not in blocks:
            raise ValidationError(
                f"the data file has no entry for irreducible index {args.rho}"
            )
        blocks = {args.rho: blocks[args.rho]}
    results = []
    for key in sorted(blocks, key=lambda k: (k is not None, k)):
        entry = assemble_index(blocks[key]).to_json_dict()
        if key is not None:
            entry["rho"] = key
        results.append(entry)
    payload = {
        "command": "assemble",
        "inputs": inputs,
        "results": results,
    }
    return payload, EXIT_OK


def _render_table(payload: dict) -> str:
    """Flat indented text rendering of a report payload."""
    lines: list[str] = []

    def walk(value, indent: int, label: str | None):
        pad = "  " * indent
        if isinstance(value, dict):
            if label is not None:
                lines.append(f"{pad}{label}:")
                indent += 1
            for k in sorted(value):
                walk(value[k], indent, k)
        elif isinstance(value, list):
            if label is not None:
                lines.append(f"{pad}{label}:")
                indent += 1
            if not value:
                lines.append(f"{'  ' * indent}(none)")
            for i, item in enumerate(value):
                walk(item, indent, f"[{i}]")
        else:
            lines.append(f"{pad}{label}: {value}")

    walk(payload, 0, None)
    return "\n".join(lines) + "\n"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="equichi",
        description="isotypical Euler characteristics and stratified index sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument(
            "--format", choices=("json", "table"), default="json",
            help="report format (default json)",
        )
        p.add_argument("--out", help="write the report to this file instead of stdout")

    p_strata = sub.add_parser(
        "strata", help="stratified isotypical Euler breakdowns"
    )
    p_strata.add_argument("--complex", required=True, help="complex-with-action JSON file")
    p_strata.add_argument("--group", required=True, help="group JSON file")
    p_strata.add_argument("--rho", type=int, default=None, help="single irreducible index")
    add_output_flags(p_strata)

    p_verify = sub.add_parser(
        "verify", help="compare the stratified route against the trace oracle"
    )
    p_verify.add_argument("--complex", help="complex-with-action JSON file")
    p_verify.add_argument("--group", help="group JSON file")
    p_verify.add_argument(
        "--corpus", action="store_true", help="run every bundled example case"
    )
    p_verify.add_argument("--case", help="restrict --corpus to one case id")
    add_output_flags(p_verify)

    p_fine = sub.add_parser(
        "fine-decomp", help="fine pieces of bundle data over fixed components"
    )
    p_fine.add_argument("--group", required=True, help="group JSON file")
    p_fine.add_argument("--bundle", required=True, help="bundle JSON file")
    add_output_flags(p_fine)

    p_asm = sub.add_parser(
        "assemble", help="evaluate a stratified index sum from spectral data"
    )
    p_asm.add_argument("--data", required=True, help="index data JSON file")
    p_asm.add_argument(
        "--rho", type=int, default=None,
        help="evaluate one irreducible's block of a per_rho data file",
    )
    add_output_flags(p_asm)

    return parser


COMMANDS = {
    "strata": _cmd_strata,
    "verify": _cmd_verify,
    "fine-decomp": _cmd_fine_decomp,
    "assemble": _cmd_assemble,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a missing --out directory fails before the run, not after it
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        print(f"error: cannot write {args.out}: {os.strerror(errno.ENOENT)}", file=sys.stderr)
        return EXIT_INVALID
    start = time.perf_counter()
    try:
        payload, code = COMMANDS[args.command](args)
        # audit flag: every computational path is integer/rational/cyclotomic
        payload["exact_arithmetic"] = True
        text = canonical_json(payload) if args.format == "json" else _render_table(payload)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DefectError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        # the report holds an integer that Python will not turn into a string
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: the report holds an integer of more than {limit} digits", file=sys.stderr)
        return EXIT_INVALID
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        sys.stdout.write(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
