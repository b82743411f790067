"""JSON interchange: loading problem data, canonical report serialization.

Input formats (all plain JSON objects):

  group:    {"permutation_generators": [[...], ...]}  or
            {"table": [[...], ...], "generators": [...]?}
            with an optional "character_table" block, validated exactly
            before use.  Table generators must generate the group; they
            default to every non-identity element.

  complex:  {"maximal_simplices": [[...], ...],
             "action": {"generator_images": [{...} | [...], ...]}}
            generator images align with the group's generator list, a list
            image with the ascending vertex ids; a maximal simplex lists at
            least one vertex id, none twice, in any order.  Ascending rows
            reach the complex as parsed; rows are sorted only if one is not.

  bundle:   {"H": {"generators": [...] | "elements": [...]},
             "components": [{"id": ..., "multiplicities": {"idx": m}}],
             "component_action": {"elem": {"id": "id"}}}
            omitted normalizer elements act as the identity permutation;
            ids and action targets are JSON strings or integers.

  index:    {"mode": ..., "dim": ..., "principal_integral": r,
             "strata": [{"id": ..., "entries": [{"n_b": ..., "rank": ...,
             "eta": r, "h": ..., "integral": r}]}]}
            where r is an integer or an [numerator, denominator] pair and
            a stratum id is a JSON string or integer.

Each input file is read once: its bytes are hashed for the report and
parsed, so a pipe is digested as read.  Reports are dumped with sorted keys
and a trailing newline so a given input always produces byte-identical
output; nothing time- or path-dependent goes into them.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from fractions import Fraction
from itertools import chain
from typing import Any, Iterable

from .assembler import FineEntry, IndexData, StratumRecord
from .characters import attach_character_table
from .complexes import SimplicialComplex
from .errors import ValidationError
from .finedecomp import BundleData, ComponentSystem
from .gcomplex import GComplex, build_gcomplex
from .groups import (
    FiniteGroup,
    Subgroup,
    group_from_permutations,
    normalizer,
)


# canonical decimals only (str(int(k)) == k), so "1" and "01" are not one id
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def file_digest(path: str) -> str:
    """The sha256 of a file's bytes, read apart from its parse; the
    benchmark times the two stages one by one."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse(path: str, raw: bytes) -> Any:
    """The JSON value of a file's bytes, decoded as text mode reads a file,
    UTF-8 with universal newlines, so an error names the same line, column
    and character."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad syntax or bytes, an integer past Python's digit limit, deep nesting
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def read_json_file(path: str) -> tuple[Any, str]:
    """A file's JSON value and the sha256 of the bytes it was parsed from,
    read once, so a pipe or a file replaced meanwhile gives the digest of
    what was parsed."""
    raw = _read(path)
    return _parse(path, raw), hashlib.sha256(raw).hexdigest()


def load_json_file(path: str) -> Any:
    """A file's JSON value, read as `read_json_file` reads it but not
    hashed; the benchmark times the parse on its own."""
    return _parse(path, _read(path))


def _require(data: dict, key: str, where: str) -> Any:
    _block(data, dict, where)
    if key not in data:
        raise ValidationError(f"{where} is missing the required key {key!r}")
    return data[key]


def _ids(values: Iterable[Any], keys: bool = False) -> list[int]:
    """Integer ids read from JSON: JSON integers, or, when the ids are object
    keys (`keys=True`), the canonical decimal strings of integers.  Anything
    else, a float, a bool or a key such as "01" or "-0" included, raises
    ValueError, never a truncated or merged id."""
    out = list(values)
    if keys:
        out = [int(v) if isinstance(v, str) and _DECIMAL.fullmatch(v) else v for v in out]
    if not set(map(type, out)) <= {int}:
        raise ValueError("ids must be JSON integers")
    return out


def _count(value: Any, what: str) -> int:
    """A count read from JSON: a JSON integer, never a float or a bool."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _name(value: Any, what: str) -> str:
    """A name read from JSON, a string or an integer (never a bool), as text."""
    if type(value) not in (str, int):
        raise ValidationError(f"{what} must be a JSON string or integer, got {value!r}")
    return str(value)


def _block(value: Any, kind: type, what: str) -> Any:
    """A JSON object (kind dict) or list (kind list), checked before use."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def rational_from_json(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        if value[1] == 0:
            raise ValidationError("rational denominator must be nonzero")
        return Fraction(value[0], value[1])
    raise ValidationError(
        f"expected an integer or a [numerator, denominator] pair, got {value!r}"
    )


# ---------------------------------------------------------------------------
# groups


def group_from_json(data: dict) -> FiniteGroup:
    _block(data, dict, "group data")
    if "permutation_generators" in data:
        gens = data["permutation_generators"]
        if not isinstance(gens, list) or not gens:
            raise ValidationError("permutation_generators must be a nonempty list")
        try:
            perms = [tuple(_ids(p)) for p in gens]
        except (TypeError, ValueError):
            raise ValidationError(
                "permutation_generators must be lists of integer point ids"
            ) from None
        G = group_from_permutations(perms)
    elif "table" in data:
        try:
            table = [_ids(row) for row in data["table"]]
            generators = tuple(_ids(data.get("generators", ())))
        except (TypeError, ValueError):
            raise ValidationError(
                "table must be a list of rows of integer element ids, and "
                "generators a list of integer element ids"
            ) from None
        G = FiniteGroup(table, generators=generators)
    else:
        raise ValidationError(
            "group data needs either 'permutation_generators' or 'table'"
        )
    if "character_table" in data:
        attach_character_table(G, data["character_table"])
    return G


# ---------------------------------------------------------------------------
# complexes with actions


def gcomplex_from_json(data: dict, group: FiniteGroup) -> GComplex:
    _block(data, dict, "complex data")
    maximal = _require(data, "maximal_simplices", "complex data")
    try:
        # one typed pass over every id
        if not set(map(type, chain.from_iterable(maximal))) <= {int}:
            raise ValueError("ids must be JSON integers")
    except (TypeError, ValueError):
        raise ValidationError(
            "maximal_simplices must be a list of lists of integer vertex ids"
        ) from None
    if not maximal:
        raise ValidationError("complex data lists no simplices")
    # The rows go to the complex as given.  Only if one is empty or not
    # strictly ascending are they read one by one: the first empty or
    # repeating row in input order is named, and otherwise each row is
    # sorted, as a row given out of order is a simplex all the same.
    try:
        if not all(maximal):
            raise ValidationError("a maximal simplex has no vertices")
        complex = SimplicialComplex(maximal)
    except ValidationError:
        for raw in maximal:
            if not raw:
                raise ValidationError(f"maximal simplex {raw} has no vertices") from None
            if len(set(raw)) != len(raw):
                raise ValidationError(f"maximal simplex {raw} repeats a vertex") from None
        complex = SimplicialComplex(list(map(sorted, maximal)))
    action = _require(data, "action", "complex data")
    raw_images = _require(action, "generator_images", "complex action")
    try:
        images = [
            dict(zip(_ids(img, keys=True), _ids(img.values())))
            if isinstance(img, dict)
            else _ids(img)
            for img in raw_images
        ]
    except (TypeError, ValueError):
        raise ValidationError(
            "generator_images must be a list of vertex maps or lists of integer vertex ids"
        ) from None
    return build_gcomplex(complex, group, images)


# ---------------------------------------------------------------------------
# bundle data over component systems


def _subgroup_from_json(data: dict, group: FiniteGroup) -> Subgroup:
    _block(data, dict, "subgroup data")
    key = "elements" if "elements" in data else "generators"
    if key not in data:
        raise ValidationError("subgroup data needs 'elements' or 'generators'")
    try:
        ids = _ids(data[key])
    except (TypeError, ValueError):
        raise ValidationError(f"subgroup {key} must be a list of integer element ids") from None
    if key == "elements":
        return Subgroup(group, tuple(sorted(ids)))
    return Subgroup.generated(group, ids)


def bundle_from_json(data: dict, group: FiniteGroup) -> BundleData:
    _block(data, dict, "bundle data")
    H = _subgroup_from_json(_require(data, "H", "bundle data"), group)
    raw_components = _block(_require(data, "components", "bundle data"), list, "components")
    if not raw_components:
        raise ValidationError("bundle data lists no components")
    ids = []
    mults = []
    for comp in raw_components:
        ids.append(_name(_require(comp, "id", "bundle component"), "bundle component id"))
        raw = _require(comp, "multiplicities", "bundle component")
        try:
            counts = [_count(m, "a component multiplicity") for m in raw.values()]
            mults.append(dict(zip(_ids(raw, keys=True), counts)))
        except (AttributeError, TypeError, ValueError):
            raise ValidationError(
                "component multiplicities must map irreducible indices to integers"
            ) from None
    N = normalizer(H)
    id_pos = {cid: i for i, cid in enumerate(ids)}
    raw_action = _block(data.get("component_action", {}), dict, "component_action")
    action: dict[int, tuple[int, ...]] = {}
    for n in N.elements:
        moves = _block(raw_action.get(str(n), {}), dict, f"component_action of element {n}")
        perm = list(range(len(ids)))
        for src, dst in moves.items():
            target = _name(dst, f"component_action target of element {n}")
            if src not in id_pos or target not in id_pos:
                raise ValidationError(
                    f"component_action of element {n} names unknown component "
                    f"{src!r} or {dst!r}"
                )
            perm[id_pos[src]] = id_pos[target]
        action[n] = tuple(perm)
    extra = set(raw_action) - {str(n) for n in N.elements}
    if extra:
        raise ValidationError(
            f"component_action names elements outside the normalizer: {sorted(extra)}"
        )
    system = ComponentSystem(group, H, tuple(ids), action)
    return BundleData.over(system, mults)


# ---------------------------------------------------------------------------
# index data


def index_data_from_json(data: dict) -> IndexData:
    _block(data, dict, "index data")
    mode = _require(data, "mode", "index data")
    if type(mode) is not str:
        raise ValidationError(f"mode must be a JSON string, got {mode!r}")
    dim = _count(_require(data, "dim", "index data"), "dim")
    principal = rational_from_json(_require(data, "principal_integral", "index data"))
    strata = []
    for rec in _block(data.get("strata", []), list, "strata"):
        entries = []
        for e in _block(_require(rec, "entries", "stratum record"), list, "entries"):
            entries.append(
                FineEntry(
                    type_count=_count(_require(e, "n_b", "fine entry"), "n_b"),
                    rank=_count(_require(e, "rank", "fine entry"), "rank"),
                    eta=rational_from_json(_require(e, "eta", "fine entry")),
                    harmonic_dim=_count(_require(e, "h", "fine entry"), "h"),
                    integral=rational_from_json(_require(e, "integral", "fine entry")),
                )
            )
        strata.append(
            StratumRecord(
                id=_name(_require(rec, "id", "stratum record"), "stratum record id"),
                entries=tuple(entries),
            )
        )
    return IndexData(
        mode=mode, dim=dim, principal_integral=principal, strata=tuple(strata)
    )


def index_file_from_json(data: dict) -> dict[int | None, IndexData]:
    """An index data file holds either one bare block (key None) or a
    'per_rho' object keyed by irreducible index."""
    _block(data, dict, "index data")
    if "per_rho" in data:
        blocks = data["per_rho"]
        if not isinstance(blocks, dict) or not blocks:
            raise ValidationError("per_rho must be a nonempty object")
        out: dict[int | None, IndexData] = {}
        for key, block in blocks.items():
            try:
                (rho,) = _ids((key,), keys=True)
            except ValueError:
                raise ValidationError(
                    f"per_rho keys must be irreducible indices, got {key!r}"
                ) from None
            out[rho] = index_data_from_json(block)
        return out
    return {None: index_data_from_json(data)}
