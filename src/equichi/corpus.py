"""Bundled worked examples: small actions, bundle data, index data.

Every case ships as plain JSON in the package's corpus directory and loads
through the same code paths as user-supplied files, so the bundled cases
double as end-to-end fixtures for the command line and the library.  The
manifest is read once per process, and a case file once per `load_case`,
which keeps the sha256 of the bytes it parsed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .assembler import IndexData
from .errors import ValidationError
from .finedecomp import BundleData
from .gcomplex import GComplex
from .groups import FiniteGroup
from .jsonio import bundle_from_json, gcomplex_from_json, group_from_json, index_data_from_json


def _corpus_file(name: str):
    return resources.files("equichi").joinpath("corpus").joinpath(name)


def read_corpus_bytes(name: str) -> bytes:
    path = _corpus_file(name + ".json")
    if not path.is_file():
        raise ValidationError(f"no corpus entry named {name!r}")
    return path.read_bytes()


def _read(name: str) -> dict:
    return json.loads(read_corpus_bytes(name).decode("utf-8"))


@cache
def _manifest() -> dict[str, tuple[str, ...]]:
    """The manifest's id lists, read once per process, as tuples."""
    return {kind: tuple(ids) for kind, ids in _read("manifest").items()}


def case_ids() -> tuple[str, ...]:
    return _manifest()["cases"]


def bundle_ids() -> tuple[str, ...]:
    return _manifest()["bundles"]


def index_data_ids() -> tuple[str, ...]:
    return _manifest()["index_data"]


@dataclass(frozen=True)
class CorpusCase:
    id: str
    title: str
    group: FiniteGroup
    gcomplex: GComplex  # as loaded; not regularized
    sha256: str  # of the case file's bytes, the ones parsed


def load_case(case_id: str) -> CorpusCase:
    if case_id not in case_ids():
        raise ValidationError(f"no corpus case named {case_id!r}")
    raw = read_corpus_bytes(case_id)
    data = json.loads(raw.decode("utf-8"))
    group = group_from_json(data["group"])
    X = gcomplex_from_json(data["complex"], group)
    return CorpusCase(data["id"], data["title"], group, X, hashlib.sha256(raw).hexdigest())


def load_bundle_case(bundle_id: str) -> tuple[FiniteGroup, BundleData]:
    """Load a bundle example; invalid examples raise exactly as user data would."""
    if bundle_id not in bundle_ids():
        raise ValidationError(f"no corpus bundle named {bundle_id!r}")
    data = _read(bundle_id)
    group = group_from_json(data["group"])
    return group, bundle_from_json(data["bundle"], group)


def load_index_case(index_id: str) -> IndexData:
    if index_id not in index_data_ids():
        raise ValidationError(f"no corpus index data named {index_id!r}")
    return index_data_from_json(_read(index_id)["data"])
