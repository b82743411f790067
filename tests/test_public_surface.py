"""The public surface, pinned: every name of `equichi.__all__` has a reader.

A reader is one of:
- a file whose code names it: a command (`src/equichi/cli.py`, or a module
  the commands run other than the one that defines the name), the
  benchmark (`bench/workloads.py`), the acceptance criteria
  (`tests/test_acceptance.py`) or the README quick start (`README.md`);
- another public name whose source names it, as its return, argument or
  base type, or as a helper it calls;
- for the few names kept for a stated purpose alone, "kept: <why>".

A name added to or removed from `__all__` without an entry here fails, and
so does an entry whose reader no longer names it.
"""

import ast
import inspect
import re
import sys
import textwrap
from functools import cache
from pathlib import Path

import equichi

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_READERS = {
    "BundleData": "src/equichi/jsonio.py",
    "CanonicalIsotropyBundle": "canonical_isotropy_bundle",
    "Character": "character_table",
    "ClassFunction": "Character",
    "CodimensionError": "src/equichi/strataformula.py",
    "ComponentSystem": "tests/test_acceptance.py",
    "Cyc": "tests/test_acceptance.py",
    "DefectError": "src/equichi/cli.py",
    "EquichiError": "ValidationError",
    "FineComponent": "fine_decomposition",
    "FineEntry": "tests/test_acceptance.py",
    "FiniteGroup": "src/equichi/jsonio.py",
    "GComplex": "src/equichi/jsonio.py",
    "IndexData": "tests/test_acceptance.py",
    "IndexResult": "assemble_index",
    "MultiplicityReport": "equivariant_multiplicities",
    "OrientationCharacter": "orientation_character",
    "SimplicialComplex": "src/equichi/jsonio.py",
    "StrataEulerBreakdown": "equivariant_euler_via_strata",
    "Stratification": "orbit_type_stratification",
    "StratumRecord": "tests/test_acceptance.py",
    "Subgroup": "src/equichi/jsonio.py",
    "ValidationError": "src/equichi/cli.py",
    "VerifyReport": "bench/workloads.py",
    "all_subgroups": "tests/test_acceptance.py",
    "assemble_index": "src/equichi/cli.py",
    "beta_term": "assemble_index",
    "build_gcomplex": "src/equichi/jsonio.py",
    "canonical_isotropy_bundle": "src/equichi/cli.py",
    "character_table": "src/equichi/cli.py",
    "decompose": "kept: the character algebra, with induce, restrict and inner_product",
    "distributional_pairing": "tests/test_acceptance.py",
    "equivariant_euler_via_strata": "bench/workloads.py",
    "equivariant_multiplicities": "README.md",
    "euler_characteristic": "bench/workloads.py",
    "euler_of_complex": "src/equichi/cli.py",
    "fine_decomposition": "src/equichi/cli.py",
    "group_from_permutations": "src/equichi/jsonio.py",
    "index_data_from_breakdown": "tests/test_acceptance.py",
    "induce": "tests/test_acceptance.py",
    "inner_product": "tests/test_acceptance.py",
    "is_adapted": "src/equichi/cli.py",
    "is_regular": "regularize",
    "lefschetz_number": "equivariant_multiplicities",
    "normalizer": "src/equichi/jsonio.py",
    "orbit_space": "bench/workloads.py",
    "orbit_type_stratification": "bench/workloads.py",
    "orientation_character": "bench/workloads.py",
    "regularize": "bench/workloads.py",
    "restrict": "tests/test_acceptance.py",
    "strata_geometry": "README.md",
    "subconjugate": "src/equichi/gcomplex.py",
    "subdivision": "src/equichi/gcomplex.py",
    "trivial_character": "kept: the character algebra, the unit of the pairing",
    "trivial_index": "bench/workloads.py",
    "twist_index_map": "ComponentSystem",
    "verify_strata_vs_oracle": "src/equichi/cli.py",
}


def identifiers(tree):
    """Every name, attribute and imported name the code reads or binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@cache
def file_identifiers(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    if path == "README.md":
        blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
        return set().union(*(identifiers(ast.parse(block)) for block in blocks))
    return identifiers(ast.parse(text))


def test_every_public_name_has_a_reader():
    assert set(PUBLIC_READERS) == set(equichi.__all__)
    assert sorted(equichi.__all__) == equichi.__all__


def reads(name, reader):
    if "/" in reader or reader.endswith(".md"):
        defining = Path(sys.modules[getattr(equichi, name).__module__].__file__).resolve()
        return (ROOT / reader).resolve() != defining and name in file_identifiers(reader)
    if reader not in equichi.__all__ or reader == name:
        return False
    source = textwrap.dedent(inspect.getsource(getattr(equichi, reader)))
    return name in identifiers(ast.parse(source))


def test_each_reader_names_its_public_name():
    unread = [
        (name, reader)
        for name, reader in PUBLIC_READERS.items()
        if not reader.startswith("kept: ") and not reads(name, reader)
    ]
    assert unread == []
