"""Seeded fuzz tests: corpus inputs, and the benchmark's rotation-group
inputs, with keys deleted or inserted and values swapped for floats, bools,
nulls, strings, negatives, out-of-range ids and wrong containers; the
rotation-group inputs also with two entries of one generator image swapped.
The character tables that group files carry for rotation groups are
mutated too, with junk at one path of the block.  Every mutant must end
with an exit code of the CLI, never with a raw traceback, and never with
exit 2: on fuzzed input that would be an invalid input sorted into the
wrong class, or a real mismatch between the routes.
Nothing is written under `bench/`."""

import copy
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from equichi import corpus
from equichi.characters import table_to_json
from equichi.cli import main
from equichi.jsonio import group_from_json

SEED = 10
MUTANTS = 1000

# keys the readers look for, so an insertion can reach a branch that a
# corpus file does not take
KEYS = (
    "H", "action", "character_table", "component_action", "components", "dim",
    "elements", "entries", "eta", "generator_images", "generators", "h", "id",
    "integral", "maximal_simplices", "mode", "multiplicities", "n_b", "per_rho",
    "permutation_generators", "principal_integral", "rank", "strata", "table",
)


def corpus_inputs():
    """(command, {flag: document}) for every corpus input."""
    out = []
    for cid in corpus.case_ids():
        doc = json.loads(corpus.read_corpus_bytes(cid))
        for command in ("verify", "strata"):
            out.append((command, {"--group": doc["group"], "--complex": doc["complex"]}))
    for bid in corpus.bundle_ids():
        doc = json.loads(corpus.read_corpus_bytes(bid))
        out.append(("fine-decomp", {"--group": doc["group"], "--bundle": doc["bundle"]}))
    for iid in corpus.index_data_ids():
        out.append(("assemble", {"--data": json.loads(corpus.read_corpus_bytes(iid))["data"]}))
    return out


def junk(rng, value):
    """A value of the wrong kind, or an id out of range, in place of `value`."""
    options = [
        1.5, 0.0, True, False, None, -1, -rng.randint(2, 9), 10**6,
        rng.randint(0, 30), "x", "1", [], {}, [value], {"0": value},
    ]
    if type(value) is int:
        options += [value + 1, -value, float(value)]
    return rng.choice(options)


def slots(node):
    """(container, key) for every value below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from slots(value)


def mutate(rng, docs):
    docs = copy.deepcopy(docs)
    for _ in range(rng.randint(1, 3)):
        parent, key = rng.choice(list(slots(docs)))
        kind = rng.randrange(3)
        if kind == 0 and parent is not docs:
            del parent[key]
        elif kind == 1 or not isinstance(parent[key], (dict, list)):
            parent[key] = junk(rng, parent[key])
        elif isinstance(parent[key], dict):
            parent[key][rng.choice(KEYS)] = junk(rng, None)
        else:
            target = parent[key]
            target.insert(rng.randint(0, len(target)), junk(rng, target[0] if target else 0))
    return docs


def test_mutated_corpus_inputs_end_with_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    inputs = corpus_inputs()
    codes = set()
    for n in range(MUTANTS):
        command, docs = inputs[n % len(inputs)]
        mutant = mutate(rng, docs)
        argv = [command]
        for flag, doc in mutant.items():
            path = tmp_path / f"{n}{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        try:
            code = main(argv)
        except Exception as exc:  # a traceback: name the mutant that raised it
            pytest.fail(f"{command} on {json.dumps(mutant)} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 1, 3), (command, mutant)
        codes.add(code)
    # the mutants reach past the readers as well as into them
    assert {0, 1} <= codes


BENCH = Path(__file__).resolve().parent.parent / "bench"
ROTATION_MUTANTS = 600


def bench_inputs():
    """The `bench/inputs.py` module, imported without writing bytecode."""
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("inputs")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


def rotation_inputs():
    """(command, {flag: document}) for the five rotation-group actions of
    `bench/inputs.py`, each run through `verify` and `strata`."""
    inputs = bench_inputs()
    made = [
        inputs.tetrahedron_a4(), inputs.octahedron_s4(), inputs.icosahedron_a5(),
        inputs.suspended_polygon(8), inputs.suspended_polygon(12),
    ]
    return [
        (command, {"--group": {"permutation_generators": gens}, "--complex": action.to_json()})
        for gens, action in made
        for command in ("verify", "strata")
    ]


def transpose(rng, docs):
    """Swap two entries of one generator image: still a vertex bijection, so
    the mutant reaches the homomorphism and simplicial checks."""
    docs = copy.deepcopy(docs)
    image = rng.choice(docs["--complex"]["action"]["generator_images"])
    i, j = rng.sample(range(len(image)), 2)
    image[i], image[j] = image[j], image[i]
    return docs


def test_mutated_rotation_inputs_end_with_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    inputs = rotation_inputs()
    codes, errors = set(), set()
    for n in range(ROTATION_MUTANTS):
        command, docs = inputs[n % len(inputs)]
        mutant = transpose(rng, docs) if n % 2 else mutate(rng, docs)
        argv = [command]
        for flag, doc in mutant.items():
            path = tmp_path / f"{n}{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        try:
            code = main(argv)
        except Exception as exc:  # a traceback: name the mutant that raised it
            pytest.fail(f"{command} on {json.dumps(mutant)} raised {exc!r}")
        errors.add(capsys.readouterr().err.split("\n", 1)[0].partition(" (")[0])
        assert code in (0, 1, 3), (command, mutant)
        codes.add(code)
    assert {0, 1} <= codes
    # the swapped images reach both witnesses of `build_gcomplex`
    assert "error: generator images do not define a group action" in errors
    assert any(e.startswith("error: non-simplicial map: element") for e in errors)


TABLE_MUTANTS = 240
TABLE_JUNK = (None, "x", "1", 1.5, 0.0, True, False, [], {}, 0, -1, 2**64, [1, 0], [1], [1, 1, 1])


def table_inputs():
    """{flag: document} for `verify` of S4, C6, D12 and A5 rotating the
    2-sphere, each group file carrying its serialized character table."""
    inputs = bench_inputs()
    gens, hexagon = inputs.suspended_polygon(6)
    # D12 as the rotations of the hexagonal bipyramid: the half-turn through
    # vertex 0 reflects the hexagon and swaps the poles
    d12 = gens + [[(-i) % 6 for i in range(6)] + [7, 6]]
    made = [
        inputs.octahedron_s4(), (gens, hexagon),
        (d12, inputs.Action(hexagon.maximal, [dict(enumerate(g)) for g in d12])),
        inputs.icosahedron_a5(),
    ]
    out = []
    for gens, action in made:
        group = {"permutation_generators": gens}
        # through JSON text: equal values share one list in the document,
        # and a mutant edits one place
        group["character_table"] = json.loads(json.dumps(table_to_json(group_from_json(group))))
        out.append({"--group": group, "--complex": action.to_json()})
    return out


def mutate_table(rng, docs):
    """Junk at one path of the character table block (a zero denominator,
    a pair of the wrong length, a value of the wrong kind), or the key
    there deleted."""
    docs = copy.deepcopy(docs)
    node, key = rng.choice(list(slots(docs["--group"]["character_table"])))
    if isinstance(node, dict) and rng.randrange(2):
        del node[key]
    else:
        node[key] = rng.choice(TABLE_JUNK)
    return docs


def test_mutated_character_tables_end_with_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    inputs = table_inputs()
    codes, errors = set(), set()
    for n in range(TABLE_MUTANTS):
        mutant = mutate_table(rng, inputs[n % len(inputs)])
        argv = ["verify"]
        for flag, doc in mutant.items():
            path = tmp_path / f"{n}{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        try:
            code = main(argv)
        except Exception as exc:  # a traceback: name the mutant that raised it
            pytest.fail(f"verify on {json.dumps(mutant)} raised {exc!r}")
        errors.add(capsys.readouterr().err.split("\n", 1)[0].partition(": ")[2].partition(":")[0])
        assert code in (0, 1, 3), mutant
        codes.add(code)
    assert {0, 1} <= codes
    # junk that reads as a table reaches the certification
    assert "supplied character table is invalid" in errors
