"""The read path of a complex file: rows go to the complex as given, in any
order within a row, and list and dict images give one action."""

import json
import random
from operator import is_

import pytest

from equichi import corpus, group_from_permutations
from equichi import jsonio
from equichi.jsonio import gcomplex_from_json
from test_action_table import corpus_action, relabel, subdivide

# mixed dimensions: isolated vertices, dangling edges, given faces of given
# simplices, and rows given twice
MIXED = {
    "triangle-dangling-edge-isolated-vertex": [(0, 1, 2), (2, 3), (3,), (4,)],
    "redundant-faces-and-duplicates": [(0, 1, 2, 3), (1, 2), (0, 1, 2), (4, 5), (4, 5), (5, 6)],
    "edges-and-their-vertices": [(0,), (1,), (0, 1), (1, 2), (2,), (0, 1)],
    "tetrahedron-triangle-edge": [(0, 1, 2, 3), (3, 4, 5), (5, 6), (0, 1, 2, 3)],
}


def doubled(maximal):
    """Two disjoint copies of a complex, swapped by the group C2."""
    n = max(v for s in maximal for v in s) + 1
    swap = {v: (v + n) % (2 * n) for v in range(2 * n)}
    return [*maximal, *(tuple(v + n for v in s) for s in maximal)], [swap]


def actions():
    rng = random.Random(35)
    for cid in corpus.case_ids():
        G, maximal, maps = corpus_action(cid)
        for level in range(3):
            yield pytest.param(G, maximal, maps, id=f"{cid}:sd{level}")
            yield pytest.param(G, *relabel(maximal, maps, rng), id=f"{cid}:sd{level}:relabelled")
            maximal, maps = subdivide(maximal, maps)
    C2 = group_from_permutations([[1, 0]])
    for name, maximal in MIXED.items():
        maximal, maps = doubled(maximal)
        yield pytest.param(C2, maximal, maps, id=name)
        yield pytest.param(C2, *relabel(maximal, maps, rng), id=f"{name}:relabelled")


def file_forms(maximal, maps):
    """The action as parsed from its file, rows ascending, rotated within the
    row and reversed, with list images and with dict images."""
    verts = sorted({v for s in maximal for v in s})
    ascending = [sorted(s) for s in maximal]
    rows = {
        "ascending": ascending,
        "rotated": [s[1:] + s[:1] for s in ascending],
        "reversed": [s[::-1] for s in ascending],
    }
    images = {
        "list": [[m[v] for v in verts] for m in maps],
        "dict": [{str(v): m[v] for v in verts} for m in maps],
    }
    for row_form, given in rows.items():
        for image_form, imgs in images.items():
            doc = {"maximal_simplices": given, "action": {"generator_images": imgs}}
            yield f"{row_form}/{image_form}", json.loads(json.dumps(doc))


def tables(X):
    K = X.complex
    return K.vertices, K.columns, K.facet_table, K.maximal_positions(), X.vertex_perm, X.perm


@pytest.mark.parametrize("G, maximal, maps", actions())
def test_every_row_order_and_image_form_reads_one_action(G, maximal, maps):
    forms = dict(file_forms(maximal, maps))
    want = tables(gcomplex_from_json(forms.pop("ascending/list"), G))
    for form, data in forms.items():
        assert tables(gcomplex_from_json(data, G)) == want, form


def test_ascending_rows_reach_the_complex_as_parsed(monkeypatch):
    """No row is copied, sorted or rebuilt on its way to the complex; rows
    given out of order are sorted, once the rows as given are refused."""
    calls = []

    def spy(rows):
        calls.append(rows)
        return complex_type(rows)

    complex_type = jsonio.SimplicialComplex
    monkeypatch.setattr(jsonio, "SimplicialComplex", spy)
    G = group_from_permutations([[1, 0]])
    data = json.loads('{"maximal_simplices": [[0, 1, 2], [1, 2, 3]], "action": {"generator_images": [[3, 2, 1, 0]]}}')
    gcomplex_from_json(data, G)
    (rows,) = calls
    assert len(rows) == 2 and all(map(is_, rows, data["maximal_simplices"]))

    calls.clear()
    data["maximal_simplices"][1] = [3, 1, 2]
    gcomplex_from_json(data, G)
    assert [list(map(list, rows)) for rows in calls] == [[[0, 1, 2], [3, 1, 2]], [[0, 1, 2], [1, 2, 3]]]
