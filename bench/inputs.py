"""Seeded input generators for the benchmark.

Everything here is plain Python with no dependency on the package under
test: complexes are lists of maximal simplices, actions are generator vertex
images, groups are permutation generators or multiplication tables.  The
seed only relabels (complex vertices, table-group elements); every answer
the benchmark checks is invariant under both relabelings.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

Simplex = tuple[int, ...]


# ---------------------------------------------------------------------------
# actions: maximal simplices plus one vertex map per group generator


class Action:
    """A complex given by maximal simplices, acted on by generator vertex maps.

    `generator_maps[i][v]` is the image of vertex v under the i-th generator
    of the group the action belongs to.
    """

    def __init__(self, maximal: list[Simplex], generator_maps: list[dict[int, int]]):
        self.maximal = sorted(tuple(sorted(s)) for s in maximal)
        self.generator_maps = generator_maps

    @property
    def vertices(self) -> list[int]:
        return sorted({v for s in self.maximal for v in s})

    def simplices(self) -> list[Simplex]:
        closed = {f for s in self.maximal for r in range(1, len(s) + 1) for f in combinations(s, r)}
        return sorted(closed, key=lambda s: (len(s), s))

    def subdivide(self) -> "Action":
        """Equivariant barycentric subdivision: one new vertex per simplex,
        maximal simplices are the full flags of the old maximal simplices."""
        ids = {s: i for i, s in enumerate(self.simplices())}
        maximal = [
            tuple(ids[tuple(sorted(order[: k + 1]))] for k in range(len(s)))
            for s in self.maximal
            for order in permutations(s)
        ]
        maps = [
            {i: ids[tuple(sorted(m[v] for v in s))] for s, i in ids.items()}
            for m in self.generator_maps
        ]
        return Action(maximal, maps)

    def relabeled(self, rng: random.Random) -> "Action":
        """The same action with vertex ids permuted at random."""
        old = self.vertices
        new = old[:]
        rng.shuffle(new)
        p = dict(zip(old, new))
        maximal = [tuple(p[v] for v in s) for s in self.maximal]
        maps = [{p[v]: p[w] for v, w in m.items()} for m in self.generator_maps]
        return Action(maximal, maps)

    def to_json(self) -> dict:
        """The complex file format: images listed in ascending vertex order."""
        verts = self.vertices
        return {
            "maximal_simplices": [list(s) for s in self.maximal],
            "action": {"generator_images": [[m[v] for v in verts] for m in self.generator_maps]},
        }


def action_from_json(data: dict) -> Action:
    maximal = [tuple(s) for s in data["maximal_simplices"]]
    verts = sorted({v for s in maximal for v in s})
    maps = [dict(zip(verts, img)) for img in data["action"]["generator_images"]]
    return Action(maximal, maps)


# ---------------------------------------------------------------------------
# rotation groups of the sphere


def _cycle(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def tetrahedron_a4() -> tuple[list[list[int]], Action]:
    """A4 acting on the boundary of the 3-simplex by even permutations."""
    gens = [[1, 2, 0, 3], [1, 0, 3, 2]]
    return gens, Action(list(combinations(range(4), 3)), [dict(enumerate(g)) for g in gens])


def octahedron_s4() -> tuple[list[list[int]], Action]:
    """The rotation group of the octahedron (S4) on its six vertices
    0:+x 1:-x 2:+y 3:-y 4:+z 5:-z, generated by quarter turns about z and x."""
    gens = [[2, 3, 1, 0, 4, 5], [0, 1, 4, 5, 3, 2]]
    faces = [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    return gens, Action(faces, [dict(enumerate(g)) for g in gens])


def icosahedron_a5() -> tuple[list[list[int]], Action]:
    """The rotation group of the icosahedron (A5) on its twelve vertices,
    generated by a fifth turn about a vertex axis and a third turn about a
    face axis.  Coordinates are only used to find the vertex permutations."""
    phi = (1 + math.sqrt(5)) / 2
    pts = []
    for a in (-1, 1):
        for b in (-phi, phi):
            pts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]

    def nearest(q):
        return min(range(12), key=lambda i: sum((x - y) ** 2 for x, y in zip(pts[i], q)))

    def rotation(axis, angle):
        n = math.sqrt(sum(x * x for x in axis))
        ux, uy, uz = (x / n for x in axis)
        c, s = math.cos(angle), math.sin(angle)

        def rot(p):
            x, y, z = p
            dot = ux * x + uy * y + uz * z
            cx, cy, cz = uy * z - uz * y, uz * x - ux * z, ux * y - uy * x
            return tuple(
                pc * c + cc * s + u * dot * (1 - c)
                for pc, cc, u in ((x, cx, ux), (y, cy, uy), (z, cz, uz))
            )

        return [nearest(rot(p)) for p in pts]

    gens = [rotation(pts[0], 2 * math.pi / 5), rotation((1, 1, 1), 2 * math.pi / 3)]
    edge_sq = min(sum((x - y) ** 2 for x, y in zip(pts[0], q)) for q in pts[1:])

    def adjacent(i, j):
        return abs(sum((x - y) ** 2 for x, y in zip(pts[i], pts[j])) - edge_sq) < 1e-6

    faces = [
        f for f in combinations(range(12), 3)
        if adjacent(f[0], f[1]) and adjacent(f[0], f[2]) and adjacent(f[1], f[2])
    ]
    return gens, Action(faces, [dict(enumerate(g)) for g in gens])


def suspended_polygon(n: int) -> tuple[list[list[int]], Action]:
    """C_n rotating the suspension of an n-gon; the poles n, n+1 are fixed."""
    gen = _cycle(n) + [n, n + 1]
    faces = [(i, (i + 1) % n, pole) for i in range(n) for pole in (n, n + 1)]
    return [gen], Action(faces, [dict(enumerate(gen))])


# ---------------------------------------------------------------------------
# groups for the character-table ladder


def close_permutations(gens: list[list[int]]) -> list[tuple[int, ...]]:
    """Every element of the group the permutations generate, identity first."""
    identity = tuple(range(len(gens[0])))
    elements = [identity]
    seen = {identity}
    for x in elements:
        for g in gens:
            y = tuple(x[g[i]] for i in range(len(g)))
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def multiplication_table(gens: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The composition table of a permutation group, elements relabeled at
    random; (a*b)(x) = a(b(x)), as the package composes permutations."""
    elements = close_permutations(gens)
    label = list(range(len(elements)))
    rng.shuffle(label)
    index = {e: label[i] for i, e in enumerate(elements)}
    n = len(elements)
    table = [[0] * n for _ in range(n)]
    for a in elements:
        for b in elements:
            table[index[a]][index[b]] = index[tuple(a[b[i]] for i in range(len(b)))]
    return table


def cyclic(n: int) -> list[list[int]]:
    return [_cycle(n)]


def dihedral(order: int) -> list[list[int]]:
    """The symmetries of a regular (order/2)-gon."""
    m = order // 2
    return [_cycle(m), [(-i) % m for i in range(m)]]


def symmetric(n: int) -> list[list[int]]:
    return [_cycle(n), [1, 0] + list(range(2, n))]


def alternating5() -> list[list[int]]:
    return [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]


def elementary_abelian_2(rank: int) -> list[list[int]]:
    """(C2)^rank acting on 2*rank points, one swap per factor."""
    gens = []
    for i in range(rank):
        g = list(range(2 * rank))
        g[2 * i], g[2 * i + 1] = g[2 * i + 1], g[2 * i]
        gens.append(g)
    return gens
