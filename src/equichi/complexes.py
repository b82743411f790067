"""Finite abstract simplicial complexes.

A complex is the set of all its nonempty simplices, each a strictly
ascending tuple of integer vertex ids, closed under taking faces.  Euler
characteristics are alternating simplex counts; everything is exact.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import ValidationError

Simplex = tuple[int, ...]


def faces(simplex: Simplex) -> list[Simplex]:
    """All nonempty faces, the simplex itself included."""
    out: list[Simplex] = []
    for r in range(1, len(simplex) + 1):
        out.extend(combinations(simplex, r))
    return out


class SimplicialComplex:
    """An abstract simplicial complex over integer vertex ids."""

    def __init__(self, simplices: Iterable[Simplex]):
        closed: set[Simplex] = set()
        for s in simplices:
            t = tuple(s)
            if len(set(t)) != len(t) or tuple(sorted(t)) != t:
                raise ValidationError(f"simplex must be strictly ascending: {t}")
            closed.add(t)
        for s in list(closed):
            for f in faces(s):
                closed.add(f)
        if not closed:
            raise ValidationError("complex must be nonempty")
        self.simplices: frozenset[Simplex] = frozenset(closed)
        self._by_dim: dict[int, tuple[Simplex, ...]] = {}
        by_dim: dict[int, list[Simplex]] = {}
        for s in closed:
            by_dim.setdefault(len(s) - 1, []).append(s)
        for d, group in by_dim.items():
            self._by_dim[d] = tuple(sorted(group))
        self.dim = max(self._by_dim)
        self.vertices: tuple[int, ...] = tuple(s[0] for s in self._by_dim[0])

    @staticmethod
    def from_maximal(maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return SimplicialComplex(tuple(sorted(set(m))) for m in maximal)

    def sorted_simplices(self) -> list[Simplex]:
        """All simplices sorted by (dimension, vertex tuple); the canonical order."""
        out: list[Simplex] = []
        for d in range(self.dim + 1):
            out.extend(self._by_dim.get(d, ()))
        return out

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dim + 1))

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        proper_faces: set[Simplex] = set()
        for t in self.simplices:
            for f in faces(t):
                if f != t:
                    proper_faces.add(f)
        return tuple(s for s in self.sorted_simplices() if s not in proper_faces)


def euler_characteristic(simplices: Iterable[Simplex]) -> int:
    """Alternating count over any set of simplices (need not be closed)."""
    total = 0
    for s in simplices:
        total += -1 if len(s) % 2 == 0 else 1
    return total


def euler_of_complex(K: SimplicialComplex) -> int:
    return euler_characteristic(K.simplices)


def relative_euler(K: Iterable[Simplex], L: Iterable[Simplex]) -> int:
    """chi(K, L) = chi(K) - chi(L); L must be a subset of K."""
    kset = set(K)
    lset = set(L)
    if not lset <= kset:
        raise ValidationError("relative Euler characteristic needs L contained in K")
    return euler_characteristic(kset) - euler_characteristic(lset)


def barycentric_subdivision(
    K: SimplicialComplex,
) -> tuple[SimplicialComplex, dict[Simplex, int]]:
    """The barycentric subdivision and the map simplex -> new vertex id.

    New vertex ids are positions in the canonical simplex order, so the
    subdivision of a fixed complex is itself canonical.  Simplices of the
    subdivision are chains of strictly nested simplices of K.
    """
    order = K.sorted_simplices()
    vertex_of: dict[Simplex, int] = {s: i for i, s in enumerate(order)}
    supersets: dict[Simplex, list[Simplex]] = {s: [] for s in order}
    for t in order:
        for f in faces(t):
            if f != t:
                supersets[f].append(t)
    chains: set[Simplex] = set()

    # ids respect (dimension, lex) order, so chains grow with ascending ids
    def grow(chain_ids: Simplex, last: Simplex) -> None:
        chains.add(chain_ids)
        for t in supersets[last]:
            grow(chain_ids + (vertex_of[t],), t)

    for s in order:
        grow((vertex_of[s],), s)
    return SimplicialComplex(chains), vertex_of


def connected_components(simplices: Iterable[Simplex]) -> tuple[frozenset[Simplex], ...]:
    """Components of a set of open simplices under the face relation
    (two simplices touch when one is a face of the other, within the set).
    Canonical order: by least simplex (dimension, then vertex tuple)."""
    items = sorted(set(simplices), key=lambda s: (len(s), s))
    parent: dict[Simplex, Simplex] = {s: s for s in items}

    def find(s: Simplex) -> Simplex:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a: Simplex, b: Simplex) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    item_set = set(items)
    for s in items:
        for f in faces(s):
            if f != s and f in item_set:
                union(f, s)
    groups: dict[Simplex, set[Simplex]] = {}
    for s in items:
        groups.setdefault(find(s), set()).add(s)
    comps = [frozenset(g) for g in groups.values()]
    comps.sort(key=lambda c: min((len(s), s) for s in c))
    return tuple(comps)
