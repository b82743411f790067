"""Finite abstract simplicial complexes.

A complex is the set of all its nonempty simplices, each a strictly
ascending tuple of integer vertex ids, closed under taking faces.  Euler
characteristics are alternating simplex counts; everything is exact.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable

from .errors import ValidationError

Simplex = tuple[int, ...]


def faces(simplex: Simplex) -> list[Simplex]:
    """All nonempty faces, the simplex itself included."""
    out: list[Simplex] = []
    for r in range(1, len(simplex) + 1):
        out.extend(combinations(simplex, r))
    return out


def closure_of(simplices: Iterable[Simplex]) -> frozenset[Simplex]:
    """The simplices together with all their faces."""
    closed: set[Simplex] = set()
    for s in simplices:
        closed.update(faces(s))
    return frozenset(closed)


class SimplicialComplex:
    """An abstract simplicial complex over integer vertex ids.  `order` lists
    the simplices in canonical (dimension, vertex tuple) order, and a
    simplex's position there is its number; `index` maps it back."""

    def __init__(self, simplices: Iterable[Simplex]):
        given = [tuple(s) for s in simplices]
        for t in given:
            if len(set(t)) != len(t) or tuple(sorted(t)) != t:
                raise ValidationError(f"simplex must be strictly ascending: {t}")
        closed = closure_of(given)
        if not closed:
            raise ValidationError("complex must be nonempty")
        self.simplices: frozenset[Simplex] = closed
        by_dim: dict[int, list[Simplex]] = {}
        for s in closed:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.dim = max(by_dim)
        # a closed complex has simplices in every dimension up to its own
        layers = [sorted(by_dim.pop(d)) for d in range(self.dim + 1)]
        self.order: tuple[Simplex, ...] = tuple(s for layer in layers for s in layer)
        self._f_vector = tuple(map(len, layers))
        self.vertices: tuple[int, ...] = tuple(s[0] for s in layers[0])

    @staticmethod
    def from_maximal(maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return SimplicialComplex(tuple(sorted(set(m))) for m in maximal)

    @cached_property
    def index(self) -> dict[Simplex, int]:
        """Simplex -> position in `order`."""
        return {s: i for i, s in enumerate(self.order)}

    def sorted_simplices(self) -> list[Simplex]:
        """All simplices sorted by (dimension, vertex tuple); the canonical order."""
        return list(self.order)

    def facets(self, i: int) -> list[int]:
        """Positions of the facets of `order[i]`."""
        s = self.order[i]
        if len(s) == 1:
            return []
        index = self.index
        return [index[s[:k] + s[k + 1 :]] for k in range(len(s))]

    def closure(self, positions: Iterable[int]) -> set[int]:
        """Positions of the given simplices and all their faces."""
        closed = set(positions)
        stack = list(closed)
        while stack:
            for j in self.facets(stack.pop()):
                if j not in closed:
                    closed.add(j)
                    stack.append(j)
        return closed

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def f_vector(self) -> tuple[int, ...]:
        return self._f_vector

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The simplices that are no facet of another; in a closed complex a
        proper face is a facet of some simplex."""
        facets = {t[:i] + t[i + 1 :] for t in self.simplices for i in range(len(t))}
        return tuple(s for s in self.order if s not in facets)


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

    New vertex ids are positions in the canonical simplex order (the map is
    `K.index`), so the subdivision of a fixed complex is itself canonical.
    Its simplices are the chains of strictly nested simplices of K, and each
    chain is a face of a full flag of a maximal simplex.
    """
    index = K.index
    flags = [
        tuple(index[tuple(sorted(p[: k + 1]))] for k in range(len(m)))
        for m in K.maximal_simplices()
        for p in permutations(m)
    ]
    return SimplicialComplex(flags), index


def connected_components(K: SimplicialComplex, positions: Iterable[int]) -> list[list[int]]:
    """Components of a set of open simplices, given by positions in
    `K.order`, under the face relation (two simplices touch when one is a
    face of the other, within the set).

    Members are joined along facets only.  That is the same relation when
    the set holds every simplex lying between two of its members, as a
    subcomplex does and as the simplices of one exact isotropy do.  Each
    component lists its positions in ascending order; components are
    ordered by their least position.
    """
    parent = {i: i for i in sorted(set(positions))}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in parent:
        for j in K.facets(i):
            if j in parent:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in parent:  # ascending, so each component opens at its least position
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())
