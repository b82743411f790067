"""Finite abstract simplicial complexes.

A complex is the set of all its nonempty simplices, each a strictly
ascending tuple of integer vertex ids, closed under taking faces.  Euler
characteristics are alternating simplex counts; everything is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, chain, combinations, filterfalse, groupby, permutations, repeat
from operator import itemgetter, lt
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
    """An abstract simplicial complex over integer vertex ids.

    `order` lists the simplices in canonical (dimension, vertex tuple) order,
    and a simplex's position there is its number; `index` maps it back.  The
    d-simplices sit at positions `layer_start[d]` up to `layer_start[d + 1]`.
    `facet_table[d][k]` is a column over the d-simplices, in layer order, of
    the positions of their facets without vertex k; its entries are the int
    objects of `index`.
    """

    def __init__(self, simplices: Iterable[Simplex]):
        listed = list(map(tuple, simplices))
        # the given simplices by dimension, the empty one dropped
        given = {n - 1: list(g) for n, g in groupby(sorted(listed, key=len), len) if n}
        for d, group in given.items():
            # strictly ascending: each column of k-th vertices lies below the next
            columns = [list(map(itemgetter(k), group)) for k in range(d + 1)]
            if not all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:])):
                bad = next(t for t in listed if not all(map(lt, t, t[1:])))
                raise ValidationError(f"simplex must be strictly ascending: {bad}")
            given[d] = set(group)
        if not given:
            raise ValidationError("complex must be nonempty")
        self.dim = dim = max(given)
        # One sweep from the top dimension down.  A layer is complete once the
        # layer above has added its facets, and is sorted then; the facets of
        # its simplices, made once each, fill in the layer below and, once
        # that is sorted, are kept as positions within it.
        layers: list[list[Simplex]] = [[] for _ in range(dim + 1)]
        local_facets: list[list[int]] = [[] for _ in range(dim + 1)]
        current = given.pop(dim)
        facets: list[Simplex] = []
        for d in range(dim, -1, -1):
            layer = layers[d] = sorted(current)
            if facets:
                local = dict(zip(layer, range(len(layer))))
                local_facets[d + 1] = list(map(local.__getitem__, facets))
                facets = []
            if d:
                # a simplex's combinations drop its last vertex first
                facets = list(chain.from_iterable(map(combinations, layer, repeat(d))))
                current = given.pop(d - 1, set())
                current.update(facets)
        self.order: tuple[Simplex, ...] = tuple(chain.from_iterable(layers))
        self.index: dict[Simplex, int] = dict(zip(self.order, range(len(self.order))))
        ids = tuple(self.index.values())
        self._f_vector = tuple(map(len, layers))
        start = self.layer_start = (0, *accumulate(self._f_vector))
        self.facet_table: tuple[tuple[tuple[int, ...], ...], ...] = ((),) + tuple(
            tuple(
                tuple(map(ids[start[d - 1] : start[d]].__getitem__, local_facets[d][d - k :: d + 1]))
                for k in range(d + 1)
            )
            for d in range(1, dim + 1)
        )
        self.vertices: tuple[int, ...] = tuple(s[0] for s in layers[0])

    @staticmethod
    def from_maximal(maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return SimplicialComplex(tuple(sorted(set(m))) for m in maximal)

    @cached_property
    def simplices(self) -> frozenset[Simplex]:
        return frozenset(self.order)

    def sorted_simplices(self) -> list[Simplex]:
        """All simplices sorted by (dimension, vertex tuple); the canonical order."""
        return list(self.order)

    def facets(self, i: int) -> tuple[int, ...]:
        """Positions of the facets of `order[i]`, ascending."""
        d = len(self.order[i]) - 1
        k = i - self.layer_start[d]
        return tuple(column[k] for column in reversed(self.facet_table[d]))

    def by_layer(self, positions: Iterable[int]) -> list[list[int]]:
        """The positions sorted and split by dimension."""
        ps = sorted(positions)
        cuts = [bisect_left(ps, s) for s in self.layer_start]
        return [ps[cuts[d] : cuts[d + 1]] for d in range(self.dim + 1)]

    def euler(self, positions: Iterable[int]) -> int:
        """Alternating count of the simplices at the positions."""
        counts = map(len, self.by_layer(positions))
        return sum(n if d % 2 == 0 else -n for d, n in enumerate(counts))

    def closure(self, positions: Iterable[int]) -> set[int]:
        """Positions of the given simplices and all their faces."""
        layers = [set(layer) for layer in self.by_layer(positions)]
        # each layer is complete before its facets are read
        for d in range(self.dim, 0, -1):
            lo = self.layer_start[d]
            ks = [i - lo for i in layers[d]]
            for column in self.facet_table[d]:
                layers[d - 1].update(map(column.__getitem__, ks))
        return set().union(*layers)

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self.index

    def __len__(self) -> int:
        return len(self.order)

    def f_vector(self) -> tuple[int, ...]:
        return self._f_vector

    def maximal_positions(self) -> list[int]:
        """Ascending positions of the simplices that are no facet of another;
        in a closed complex a proper face is a facet of some simplex."""
        facets: set[int] = set()
        for columns in self.facet_table:
            for column in columns:
                facets.update(column)
        return list(filterfalse(facets.__contains__, range(len(self.order))))

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The simplices at `maximal_positions()`."""
        return tuple(map(self.order.__getitem__, self.maximal_positions()))


def euler_characteristic(simplices: Iterable[Simplex]) -> int:
    """Alternating count over any set of simplices (need not be closed)."""
    total = 0
    for s in simplices:
        total += -1 if len(s) % 2 == 0 else 1
    return total


def euler_of_complex(K: SimplicialComplex) -> int:
    return sum(n if d % 2 == 0 else -n for d, n in enumerate(K.f_vector()))


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
    members = sorted(set(positions))
    parent = dict(zip(members, members))
    # Union by least root, so a parent never exceeds its child and, walking
    # up, a parent's root is known before its child's.  A facet has a lower
    # position than its simplex, so `i` is still a root when its facets are
    # read.
    for d, layer in enumerate(K.by_layer(members)):
        lo = K.layer_start[d]
        ks = [i - lo for i in layer]
        for i, facets in zip(layer, zip(*(map(c.__getitem__, ks) for c in K.facet_table[d]))):
            root = i
            for j in facets:
                if j not in parent:
                    continue
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if j < root:
                    parent[root] = root = j
                elif j > root:
                    parent[j] = root
    groups: dict[int, list[int]] = {}
    for i in members:  # ascending, so each component opens at its least position
        root = parent[i] = parent[parent[i]]
        groups.setdefault(root, []).append(i)
    return list(groups.values())
