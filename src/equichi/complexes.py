"""Finite abstract simplicial complexes.

A complex is the set of all its nonempty simplices, each a strictly
ascending tuple of integer vertex ids, closed under taking faces.  Euler
characteristics are alternating simplex counts; everything is exact.

A complex is built on packed integer keys, not on vertex tuples: the sorted
vertex ids are ranked once, and a d-simplex is the int holding the ranks of
its d + 1 vertices, b bits each with the least first, where b is the bit
length of the greatest rank.  Int order within a dimension is then the
canonical (vertex tuple) order, so each dimension is sorted once as ints,
and a facet's key is its simplex's key with one b-bit field cut out by
shifts and masks.  Every computation reads positions; vertex tuples are
built only when `order` or `index` is first read.

Each dimension's given simplices are transposed into vertex columns once,
and one sweep from the top dimension down closes them under faces: each
layer's facet keys are cut once, and they fill in, number the facets of and
tell the maximal simplices of the layer below.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, reduce
from itertools import accumulate, chain, groupby, repeat
from operator import add, and_, lshift, lt, or_, rshift
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .groups import gather

Simplex = tuple[int, ...]


def _pack(columns: Sequence[Iterable[int]], bits: int) -> Iterable[int]:
    """The ints holding, per row, the entries of the columns `bits` bits
    each, the first column in the highest field; lazily, in C-level maps."""
    return reduce(lambda keys, c: map(or_, map(lshift, keys, repeat(bits)), c), columns[1:], columns[0])


def _drop_field(keys: Iterable[int], d: int, k: int, bits: int) -> Iterable[int]:
    """The keys of d-simplices with the field of vertex k cut out: the keys
    of their facets without vertex k."""
    low = bits * (d - k)  # the fields of vertices k + 1 .. d
    if k == d:
        return map(rshift, keys, repeat(bits))
    below = map(and_, keys, repeat((1 << low) - 1))
    if k == 0:
        return below
    above = map(lshift, map(rshift, keys, repeat(low + bits)), repeat(low))
    return map(or_, above, below)


class RankColumns(NamedTuple):
    """Simplices given without vertex tuples: per dimension d, d + 1 columns
    of vertex ranks, strictly ascending along each row, over `vertices`."""

    given: dict[int, list[list[int]]]
    vertices: tuple[int, ...]


class SimplicialComplex:
    """An abstract simplicial complex over integer vertex ids.

    A simplex's number is its position in the canonical (dimension, vertex
    tuple) order; the d-simplices sit at positions `layer_start[d]` up to
    `layer_start[d + 1]`, and the vertices first, so a vertex's position is
    its rank among `vertices`.  Two tables of columns over the d-simplices,
    in layer order, describe them: `columns[d][k]` holds the positions of
    their vertex k, and `facet_table[d][k]` those of their facets without
    vertex k.  Both hold the int objects of `positions`, none of their own.
    `order` (the simplices as vertex tuples) and `index` (tuple -> position)
    are built from `columns` when first read; no computation on positions
    needs them.  Given simplices are strictly ascending lists or tuples.
    """

    def __init__(self, simplices: Iterable[Simplex] | RankColumns):
        if isinstance(simplices, RankColumns):
            self._build(dict(simplices.given), simplices.vertices)
            return
        listed = list(simplices)
        # the given simplices by dimension, the empty one dropped, each
        # dimension's columns of k-th vertices taken by one transpose
        given = {n - 1: list(zip(*g)) for n, g in groupby(sorted(listed, key=len), len) if n}
        for columns in given.values():
            # strictly ascending: each column of k-th vertices lies below the next
            if not all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:])):
                bad = next(t for t in map(tuple, listed) if not all(map(lt, t, t[1:])))
                raise ValidationError(f"simplex must be strictly ascending: {bad}")
        if not given:
            raise ValidationError("complex must be nonempty")
        vertices = sorted(set().union(*chain.from_iterable(given.values())))
        # V distinct sorted ints from 0 to V - 1 are 0 .. V - 1, each its own
        # rank; any other ids (floats and bools among them) are ranked
        if vertices[0] != 0 or vertices[-1] != len(vertices) - 1 or set(map(type, vertices)) != {int}:
            rank = dict(zip(vertices, range(len(vertices)))).__getitem__
            for columns in given.values():
                columns[:] = [list(map(rank, c)) for c in columns]
        self._build(given, tuple(vertices))

    def _build(self, given: dict[int, list[list[int]]], vertices: tuple[int, ...]) -> None:
        self.vertices = vertices
        bits = max(len(vertices) - 1, 1).bit_length()
        self.dim = dim = max(given)
        # One sweep from the top dimension down: the top layer is given and
        # maximal; a lower one is complete, and sorted, once the layer above
        # has cut out its facet keys, and its given simplices outside them are
        # maximal.  Every rank is a vertex of a given simplex and its own key.
        sizes, maximal = [0] * (dim + 1), [[] for _ in range(dim + 1)]  # maximal: within the layer
        facets: list[list[list[int]]] = [[] for _ in range(dim + 1)]  # within the layer below
        cuts: list[list[int]] = []  # the facet keys of the layer above, per vertex cut out
        for d in range(dim, -1, -1):
            # sorted before they are deduplicated, which is linear on keys given in order
            keys = dict.fromkeys(sorted(_pack(given.pop(d), bits))) if d in given else {}
            if not cuts:
                layer = list(keys)
                maximal[d] = range(len(layer))
            elif d:
                cut = set().union(*cuts)
                top = keys.keys() - cut
                cut.update(keys)
                layer = sorted(cut)
                del cut, keys
                local = dict(zip(layer, range(len(layer)))).__getitem__
                maximal[d], facets[d + 1] = sorted(map(local, top)), [list(map(local, c)) for c in cuts]
            else:
                layer = range(len(vertices))
                maximal[0], facets[1] = sorted(set(keys).difference(*cuts)) if keys else [], cuts
            sizes[d] = len(layer)
            cuts = [list(_drop_field(layer, d, k, bits)) for k in range(d + 1)] if d else []
        self._f_vector = tuple(sizes)
        start = self.layer_start = (0, *accumulate(sizes))
        ids = self.positions = tuple(range(start[-1]))
        self._maximal = list(chain.from_iterable(map(add, ms, repeat(lo)) for lo, ms in zip(start, maximal)))
        columns = [(ids[: start[1]],)]
        facet_table: list[tuple[tuple[int, ...], ...]] = [()]
        for d in range(1, dim + 1):
            local_facets, facets[d] = list(map(gather, facets[d])), []
            below = ids[start[d - 1] : start[d]]
            facet_table.append(tuple(f(below) for f in local_facets))
            # vertex k < d is vertex k of the facet without vertex d, and
            # vertex d is vertex d - 1 of the facet without vertex 0
            columns.append((*map(local_facets[d], columns[d - 1]), local_facets[0](columns[d - 1][-1])))
        self.columns: tuple[tuple[tuple[int, ...], ...], ...] = tuple(columns)
        self.facet_table: tuple[tuple[tuple[int, ...], ...], ...] = tuple(facet_table)

    @cached_property
    def order(self) -> tuple[Simplex, ...]:
        """The simplices as vertex tuples, in canonical order."""
        vertex = self.vertices.__getitem__
        return tuple(
            chain.from_iterable(zip(*(map(vertex, column) for column in columns)) for columns in self.columns)
        )

    @cached_property
    def index(self) -> dict[Simplex, int]:
        """Simplex -> position, onto the int objects of `positions`."""
        return dict(zip(self.order, self.positions))

    @staticmethod
    def from_maximal(maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return SimplicialComplex(tuple(sorted(set(m))) for m in maximal)

    @cached_property
    def simplices(self) -> frozenset[Simplex]:
        """A view for the benchmark, which counts it."""
        return frozenset(self.order)

    def dim_of(self, i: int) -> int:
        """The dimension of the simplex at position i."""
        return bisect_right(self.layer_start, i) - 1

    def facets(self, i: int) -> tuple[int, ...]:
        """Positions of the facets of `order[i]`, ascending."""
        d = self.dim_of(i)
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

    def __len__(self) -> int:
        return self.layer_start[-1]

    def f_vector(self) -> tuple[int, ...]:
        return self._f_vector

    def maximal_positions(self) -> list[int]:
        """Ascending positions of the simplices that are a face of no other,
        recorded by the constructor's sweep: the top layer, and each given
        lower simplex that is no facet of the layer above, as every proper
        face is a facet of a simplex one dimension up.  A simplex that is
        not given is a face of one that is."""
        return self._maximal


def euler_characteristic(simplices: Iterable[Simplex]) -> int:
    """Alternating count over any set of simplices; the benchmark's check."""
    total = 0
    for s in simplices:
        total += -1 if len(s) % 2 == 0 else 1
    return total


def euler_of_complex(K: SimplicialComplex) -> int:
    return sum(n if d % 2 == 0 else -n for d, n in enumerate(K.f_vector()))


def subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """The barycentric subdivision, on the positions of K as vertex ids.

    Its simplices are the chains of strictly nested simplices of K, and each
    chain is a face of a full flag of a maximal simplex.  The flags are
    built top-down on positions through the facet table: each chain opens
    at a maximal position, which K recorded while it was built, and every
    facet of its lowest simplex is prepended, layer by layer, down to the
    vertices.  The flags of the maximal d-simplices are columns of vertex
    ranks (every position of K is a vertex of the subdivision, lying on a
    flag, so its rank is itself), and the subdivision is built on them
    without a vertex tuple.
    """
    start = K.layer_start
    flags: dict[int, list[list[int]]] = {}
    for top, maximal in enumerate(K.by_layer(K.maximal_positions())):
        if not maximal:
            continue
        # one column per layer of the chains so far, the lowest first
        columns = [maximal]
        for d in range(top, 0, -1):
            lowest = gather([i - start[d] for i in columns[0]])
            below = list(chain.from_iterable(map(lowest, K.facet_table[d])))
            columns = [below, *(column * (d + 1) for column in columns)]
        flags[top] = columns
    return SimplicialComplex(RankColumns(flags, K.positions))


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
