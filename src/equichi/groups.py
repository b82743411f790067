"""Finite groups as explicit composition tables, with subgroup machinery.

Elements are ids 0..order-1.  Groups built from permutation generators get
the canonical element ordering: breadth-first closure from the identity,
each layer sorted lexicographically by permutation tuple, so identical
generator lists always produce identical tables.  Groups built from an
explicit table keep the given ordering.

Tables that the generators fix (a permutation group's own table, the rows
of an action) are composed along one breadth-first walk over them (`_walk`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf, lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ValidationError

DEFAULT_SIZE_CAP = 256


class FiniteGroup:
    """A finite group given by its composition table.

    table[a][b] is the id of the product a*b.  Products compose left to
    right in the action sense: (a*b) acts by applying b first.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        generators: Sequence[int] = (),
        perms: Sequence[tuple[int, ...]] | None = None,
        _trusted: bool = False,
    ):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.perms = tuple(perms) if perms is not None else None
        if _trusted:
            self.identity = self._find_identity()
        else:
            self._validate()  # finds the identity between its checks
        self._inverse = tuple(row.index(self.identity) for row in self.table)
        if not generators:
            generators = tuple(e for e in range(self.order) if e != self.identity)
        self.generators = tuple(generators)
        if any(not 0 <= g < self.order for g in self.generators):
            raise ValidationError(
                f"generators must be element ids in [0, {self.order - 1}]"
            )
        self._char_table = None
        self._subgroup_groups: dict[tuple[int, ...], tuple["FiniteGroup", tuple[int, ...]]] = {}

    # -- construction-time validation ----------------------------------

    def _validate(self) -> None:
        n = self.order
        if n == 0:
            raise ValidationError("empty composition table")
        full = set(range(n))
        for a, row in enumerate(self.table):
            if len(row) != n:
                raise ValidationError(f"table row {a} has length {len(row)}, expected {n}")
            if set(row) != full:
                raise ValidationError(f"table row {a} is not a permutation of element ids")
        for b in range(n):
            if {self.table[a][b] for a in range(n)} != full:
                raise ValidationError(f"table column {b} is not a permutation of element ids")
        self.identity = self._find_identity()
        self._check_associativity()

    def _magma_generators(self) -> list[int]:
        """A generating set of the table as a magma, found greedily: each
        element that the walk over the set so far does not reach is added, so
        every element is a product of the set."""
        reached = {self.identity}
        gens: list[int] = []
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached.update(y for y, _, _ in _walk(self.identity, gens, self.mul))
        return gens

    def _check_associativity(self) -> None:
        """Light's test, exact at every order: (x*g)*y = x*(g*y) for all x, y
        and every g in a generating set.  The elements g passing it are closed
        under products, so the whole table is associative."""
        n = self.order
        t = self.table
        if n == 1:
            return
        for g in self._magma_generators():
            times_g = itemgetter(*t[g])  # row_x -> (x*(g*y) for y)
            for x in range(n):
                if t[t[x][g]] != times_g(t[x]):
                    y = next(y for y in range(n) if t[t[x][g]][y] != t[x][t[g][y]])
                    raise ValidationError(
                        f"non-associative table: ({x}*{g})*{y} != {x}*({g}*{y})"
                    )

    def _find_identity(self) -> int:
        """The two-sided identity: its row and its column are the ids."""
        ids = tuple(range(self.order))
        for e, row in enumerate(self.table):
            if row == ids and all(r[e] == x for x, r in zip(ids, self.table)):
                return e
        raise ValidationError("table has no identity element")

    # -- basic operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def generator_walk(self) -> list[tuple[int, int, int]]:
        """The walk (see `_walk`) over `generators`, which must reach every
        element."""
        walk = _walk(self.identity, self.generators, self.mul)
        if len(walk) + 1 != self.order:
            raise ValidationError(
                f"generators {list(self.generators)} reach {len(walk) + 1} "
                f"of the {self.order} group elements"
            )
        return walk

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        t = self.table
        return t[t[g][a]][self._inverse[g]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    @cached_property
    def exponent(self) -> int:
        """The lcm of the element orders, read off the power map: conjugate
        elements have equal orders."""
        return lcm(*map(len, self.class_powers))

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    # -- conjugacy classes ----------------------------------------------

    @cached_property
    def _classes(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The conjugacy classes in canonical order and each element's class."""
        seen = [False] * self.order
        classes = []
        for a in range(self.order):
            if seen[a]:
                continue
            cls = {self.conjugate(g, a) for g in range(self.order)}
            for x in cls:
                seen[x] = True
            classes.append(tuple(sorted(cls)))
        classes.sort(key=lambda c: (len(c), c[0]))
        class_of = [0] * self.order
        for j, cls in enumerate(classes):
            for x in cls:
                class_of[x] = j
        return tuple(classes), tuple(class_of)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes in canonical order: sorted by (size, least element id).
        Each class lists its element ids ascending."""
        return self._classes[0]

    def class_of(self, a: int) -> int:
        return self._classes[1][a]

    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.conjugacy_classes())

    @cached_property
    def class_powers(self) -> tuple[tuple[int, ...], ...]:
        """The power map: per class in canonical order, the classes of g^0,
        g^1, ..., g^(m-1) for its representative g of order m."""
        class_of = self._classes[1]
        t = self.table
        result = []
        for g in self.class_representatives():
            powers = [class_of[self.identity]]
            x = g
            while x != self.identity:
                powers.append(class_of[x])
                x = t[x][g]
            result.append(tuple(powers))
        return tuple(result)


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product in action order: (a*b)(x) = a(b(x)), a `gather` from a."""
    return gather(b)(a)


def _walk(identity, generators: Iterable, mul, limit: float = inf) -> list[tuple]:
    """The breadth-first spanning tree of what right products by `generators`
    reach from `identity`: one (y, x, g) with y = mul(x, g) per element
    reached, in the order reached, one frontier at a time with the generators
    in first-occurrence order.  Stops after the frontier on which more than
    `limit` elements are reached."""
    gens = tuple(dict.fromkeys(generators))
    reached = {identity}
    walk = []
    frontier = [identity]
    while frontier and len(reached) <= limit:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in reached:
                    reached.add(y)
                    new.append(y)
                    walk.append((y, x, g))
        frontier = new
    return walk


def gather(positions: Sequence) -> Callable[[Sequence], tuple]:
    """The C-level gather row -> (row[p] for p in positions), as a tuple: an
    `itemgetter` over the positions, built once and applied to many rows.
    One position gets a 1-tuple, where `itemgetter` would return the bare
    item, and none gets ()."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


def compose_rows(
    walk: Sequence[tuple[int, int, int]], identity_row: tuple[int, ...], generator_rows: Mapping
) -> tuple[tuple[int, ...], ...]:
    """Every element's row, indexed by element id, composed along a walk that
    reaches every element: row(x*g) = row(x) o row(g), one `gather` per
    generator applied to row(x)."""
    getters = {g: gather(row) for g, row in generator_rows.items()}
    rows = [identity_row] * (len(walk) + 1)
    for y, x, g in walk:
        rows[y] = getters[g](rows[x])
    return tuple(rows)


def group_from_permutations(
    generators: Sequence[Sequence[int]], size_cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroup:
    """Close permutation generators into a group with canonical element order.

    Breadth-first from the identity, each layer sorted lexicographically, so
    the ordering depends only on the generated set of permutations.  The
    table is composed from the generators' left-multiplication rows.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        return FiniteGroup([[0]], generators=(), perms=((),), _trusted=True)
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {list(g)}")
    identity = tuple(range(degree))
    walk = _walk(identity, gens, _perm_mul, size_cap)
    if len(walk) >= size_cap:
        raise ValidationError(
            f"generator closure exceeds the size cap ({size_cap}); "
            "raise the cap explicitly if this is intended"
        )
    depth = {identity: 0}
    for y, x, _ in walk:
        depth[y] = depth[x] + 1
    elements = sorted(depth, key=lambda p: (depth[p], p))
    index = {p: i for i, p in enumerate(elements)}
    left = {index[g]: tuple(index[_perm_mul(g, b)] for b in elements) for g in set(gens)}
    walk_ids = [(index[y], index[x], index[g]) for y, x, g in walk]
    table = compose_rows(walk_ids, tuple(range(len(elements))), left)
    gen_ids = tuple(index[g] for g in gens)
    return FiniteGroup(table, generators=gen_ids, perms=elements, _trusted=True)


def group_from_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    return FiniteGroup(table)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `parent`, stored as an ascending tuple of element ids."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        G = self.parent
        if elems and not (0 <= elems[0] and elems[-1] < G.order):
            raise ValidationError(
                f"subgroup elements must be element ids in [0, {G.order - 1}]"
            )
        if G.identity not in elems:
            raise ValidationError("subgroup must contain the identity")
        eset = set(elems)
        for a in elems:
            if G.inv(a) not in eset:
                raise ValidationError(f"subgroup not closed under inverse at element {a}")
            for b in elems:
                if G.mul(a, b) not in eset:
                    raise ValidationError(
                        f"subgroup not closed under composition at ({a}, {b})"
                    )

    @staticmethod
    def generated(parent: FiniteGroup, gens: Iterable[int]) -> "Subgroup":
        gens = tuple(gens)
        if any(not 0 <= g < parent.order for g in gens):
            raise ValidationError(
                f"subgroup generators must be element ids in [0, {parent.order - 1}]"
            )
        walk = _walk(parent.identity, gens, parent.mul)
        return Subgroup(parent, (parent.identity, *(y for y, _, _ in walk)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in set(self.elements)

    @cached_property
    def conjugates(self) -> dict[tuple[int, ...], list[int]]:
        """Every conjugate g H g^-1, as its ascending element tuple, mapped to
        the ascending ids g that give it: one scan over the parent group,
        which the class representative, the normalizer and subconjugacy read."""
        G = self.parent
        found: dict[tuple[int, ...], list[int]] = {}
        for g in range(G.order):
            conjugate = tuple(sorted(G.conjugate(g, a) for a in self.elements))
            found.setdefault(conjugate, []).append(g)
        return found

    def canonical_class_representative(self) -> "Subgroup":
        """Lexicographically least element tuple among all conjugates."""
        return Subgroup(self.parent, min(self.conjugates))

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as its own FiniteGroup plus the id-to-parent map.

        Elements keep ascending parent-id order, so the result is canonical;
        cached on the parent.
        """
        cached = self.parent._subgroup_groups.get(self.elements)
        if cached is not None:
            return cached
        to_parent = self.elements
        pos = {p: i for i, p in enumerate(to_parent)}
        table = [
            [pos[self.parent.mul(a, b)] for b in to_parent] for a in to_parent
        ]
        H = FiniteGroup(table, perms=None, _trusted=True)
        result = (H, to_parent)
        self.parent._subgroup_groups[self.elements] = result
        return result


def normalizer(H: Subgroup) -> Subgroup:
    """N_G(H) = { g : g H g^-1 = H }, the ids that conjugate H to itself."""
    return Subgroup(H.parent, tuple(H.conjugates[H.elements]))


def subconjugate(H: Subgroup, K: Subgroup) -> bool:
    """True iff some conjugate of H is contained in K."""
    if H.parent is not K.parent:
        raise ValidationError("subgroups of different parent groups")
    return any(map(set(K.elements).issuperset, H.conjugates))


def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, found by closing cyclic subgroups under joins.
    Sorted by (order, element tuple).  Exhaustive, for small G; README API."""
    found: set[tuple[int, ...]] = {(G.identity,)}
    cyclics = set()
    for a in range(G.order):
        cyclics.add(Subgroup.generated(G, [a]).elements)
    found |= cyclics
    frontier = set(found)
    while frontier:
        new: set[tuple[int, ...]] = set()
        for h in frontier:
            for c in cyclics:
                join = Subgroup.generated(G, set(h) | set(c)).elements
                if join not in found:
                    new.add(join)
        found |= new
        frontier = new
    subs = [Subgroup(G, elems) for elems in found]
    subs.sort(key=lambda s: (s.order, s.elements))
    return tuple(subs)
