"""Finite groups as explicit composition tables, with subgroup machinery.

Elements are ids 0..order-1.  Groups built from permutation generators get
the canonical element ordering: breadth-first closure from the identity,
each layer sorted lexicographically by permutation tuple, so identical
generator lists always produce identical tables.  Groups built from an
explicit table keep the given ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DefectError, ValidationError

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
        if not generators:
            generators = tuple(e for e in range(self.order) if e != self.identity)
        self.generators = tuple(generators)
        if any(not 0 <= g < self.order for g in self.generators):
            raise ValidationError(
                f"generators must be element ids in [0, {self.order - 1}]"
            )
        self._char_table = None
        self._subgroup_groups: dict[tuple[int, ...], tuple["FiniteGroup", tuple[int, ...]]] = {}
        self._caches: dict[str, object] = {}

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
        element the right-multiplication closure of the identity has not
        reached yet is added, so every element is a product of the set."""
        t = self.table
        reached = {self.identity}
        gens: list[int] = []
        for g in range(self.order):
            if g in reached:
                continue
            gens.append(g)
            frontier = list(reached)
            while frontier:
                new = []
                for x in frontier:
                    for s in gens:
                        y = t[x][s]
                        if y not in reached:
                            reached.add(y)
                            new.append(y)
                frontier = new
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

    def inv(self, a: int) -> int:
        row = self.table[a]
        for b in range(self.order):
            if row[b] == self.identity:
                return b
        raise DefectError(f"element {a} has no inverse")

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    @property
    def exponent(self) -> int:
        if "exponent" not in self._caches:
            exp = 1
            for a in range(self.order):
                exp = lcm(exp, self.element_order(a))
            self._caches["exponent"] = exp
        return self._caches["exponent"]  # type: ignore[return-value]

    def is_abelian(self) -> bool:
        if "abelian" not in self._caches:
            t = self.table
            self._caches["abelian"] = all(
                t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
            )
        return self._caches["abelian"]  # type: ignore[return-value]

    # -- conjugacy classes ----------------------------------------------

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes in canonical order: sorted by (size, least element id).
        Each class lists its element ids ascending."""
        if "classes" not in self._caches:
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
            self._caches["classes"] = tuple(classes)
            class_of = [0] * self.order
            for j, cls in enumerate(classes):
                for x in cls:
                    class_of[x] = j
            self._caches["class_of"] = tuple(class_of)
        return self._caches["classes"]  # type: ignore[return-value]

    def class_of(self, a: int) -> int:
        self.conjugacy_classes()
        return self._caches["class_of"][a]  # type: ignore[index]

    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.conjugacy_classes())


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product in action order: (a*b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def group_from_permutations(
    generators: Sequence[Sequence[int]], size_cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroup:
    """Close permutation generators into a group with canonical element order.

    Breadth-first from the identity, each new layer sorted lexicographically,
    so the ordering depends only on the generated set of permutations.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        return FiniteGroup([[0]], generators=(), perms=((),), _trusted=True)
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {list(g)}")
    identity = tuple(range(degree))
    elements: list[tuple[int, ...]] = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        layer = set()
        for x in frontier:
            for g in gens:
                y = _perm_mul(x, g)
                if y not in index and y not in layer:
                    layer.add(y)
        if len(index) + len(layer) > size_cap:
            raise ValidationError(
                f"generator closure exceeds the size cap ({size_cap}); "
                "raise the cap explicitly if this is intended"
            )
        frontier = sorted(layer)
        for y in frontier:
            index[y] = len(elements)
            elements.append(y)
    n = len(elements)
    table = [[index[_perm_mul(a, b)] for b in elements] for a in elements]
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
        closure = {parent.identity}
        frontier = [parent.identity]
        gens = list(gens)
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = parent.mul(x, g)
                    if y not in closure:
                        closure.add(y)
                        new.append(y)
            frontier = new
        return Subgroup(parent, tuple(sorted(closure)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in set(self.elements)

    def canonical_class_representative(self) -> "Subgroup":
        """Lexicographically least element tuple among all conjugates."""
        G = self.parent
        best = min(
            tuple(sorted(G.conjugate(g, a) for a in self.elements))
            for g in range(G.order)
        )
        return Subgroup(G, best)

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
    """N_G(H) = { g : g H g^-1 = H }, by exhaustive check."""
    G = H.parent
    eset = set(H.elements)
    members = [
        g
        for g in range(G.order)
        if {G.conjugate(g, a) for a in H.elements} == eset
    ]
    return Subgroup(G, tuple(members))


def subconjugate(H: Subgroup, K: Subgroup) -> bool:
    """True iff some conjugate of H is contained in K (exhaustive over g)."""
    if H.parent is not K.parent:
        raise ValidationError("subgroups of different parent groups")
    G = H.parent
    kset = set(K.elements)
    if len(H.elements) > len(K.elements):
        return False
    for g in range(G.order):
        if all(G.conjugate(g, a) in kset for a in H.elements):
            return True
    return False


def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, found by closing cyclic subgroups under joins.
    Sorted by (order, element tuple).  Exhaustive; intended for small G."""
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
