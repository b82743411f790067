"""Finite group actions on simplicial complexes.

Covers: building and validating an action from generator images,
regularization by barycentric subdivision, fixed subcomplexes, orbit-type
stratification with components relative to the group, orbit spaces, and
orientation characters of normal data along strata.

Regularity here means two things, both needed downstream:
  (a) a simplex mapped to itself is fixed pointwise, so traces on chain
      groups are fixed-simplex counts;
  (b) the quotient map is faithful: no simplex has two vertices in one
      orbit, and distinct simplex orbits have distinct vertex-orbit images,
      so the orbit space is again a simplicial complex on vertex orbits.
Two barycentric subdivisions always suffice; this is asserted, not assumed.

Per-simplex group loops read one integer action table per complex (see
`ActionTable`): simplex positions in canonical order and, per element, the
permutation of those positions.  Vertex fixity is kept apart from it, as one
bitmask of fixing elements per vertex read off the vertex maps, so the
fixed-set route to a Lefschetz number never reads the table the trace route
counts on.  One walk over the simplex orbits (see `OrbitWalk`) decides both
regularity conditions and yields the orbit space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Mapping, Sequence

from .complexes import (
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    closure_of,
    connected_components,
    euler_characteristic,
)
from .errors import DefectError, ValidationError
from .groups import FiniteGroup, Subgroup, normalizer, subconjugate

VertexMap = dict[int, int]


@dataclass(frozen=True)
class ActionTable:
    """The action on simplices as integer data, built once per complex.

    `order` lists the simplices in canonical (dimension, vertex tuple) order,
    `index` maps a simplex to its position there, and `perm[g][i]` is the
    position of the image of `order[i]` under element g.
    """

    order: tuple[Simplex, ...]
    index: dict[Simplex, int]
    perm: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OrbitWalk:
    """One pass over the simplex orbits: `vertex_orbit` maps a vertex to its
    position in `vertex_orbits()`, `images` holds the vertex-orbit image of
    each simplex orbit walked, and `failure` is the first regularity failure,
    where the walk stopped, or None when the action is regular."""

    vertex_orbit: dict[int, int]
    images: set[Simplex]
    failure: str | None


class GComplex:
    """A simplicial complex with a validated action of a finite group.

    `action[g]` is the vertex map of element g.  `table` is the induced
    action on simplices, `fixers[v]` the bitmask (bit g for element g) of
    the elements fixing vertex v and `walk` the pass over simplex orbits;
    each is built on first use and cached.
    """

    def __init__(
        self,
        complex: SimplicialComplex,
        group: FiniteGroup,
        action: Mapping[int, VertexMap],
        regular: bool = False,
        subdivisions: int = 0,
    ):
        self.complex = complex
        self.group = group
        self.action = {g: dict(m) for g, m in action.items()}
        self.regular = regular
        self.subdivisions = subdivisions
        self._caches: dict[str, object] = {}

    # -- action data ----------------------------------------------------

    @property
    def table(self) -> ActionTable:
        if "table" not in self._caches:
            self._caches["table"] = _action_table(self.complex, self.group, self.action)
        return self._caches["table"]  # type: ignore[return-value]

    @property
    def walk(self) -> OrbitWalk:
        if "walk" not in self._caches:
            self._caches["walk"] = _orbit_walk(self)
        return self._caches["walk"]  # type: ignore[return-value]

    @property
    def fixers(self) -> dict[int, int]:
        if "fixers" not in self._caches:
            masks = dict.fromkeys(self.complex.vertices, 0)
            for g, m in self.action.items():
                bit = 1 << g
                for v, w in m.items():
                    if v == w:
                        masks[v] |= bit
            self._caches["fixers"] = masks
        return self._caches["fixers"]  # type: ignore[return-value]

    def _fixer_mask(self, simplex: Simplex) -> int:
        """Bitmask of the elements fixing every vertex of the simplex."""
        everything = (1 << self.group.order) - 1
        return reduce(and_, map(self.fixers.__getitem__, simplex), everything)

    def _subgroup_of_mask(self, mask: int) -> Subgroup:
        """The subgroup whose elements are the set bits of `mask`, one cached
        instance per mask."""
        cache = self._caches.setdefault("subgroups", {})
        H = cache.get(mask)  # type: ignore[union-attr]
        if H is None:
            members = tuple(g for g in range(self.group.order) if mask >> g & 1)
            H = cache[mask] = Subgroup(self.group, members)  # type: ignore[index]
        return H

    # -- action application --------------------------------------------

    def apply(self, g: int, simplex: Simplex) -> Simplex:
        t = self.table
        i = t.index.get(simplex)
        if i is None:  # not a simplex of the complex: map its vertices
            m = self.action[g]
            return tuple(sorted(m[v] for v in simplex))
        return t.order[t.perm[g][i]]

    def orbit(self, simplex: Simplex) -> frozenset[Simplex]:
        t = self.table
        i = t.index.get(simplex)
        if i is None:
            return frozenset(self.apply(g, simplex) for g in range(self.group.order))
        return frozenset(t.order[p[i]] for p in t.perm)

    def isotropy(self, simplex: Simplex) -> Subgroup:
        """Pointwise stabilizer of the simplex."""
        return self._subgroup_of_mask(self._fixer_mask(simplex))

    def vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Vertex orbits sorted by least member."""
        if "vertex_orbits" not in self._caches:
            seen: set[int] = set()
            orbits = []
            for v in self.complex.vertices:
                if v in seen:
                    continue
                orb = {self.action[g][v] for g in range(self.group.order)}
                seen |= orb
                orbits.append(tuple(sorted(orb)))
            orbits.sort(key=lambda o: o[0])
            self._caches["vertex_orbits"] = tuple(orbits)
        return self._caches["vertex_orbits"]  # type: ignore[return-value]


def _action_table(
    complex: SimplicialComplex, group: FiniteGroup, action: Mapping[int, VertexMap]
) -> ActionTable:
    """Build the simplex table, checking that the action is simplicial.

    Only generator images are looked up; every other element's permutation
    is composed along the group's multiplication, which is exact because the
    vertex maps form a homomorphism.  If some generator sends a simplex
    outside the complex, every element is rescanned in the order of
    `complex.simplices` so that the reported witness is the first one.
    """
    order = tuple(complex.sorted_simplices())
    index = {s: i for i, s in enumerate(order)}
    gen_perm: dict[int, tuple[int, ...]] = {}
    try:
        for g in group.generators:
            m = action[g]
            gen_perm[g] = tuple(index[tuple(sorted(map(m.__getitem__, s)))] for s in order)
    except KeyError:
        _raise_non_simplicial(complex, group, action)
        raise DefectError("a generator is not simplicial, yet no element fails") from None
    # every row holds the int objects of `index`, none of its own
    return ActionTable(order, index, _compose_rows(group, tuple(index.values()), gen_perm))


def _compose_rows(
    group: FiniteGroup, identity_row: tuple[int, ...], generator_rows: Mapping[int, tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Every element's row, composed breadth-first from the identity's along
    row(x*g) = row(x) o row(g); indexed by element id."""
    rows = {group.identity: identity_row}
    frontier = [group.identity]
    while frontier:
        new = []
        for x in frontier:
            rx = rows[x]
            for g, rg in generator_rows.items():
                y = group.mul(x, g)
                if y not in rows:
                    rows[y] = tuple(map(rx.__getitem__, rg))
                    new.append(y)
        frontier = new
    if len(rows) != group.order:
        raise DefectError("generators do not reach every group element")
    return tuple(rows[g] for g in range(group.order))


def _raise_non_simplicial(
    complex: SimplicialComplex, group: FiniteGroup, action: Mapping[int, VertexMap]
) -> None:
    for g in range(group.order):
        m = action[g]
        for s in complex.simplices:
            image = tuple(sorted(m[v] for v in s))
            if len(set(image)) != len(s):
                raise ValidationError(
                    f"non-simplicial map: element {g} collapses simplex {s}"
                )
            if image not in complex.simplices:
                raise ValidationError(
                    f"non-simplicial map: element {g} sends simplex {s} to {image}, "
                    "which is not a simplex of the complex"
                )


def build_gcomplex(
    complex: SimplicialComplex,
    group: FiniteGroup,
    generator_images: Sequence[Mapping[int, int] | Sequence[int]],
) -> GComplex:
    """Extend generator vertex images to a validated action of the whole group.

    `generator_images[i]` gives the vertex map of `group.generators[i]`,
    either as a dict or as a list aligned with the complex's vertex order.
    The extension is by composition along the group's multiplication.  It is
    a homomorphism that realizes every given image exactly when
    phi(x*g) = phi(x) o m_g for every element x and every given image m_g,
    which costs |G| * |gens| * V; each map must send simplices to simplices
    (reported with a witness simplex otherwise).
    """
    gens = group.generators
    if len(generator_images) != len(gens):
        raise ValidationError(
            f"expected {len(gens)} generator images, got {len(generator_images)}"
        )
    vertices = complex.vertices
    position = {v: i for i, v in enumerate(vertices)}
    given: list[tuple[int, tuple[int, ...]]] = []
    for gid, img in zip(gens, generator_images):
        if isinstance(img, Mapping):
            m = {int(k): int(v) for k, v in img.items()}
        else:
            if len(img) != len(vertices):
                raise ValidationError(
                    f"generator image length {len(img)} differs from vertex count {len(vertices)}"
                )
            m = {v: int(w) for v, w in zip(vertices, img)}
        if set(m) != set(vertices) or set(m.values()) != set(vertices):
            raise ValidationError("generator image is not a vertex bijection")
        given.append((gid, tuple(position[m[v]] for v in vertices)))
    # vertex maps as tuples of vertex positions
    phi = _compose_rows(group, tuple(range(len(vertices))), dict(given))
    for x, px in enumerate(phi):
        for gid, mg in given:
            if phi[group.mul(x, gid)] != tuple(map(px.__getitem__, mg)):
                _raise_homomorphism_witness(group, phi)
                raise ValidationError(
                    "generator images do not define a group action "
                    f"(the image given for element {gid} differs from the map "
                    "the group table forces on it)"
                )
    action = {
        g: dict(zip(vertices, map(vertices.__getitem__, phi[g])))
        for g in range(group.order)
    }
    X = GComplex(complex, group, action)
    X.table  # the simplicial check
    return X


def _raise_homomorphism_witness(group: FiniteGroup, phi: Sequence[tuple[int, ...]]) -> None:
    """Scan the full composition table for the first pair (a, b) with
    phi(a*b) != phi(a) o phi(b)."""
    for a in range(group.order):
        pa = phi[a]
        for b in range(group.order):
            if phi[group.mul(a, b)] != tuple(map(pa.__getitem__, phi[b])):
                raise ValidationError(
                    "generator images do not define a group action "
                    f"(homomorphism fails at elements {a}, {b})"
                )


# ---------------------------------------------------------------------------
# regularization


def _orbit_walk(X: GComplex) -> OrbitWalk:
    """Walk the simplex orbits, each probed at its first position i.

    (a) Every element mapping order[i] to itself (read off the table) must
    fix each of its vertices (read off the vertex masks).  One probe per
    orbit is exact: g fixes s setwise but not pointwise iff x*g*x^-1 does so
    for x.s.  A simplex failing (a) has two vertices in one orbit, so its
    quotient simplex is degenerate, and it is reported as such.
    (b) The simplex projects to distinct vertex orbits, and no two simplex
    orbits share an image.
    """
    vertex_orbit = {v: k for k, orb in enumerate(X.vertex_orbits()) for v in orb}
    t = X.table
    images: set[Simplex] = set()
    seen = bytearray(len(t.order))
    failure = None
    for i, s in enumerate(t.order):
        if seen[i]:
            continue
        mask = X._fixer_mask(s)
        fixed_pointwise = True
        for g, p in enumerate(t.perm):
            j = p[i]
            seen[j] = 1
            if j == i and not mask >> g & 1:
                fixed_pointwise = False
        img = tuple(sorted(map(vertex_orbit.__getitem__, s)))
        if not fixed_pointwise or len(set(img)) != len(s):
            failure = "regular action produced a degenerate quotient simplex"
        elif img in images:
            failure = "quotient conflated distinct simplex orbits"
        if failure is not None:
            break
        images.add(img)
    return OrbitWalk(vertex_orbit, images, failure)


def is_regular(X: GComplex) -> bool:
    return X.walk.failure is None


def _subdivide(X: GComplex) -> GComplex:
    """The barycentric subdivision, whose vertex ids are positions in the
    canonical simplex order, so each element acts on them by its row of
    the simplex table."""
    sd, vertex_of = barycentric_subdivision(X.complex)
    ids = tuple(vertex_of.values())  # 0, 1, ... as one set of int objects for every map
    action = {g: dict(zip(ids, p)) for g, p in enumerate(X.table.perm)}
    return GComplex(sd, X.group, action, subdivisions=X.subdivisions + 1)


def regularize(X: GComplex) -> GComplex:
    """Barycentrically subdivide (at most twice) until the action is regular.
    The regular copy keeps the cached table, masks, orbits and orbit walk."""
    current = X
    while not is_regular(current):
        if current.subdivisions == X.subdivisions + 2:
            raise DefectError("two barycentric subdivisions did not regularize the action")
        current = _subdivide(current)
    regular = GComplex(
        current.complex,
        current.group,
        current.action,
        regular=True,
        subdivisions=current.subdivisions,
    )
    regular._caches = current._caches
    return regular


def _require_regular(X: GComplex) -> None:
    if not X.regular:
        raise ValidationError("operation requires a regularized complex")


# ---------------------------------------------------------------------------
# fixed subcomplexes


@dataclass(frozen=True)
class FixedSubcomplex:
    """The full subcomplex of H-fixed vertices; its components are found on
    first use."""

    simplices: frozenset[Simplex]

    @cached_property
    def components(self) -> tuple[frozenset[Simplex], ...]:
        return connected_components(self.simplices)

    def euler_characteristic(self) -> int:
        return euler_characteristic(self.simplices)


def fixed_subcomplex(X: GComplex, H: Subgroup) -> FixedSubcomplex:
    """Simplices all of whose vertices are fixed by every element of H, read
    off the vertex masks alone.

    For a regularized complex this is the honest fixed-point set.
    Components are listed canonically (by least simplex).
    """
    hmask = sum(1 << h for h in H.elements)
    fixed_vertices = {v for v, m in X.fixers.items() if m & hmask == hmask}
    return FixedSubcomplex(
        frozenset(s for s in X.complex.simplices if fixed_vertices.issuperset(s))
    )


# ---------------------------------------------------------------------------
# orbit-type stratification


@dataclass
class StratumComponent:
    """One component of a stratum relative to the group: the saturation of an
    orbit of pieces of the H-fixed part."""

    index: int
    piece_indices: tuple[int, ...]
    simplices: frozenset[Simplex]
    dim: int
    codim: int
    closure: frozenset[Simplex]
    lower: frozenset[Simplex]  # closure minus the open component


@dataclass
class Stratum:
    """All simplices with isotropy in one conjugacy class of subgroups."""

    index: int
    isotropy: Subgroup  # canonical class representative
    simplices: frozenset[Simplex]
    pieces: tuple[frozenset[Simplex], ...]  # components of the H-fixed part
    piece_action: dict[int, tuple[int, ...]]  # normalizer element -> piece permutation
    components: tuple[StratumComponent, ...]
    codimension: int
    is_principal: bool


@dataclass
class Stratification:
    strata: tuple[Stratum, ...]
    ambient_dim: int

    @property
    def principal(self) -> Stratum:
        return self.strata[0]

    @property
    def singular(self) -> tuple[Stratum, ...]:
        return self.strata[1:]


def _compact(simplices: Iterable[Simplex]) -> frozenset[Simplex]:
    """The simplices as a frozenset copied from a set: one grown straight
    from an iterator keeps a hash table up to twice as large."""
    return frozenset(set(simplices))


def orbit_type_stratification(X: GComplex) -> Stratification:
    """Group simplices by isotropy conjugacy class, in an order extending the
    subconjugacy partial order (ascending isotropy order, canonical class
    representative as tie-break; the principal class comes first)."""
    _require_regular(X)
    t = X.table
    order, index = t.order, t.index
    masks = [X._fixer_mask(s) for s in order]
    class_rep = {
        m: X._subgroup_of_mask(m).canonical_class_representative().elements
        for m in set(masks)
    }
    by_class: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(masks):
        by_class.setdefault(class_rep[m], []).append(i)
    ordered = sorted(by_class, key=lambda rep: (len(rep), rep))
    strata: list[Stratum] = []
    ambient_dim = X.complex.dim
    for j, rep in enumerate(ordered):
        rep_mask = sum(1 << g for g in rep)
        H = X._subgroup_of_mask(rep_mask)
        members = by_class[rep]
        simplices = _compact(map(order.__getitem__, members))
        pieces = connected_components(order[i] for i in members if masks[i] == rep_mask)
        piece_positions = [[index[s] for s in piece] for piece in pieces]
        piece_index = {i: pid for pid, pos in enumerate(piece_positions) for i in pos}
        # each piece is probed at its least simplex, the first in canonical order
        probes = [min(pos) for pos in piece_positions]
        N = normalizer(H)
        piece_action = {
            n: tuple(piece_index[t.perm[n][i]] for i in probes) for n in N.elements
        }
        # components relative to the group: normalizer orbits of pieces
        member_set = set(members)
        assigned: set[int] = set()
        components: list[StratumComponent] = []
        for i in range(len(pieces)):
            if i in assigned:
                continue
            orbit_ids = sorted({piece_action[n][i] for n in N.elements})
            assigned.update(orbit_ids)
            swept: set[int] = set()
            for pid in orbit_ids:
                for p in t.perm:
                    swept.update(map(p.__getitem__, piece_positions[pid]))
            swept &= member_set
            saturation = _compact(map(order.__getitem__, swept))
            dim = len(order[max(swept)]) - 1
            closure = closure_of(saturation)
            comp = StratumComponent(
                index=len(components),
                piece_indices=tuple(orbit_ids),
                simplices=saturation,
                dim=dim,
                codim=ambient_dim - dim,
                closure=closure,
                lower=frozenset(closure - saturation),
            )
            components.append(comp)
        stratum_dim = len(order[members[-1]]) - 1  # members ascend in canonical order
        strata.append(
            Stratum(
                index=j,
                isotropy=H,
                simplices=simplices,
                pieces=pieces,
                piece_action=piece_action,
                components=tuple(components),
                codimension=ambient_dim - stratum_dim,
                is_principal=(j == 0),
            )
        )
    # the first stratum must be the unique minimal class and open dense
    principal = strata[0]
    for other in strata[1:]:
        if not subconjugate(principal.isotropy, other.isotropy):
            raise ValidationError(
                "no unique principal orbit type: isotropy classes "
                f"{principal.isotropy.elements} and {other.isotropy.elements} are incomparable minima"
            )
    # every principal simplex lies in a principal component's saturation
    covered = set().union(*(comp.closure for comp in principal.components))
    if covered != X.complex.simplices:
        raise ValidationError(
            "principal stratum is not dense: some simplex is not a face of a principal simplex"
        )
    return Stratification(tuple(strata), ambient_dim)


# ---------------------------------------------------------------------------
# orbit space


@dataclass
class OrbitSpace:
    complex: SimplicialComplex
    vertex_orbit: dict[int, int]  # vertex -> quotient vertex id
    orbit_labels: tuple[tuple[int, ...], ...]  # quotient vertex id -> orbit

    def project_simplex(self, s: Simplex) -> Simplex:
        return tuple(sorted(self.vertex_orbit[v] for v in s))

    def project(self, simplices: Iterable[Simplex]) -> frozenset[Simplex]:
        return frozenset(self.project_simplex(s) for s in simplices)


def orbit_space(X: GComplex) -> OrbitSpace:
    """The quotient complex on vertex orbits (requires regularity, which makes
    simplex orbits and quotient simplices correspond bijectively)."""
    _require_regular(X)
    walk = X.walk
    if walk.failure is not None:
        raise DefectError(walk.failure)
    quotient = SimplicialComplex(walk.images)
    if len(quotient.simplices) != len(walk.images):
        raise DefectError("quotient image set was not closed under faces")
    return OrbitSpace(quotient, dict(walk.vertex_orbit), X.vertex_orbits())


# ---------------------------------------------------------------------------
# orientation characters


def _coherent_orientation(
    tops: Sequence[Simplex], base: Simplex
) -> dict[Simplex, int]:
    """Coherent orientation signs on the top simplices of the star of `base`.

    Pseudomanifold checks: the star is pure, every wall (a top simplex minus
    one vertex, still containing `base`) lies in exactly two tops, the tops
    are connected through walls, and orientations propagate consistently.
    """
    n = len(tops[0])
    if any(len(t) != n for t in tops):
        raise ValidationError(
            f"star of {base} fails the pseudomanifold check: tops of mixed dimension"
        )
    walls: dict[Simplex, list[Simplex]] = {}
    bset = set(base)
    for t in tops:
        for v in t:
            w = tuple(x for x in t if x != v)
            if bset <= set(w):
                walls.setdefault(w, []).append(t)
    for w, owners in walls.items():
        if len(owners) > 2:
            raise ValidationError(
                f"star of {base} fails the pseudomanifold check: wall {w} in {len(owners)} tops"
            )
    orient: dict[Simplex, int] = {tops[0]: 1}
    frontier = [tops[0]]
    while frontier:
        new = []
        for t in frontier:
            for v in t:
                w = tuple(x for x in t if x != v)
                if not bset <= set(w):
                    continue
                owners = walls[w]
                if len(owners) != 2:
                    raise ValidationError(
                        f"star of {base} fails the pseudomanifold check: wall {w} is one-sided"
                    )
                other = owners[0] if owners[1] == t else owners[1]
                sign_here = orient[t] * (-1) ** t.index(v)
                u = next(x for x in other if x not in w)
                required = -sign_here * (-1) ** other.index(u)
                if other in orient:
                    if orient[other] != required:
                        raise ValidationError(
                            f"star of {base} is not orientable; orientation sign undefined"
                        )
                else:
                    orient[other] = required
                    new.append(other)
        frontier = new
    if len(orient) != len(tops):
        raise ValidationError(
            f"star of {base} fails the pseudomanifold check: top simplices are not wall-connected"
        )
    return orient


def _permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting `seq` ascending (distinct entries)."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def _oriented_star(
    simplices: frozenset[Simplex], base: Simplex
) -> dict[Simplex, int] | None:
    """The top simplices of the star of `base` within the closed subcomplex
    `simplices`, in ascending order, with coherent orientation signs; None
    when the normal direction there is zero-dimensional.  Checks purity."""
    bset = set(base)
    star = [s for s in simplices if bset.issubset(s)]
    top_dim = max(len(s) for s in star)
    tops = sorted(s for s in star if len(s) == top_dim)
    for s in star:
        if not any(set(s) <= set(t) for t in tops):
            raise ValidationError(
                f"star of {base} fails the pseudomanifold check: not pure at {s}"
            )
    if len(tops[0]) == len(base):
        return None
    orient = _coherent_orientation(tops, base)
    return {t: orient[t] for t in tops}


def _local_degree_sign(
    X: GComplex, star: dict[Simplex, int] | None, base: Simplex, g: int
) -> int:
    """Sign of the action of g on the top local homology at `base` within a
    closed subcomplex, given its oriented star (g must fix `base` pointwise
    and preserve the subcomplex)."""
    if star is None:
        return 1  # zero-dimensional normal direction within this subcomplex
    m = X.action[g]
    signs = set()
    for t, sign in star.items():
        image_vertices = [m[v] for v in t]
        image = tuple(sorted(image_vertices))
        if image not in star:
            raise ValidationError(
                f"element {g} does not stabilize the star of {base}"
            )
        signs.add(sign * _permutation_sign(image_vertices) * star[image])
    if len(signs) != 1:
        raise DefectError("local degree sign is not constant over the star")
    return signs.pop()


@dataclass(frozen=True)
class OrientationCharacter:
    """The character of the isotropy group on the orientation line of the
    normal slice along a stratum component: sign on ambient top homology
    times sign on stratum top homology, evaluated at a basepoint."""

    subgroup: Subgroup
    basepoint: Simplex
    signs: dict[int, int] = field(compare=False)  # parent element id -> +-1

    def value(self, g: int) -> int:
        if g not in self.signs:
            raise ValidationError(
                f"element {g} does not stabilize the component basepoint"
            )
        return self.signs[g]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.signs.values())

    def class_function(self):
        from .characters import ClassFunction
        from .cyclotomic import Cyc

        Hgroup, to_parent = self.subgroup.as_group()
        values = tuple(
            Cyc.rational(self.signs[to_parent[rep]])
            for rep in Hgroup.class_representatives()
        )
        return ClassFunction(Hgroup, values)


def orientation_character(
    X: GComplex,
    stratum: Stratum,
    component: StratumComponent,
    basepoint: Simplex | None = None,
) -> OrientationCharacter:
    """Orientation character of the normal data along one stratum component.

    The basepoint defaults to the least vertex of the component's canonical
    piece; the character is evaluated on the isotropy subgroup of that piece
    and verified to be multiplicative.
    """
    _require_regular(X)
    piece = stratum.pieces[component.piece_indices[0]]
    if basepoint is None:
        vertices = sorted(s for s in piece if len(s) == 1)
        if not vertices:
            raise ValidationError(
                "stratum component has no vertex to base the orientation "
                "character at; regularize further"
            )
        basepoint = vertices[0]
    elif basepoint not in piece:
        raise ValidationError(f"basepoint {basepoint} is not in the component piece")
    H = X.isotropy(basepoint)
    ambient = _oriented_star(X.complex.simplices, basepoint)
    along = _oriented_star(component.closure, basepoint)
    signs: dict[int, int] = {}
    for h in H.elements:
        sign_ambient = _local_degree_sign(X, ambient, basepoint, h)
        sign_stratum = _local_degree_sign(X, along, basepoint, h)
        signs[h] = sign_ambient * sign_stratum
    for a in H.elements:
        for b in H.elements:
            if signs[X.group.mul(a, b)] != signs[a] * signs[b]:
                raise DefectError("orientation character is not multiplicative")
    return OrientationCharacter(H, basepoint, signs)
