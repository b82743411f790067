"""Finite group actions on simplicial complexes.

Covers: building and validating an action from generator images,
regularization by barycentric subdivision, orbit-type stratification with
components relative to the group, orbit spaces, and, as a diagnostic,
orientation characters of normal data along strata.

The stratified sum and both Lefschetz routes need one fact of an action:
every element that maps a simplex to itself fixes it pointwise.  Then the
chains split into permutation modules C[G/G_s], the orbit space is a G-CW
complex with one cell per simplex orbit, and traces on chain groups are
fixed-simplex counts (tom Dieck, *Transformation Groups*, 1987, II.1).
Bredon's condition (A) gives it: no edge joins two vertices of one orbit
(`GComplex.condition_a`).  Regularity asks for more: the quotient map is
faithful, so distinct simplex orbits also have distinct vertex-orbit images
and the orbit space is again a simplicial complex on vertex orbits
(`GComplex.faithful`).  Bredon (*Introduction to Compact Transformation
Groups*, 1972, III.1) shows that sd K satisfies (A) for any K, and that
sd K is regular whenever K satisfies (A).  So `_ladder` finds the first
complex L of the ladder X, sd X that satisfies (A), one subdivision at
most, and counts the subdivisions to regularity without building them:
L's own if L is regular, else one more.  `verify` and `strata` compute on
L; `regularize` subdivides L once more when it is not regular.  The
stratification and both Lefschetz routes check (A) and nothing more
(`_require_condition_a`); only `orbit_space`, which builds the quotient as
a complex, and `orientation_character` ask for regularity.

Simplices are numbered by their positions in the complex's canonical order,
and every action question is asked and answered by position.  The action is
one row of vertex positions per element (`vertex_perm`); group loops read
one row of simplex positions per element (`perm`), composed from the
generators', whose simplices are looked up by the key of their vertex
images (`_simplex_perm`).  One key of a vertex set (`_set_keys`) serves
those lookups and the regularity probe.  The stratification holds positions
and runs only its checks when made; strata build their pieces and
components when first read.  Vertex fixity, one bitmask of fixing
elements per vertex read off the vertex rows and carried up the facet
table, never reads the simplex rows, so the two Lefschetz routes stay
independent.  One table per complex (`GComplex.by_mask`) groups the
positions by fixer mask; the fixed-set Lefschetz route and the
stratification read it.  One orbit table per complex
(`GComplex.orbit_of`), one pass over the simplex rows, labels each position
with the least position of its orbit; the vertex orbits, the verdicts on
condition (A) and on regularity (read through `is_regular`, the only
regularity state), the stratum components and the orbit space read it.
Under condition (A) simplex orbits and cells of the orbit space
correspond, so Euler numbers of the orbit space are signed counts of the
positions that label their orbit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, compress, count, groupby, repeat
from operator import add, and_, eq, mul
from typing import Collection, Iterable, Mapping, Sequence

from .complexes import (
    Simplex,
    SimplicialComplex,
    connected_components,
    ids_are_ranks,
    subdivision,
)
from .errors import DefectError, ValidationError
from .groups import FiniteGroup, Subgroup, compose_rows, gather, subconjugate

class GComplex:
    """A simplicial complex with a validated action of a finite group.

    `vertex_perm[g][i]`, stored as given, is the position of the image of
    `complex.vertices[i]` under g.  `perm[g][i]` is that of the simplex at
    position i, so its vertex layer is `vertex_perm[g]`; `masks[i]` its
    isotropy, the bitmask (bit g for g) of the elements fixing it pointwise;
    `by_mask` the ascending positions of each mask, `orbit_of[i]` the
    least position of the orbit of position i, `condition_a` the verdict on
    Bredon's condition (A) that `_ladder` and `_require_condition_a` read,
    and `faithful` the verdict on regularity that `is_regular` reads; each
    is built on first use and cached.
    """

    def __init__(
        self,
        complex: SimplicialComplex,
        group: FiniteGroup,
        vertex_perm: Sequence[Sequence[int]],
        subdivisions: int = 0,
    ):
        self.complex = complex
        self.group = group
        self.vertex_perm = vertex_perm
        self.subdivisions = subdivisions
        self._subgroups: dict[int, Subgroup] = {}  # see `_subgroup_of_mask`

    # -- action data ----------------------------------------------------

    @cached_property
    def perm(self) -> tuple[tuple[int, ...], ...]:
        return _simplex_perm(self.complex, self.group, self.vertex_perm)

    @cached_property
    def orbit_of(self) -> list[int]:
        """Per simplex position, the least position of its orbit: positions
        are visited ascending, and each one not yet labelled labels its
        column of the simplex rows."""
        orbit_of: list[int] = [-1] * len(self.complex)
        for i in range(len(orbit_of)):
            if orbit_of[i] < 0:
                for p in self.perm:
                    orbit_of[p[i]] = i
        return orbit_of

    def _orbit_labels(self, d: int) -> list[list[int]]:
        """The vertex-label columns of the d-simplices at the least position
        of their orbit: g.s carries the labels of s, so these stand for all."""
        K, orbit_of = self.complex, self.orbit_of
        lo, hi = K.layer_start[d], K.layer_start[d + 1]
        first = list(map(eq, orbit_of[lo:hi], range(lo, hi)))
        return [list(map(orbit_of.__getitem__, compress(column, first))) for column in K.columns[d]]

    @cached_property
    def _edge_labels(self) -> list[list[int]]:
        """`_orbit_labels(1)`, read by both verdicts."""
        return self._orbit_labels(1)

    @cached_property
    def condition_a(self) -> bool:
        """Bredon's condition (A): no edge joins two vertices of one orbit,
        read off the vertex labels of the orbit table.  It makes every
        simplex that an element maps to itself fixed pointwise: if g maps s
        to itself and moves a vertex v, then v and g.v lie in s and share a
        label.  If two vertices of a simplex share a label, so do those of
        the edge they span, so it is checked on the edges alone."""
        return self.complex.dim < 1 or not any(map(eq, *self._edge_labels))

    @cached_property
    def faithful(self) -> bool:
        """The verdict on regularity: condition (A), so that every simplex
        projects to distinct vertex labels, and then, one layer at a time,
        no two simplex orbits of a layer with one image.  The image of a
        d-simplex is its label set, keyed by `_set_keys`."""
        if not self.condition_a:
            return False
        K = self.complex
        bits = len(K.vertices).bit_length()  # every label lies below 2**bits
        for d in range(1, K.dim + 1):
            labels = self._edge_labels if d == 1 else self._orbit_labels(d)
            if len(set(_set_keys(labels, bits))) != len(labels[0]):
                return False
        return True

    def _quotient_euler(self, positions: Collection[int]) -> int:
        """chi of the image in the orbit space of a G-invariant set of positions
        (the action satisfying condition (A)): the signed count of those that
        label their orbit, one per cell of the image."""
        labels = map(self.orbit_of.__getitem__, positions)
        return self.complex.euler(compress(positions, map(eq, labels, positions)))

    @cached_property
    def masks(self) -> list[int]:
        """Per simplex position, the bitmask of the elements fixing the simplex
        pointwise: for a vertex, the rows that keep its position; above, what
        fixes its facets without vertex 0 and 1."""
        positions = range(len(self.complex.vertices))
        masks = [0] * len(positions)
        for g, row in enumerate(self.vertex_perm):
            bit = 1 << g
            for i in compress(positions, map(eq, row, positions)):
                masks[i] |= bit
        for without_0, without_1, *_ in self.complex.facet_table[1:]:
            masks.extend(
                map(and_, map(masks.__getitem__, without_0), map(masks.__getitem__, without_1))
            )
        return masks

    @cached_property
    def by_mask(self) -> dict[int, list[int]]:
        """Per pointwise fixer mask, the ascending positions that have exactly
        that mask: one stable sort of the positions by mask, cut into runs.
        No reader depends on the order of the masks."""
        mask = self.masks.__getitem__
        return {m: list(ps) for m, ps in groupby(sorted(range(len(self.masks)), key=mask), mask)}

    @cached_property
    def mask_euler(self) -> dict[int, int]:
        """Per fixer mask, the signed count of its (ascending) positions."""
        return {m: self.complex.euler(ps) for m, ps in self.by_mask.items()}

    def _subgroup_of_mask(self, mask: int) -> Subgroup:
        """The subgroup whose elements are the set bits of `mask`, one cached
        instance per mask."""
        H = self._subgroups.get(mask)
        if H is None:
            members = tuple(g for g in range(self.group.order) if mask >> g & 1)
            H = self._subgroups[mask] = Subgroup(self.group, members)
        return H

    def vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Vertex orbits sorted by least member, read off the orbit table."""
        orbits: dict[int, list[int]] = {}
        for v, label in zip(self.complex.vertices, self.orbit_of):
            orbits.setdefault(label, []).append(v)
        return tuple(map(tuple, orbits.values()))


def _vertex_map(complex: SimplicialComplex, row: Sequence[int]) -> dict[int, int]:
    """The vertex map, on vertex ids, of a row of vertex positions."""
    vertices = complex.vertices
    return dict(zip(vertices, map(vertices.__getitem__, row)))


def _simplex_perm(
    complex: SimplicialComplex, group: FiniteGroup, vertex_perm: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Build every element's permutation of simplex positions, checking that
    the action is simplicial.

    Only generator rows are built here, one layer at a time from the vertex
    rows alone: a d-simplex goes to the simplex whose `_set_keys` key is
    that of its d + 1 vertex images, looked up in a table that holds every
    d-simplex once, serves every generator and is dropped before the next
    layer.  Every other row is composed along the group's generator walk,
    exact because the vertex rows form a homomorphism.  A key that is no
    simplex's, an image outside the complex or a collapsed one (which
    repeats a vertex), sends every element to be rescanned in canonical
    order, so that the reported witness is the first one.
    """
    K = complex
    bits = len(K.vertices).bit_length()  # every vertex position lies below 2**bits
    rows = {g: list(vertex_perm[g]) for g in group.generators}
    try:
        for d in range(1, K.dim + 1) if rows else ():  # no generator, no row
            layer = K.positions[K.layer_start[d] : K.layer_start[d + 1]]
            table = dict(zip(_set_keys(K.columns[d], bits), layer))
            getters = list(map(gather, K.columns[d]))
            for g, row in rows.items():
                keys = _set_keys([f(vertex_perm[g]) for f in getters], bits)
                row.extend(map(table.__getitem__, keys))
            del table, getters
    except KeyError:
        _raise_non_simplicial(complex, vertex_perm)
        raise DefectError("a generator is not simplicial, yet no element fails") from None
    # every row holds the int objects of `positions`, none of its own
    rows = {g: tuple(row) for g, row in rows.items()}
    return compose_rows(group.generator_walk, K.positions, rows)


def _set_keys(columns: Sequence[Iterable[int]], bits: int) -> Iterable[int]:
    """One int per row of the columns, entries below 2**bits, lazily: the
    product of T + entry over the row, T = 2**((bits + 1) * len(columns)).
    Its base-T digits are the elementary symmetric functions of the row,
    each below T, so rows share a key exactly when they hold one multiset."""
    T = 1 << (bits + 1) * len(columns)
    factors = [map(add, column, repeat(T)) for column in columns]
    return reduce(lambda keys, f: map(mul, keys, f), factors[1:], factors[0])


def _raise_non_simplicial(complex: SimplicialComplex, vertex_perm: Sequence[Sequence[int]]) -> None:
    for g, row in enumerate(vertex_perm):
        m = _vertex_map(complex, row)
        for s in complex.order:
            image = tuple(sorted(m[v] for v in s))
            if len(set(image)) != len(s):
                raise ValidationError(
                    f"non-simplicial map: element {g} collapses simplex {s}"
                )
            if image not in complex.index:
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
    A list is already a row of vertex positions when the vertex ids are their
    own ranks (`ids_are_ranks`), and is used as it stands; otherwise each id
    is looked up once.  A dict is read through the vertex order.
    The extension is by composition along the group's generator walk.  It is
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
    position = dict(zip(vertices, range(len(vertices))))
    ranks = ids_are_ranks(vertices)
    given: list[tuple[int, Sequence[int]]] = []
    for gid, img in zip(gens, generator_images):
        # 1.0 and True equal the vertex 1, so each id must be an int
        if isinstance(img, Mapping):
            m = dict(img)
            ids = [*m, *m.values()]
            if m.keys() != position.keys() or set(m.values()) != m.keys() or set(map(type, ids)) != {int}:
                raise ValidationError("generator image is not a vertex bijection")
            row = tuple(map(position.__getitem__, map(m.__getitem__, vertices)))
        else:
            if len(img) != len(vertices):
                raise ValidationError(
                    f"generator image length {len(img)} differs from vertex count {len(vertices)}"
                )
            if set(img) != position.keys() or set(map(type, chain(vertices, img))) != {int}:
                raise ValidationError("generator image is not a vertex bijection")
            # aligned with the vertex order, so a row of positions as it
            # stands when the ids are their own positions
            row = img if ranks else tuple(map(position.__getitem__, img))
        given.append((gid, row))
    # vertex maps as rows of vertex positions
    phi = compose_rows(group.generator_walk, tuple(range(len(vertices))), dict(given))
    given_getters = [(gid, gather(mg)) for gid, mg in given]
    for x, px in enumerate(phi):
        for gid, times_mg in given_getters:
            if phi[group.mul(x, gid)] != times_mg(px):
                _raise_homomorphism_witness(group, phi)
                raise ValidationError(
                    "generator images do not define a group action "
                    f"(the image given for element {gid} differs from the map "
                    "the group table forces on it)"
                )
    X = GComplex(complex, group, phi)
    X.perm  # the simplicial check
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


def is_regular(X: GComplex) -> bool:
    """The verdict of the orbit table's probe, cached on the complex."""
    return X.faithful


def _subdivide(X: GComplex) -> GComplex:
    """The barycentric subdivision, whose vertex ids are the positions in the
    canonical simplex order, each at its own position among the vertices, so
    the parent's simplex rows are the child's vertex rows."""
    return GComplex(subdivision(X.complex), X.group, X.perm, subdivisions=X.subdivisions + 1)


def _ladder(X: GComplex) -> tuple[GComplex, int]:
    """The first complex L of the ladder X, sd X that satisfies condition
    (A), and the subdivision count of the first regular complex of the
    ladder: L's if L is regular, else one more, as sd L is regular whenever
    L satisfies (A) (Bredon 1972, III.1).  sd X satisfies (A) for any X, so
    its failing there is a defect."""
    L = X if X.condition_a else _subdivide(X)
    if not L.condition_a:
        raise DefectError(
            "condition (A) fails on the barycentric subdivision: an edge joins "
            "two vertices of one orbit"
        )
    return L, L.subdivisions if is_regular(L) else L.subdivisions + 1


def regularize(X: GComplex) -> GComplex:
    """The first regular complex of the ladder X, sd X, sd^2 X: X itself when
    its action is regular.  It is `_ladder`'s complex, subdivided once more
    when that is not regular; Bredon's proposition makes the result regular,
    so a result that is not is a defect."""
    L, subdivisions = _ladder(X)
    if subdivisions == L.subdivisions:
        return L
    R = _subdivide(L)
    if not is_regular(R):
        raise DefectError("the subdivision of a complex satisfying condition (A) is not regular")
    return R


def _require_regular(X: GComplex) -> None:
    if not is_regular(X):
        raise ValidationError("operation requires a regularized complex")


def _require_condition_a(X: GComplex) -> None:
    if not X.condition_a:
        raise ValidationError("operation requires an action satisfying condition (A)")


# ---------------------------------------------------------------------------
# orbit-type stratification


@dataclass
class StratumComponent:
    """One component of a stratum relative to the group: the saturation of an
    orbit of pieces of the H-fixed part.  `swept` holds its ascending simplex
    positions and `closure_positions` those of its closure; `closure` and
    `lower` (the closure minus the open component), views the benchmark
    reads, are built on first read.  Both are G-invariant, so their images
    Q_cl and Q_low in the orbit space have one simplex per simplex orbit:
    `closure_euler` and `lower_euler` are chi(Q_cl) and chi(Q_low), counted
    on the positions that label their orbits."""

    complex: SimplicialComplex = field(repr=False, compare=False)
    index: int
    piece_indices: tuple[int, ...]
    swept: tuple[int, ...]
    closure_positions: set[int] = field(repr=False)
    dim: int
    codim: int
    closure_euler: int
    lower_euler: int

    @cached_property
    def closure(self) -> frozenset[Simplex]:
        return _simplices(self.complex.order, self.closure_positions)

    @cached_property
    def lower(self) -> frozenset[Simplex]:
        return _simplices(self.complex.order, self.closure_positions.difference(self.swept))


@dataclass
class Stratum:
    """All simplices with isotropy in one conjugacy class of subgroups.

    `members` holds their ascending positions and `exact` those whose
    isotropy is the class representative itself, the open simplices of the
    H-fixed part (a list of `GComplex.by_mask`, shared, so only read).
    `piece_positions` (the components of the exact part, as ascending
    positions), `components` and `open_euler` are built on first read.
    """

    gcomplex: GComplex = field(repr=False, compare=False)
    index: int
    isotropy: Subgroup  # canonical class representative
    members: tuple[int, ...] = field(repr=False)
    exact: list[int] = field(repr=False)
    codimension: int
    is_principal: bool

    @cached_property
    def open_euler(self) -> int:
        """The signed count of the members that label their orbit: chi of
        the image of the stratum's closure relative to that of its frontier,
        chi(Q, Q_sing) for the principal stratum.  The components' open parts
        partition the stratum, so this is the sum of closure_euler -
        lower_euler over the components."""
        return self.gcomplex._quotient_euler(self.members)

    @cached_property
    def piece_positions(self) -> list[list[int]]:
        return connected_components(self.gcomplex.complex, self.exact)

    def piece_vertices(self, pid: int) -> list[int]:
        """Ascending positions of the vertices of piece `pid`: a prefix, as the
        vertices come first in canonical order.  Read by `orientation_character`."""
        piece = self.piece_positions[pid]
        return piece[: bisect_left(piece, self.gcomplex.complex.layer_start[1])]

    @cached_property
    def components(self) -> tuple[StratumComponent, ...]:
        """Components relative to the group: normalizer orbits of pieces, each
        swept by the group, read off the orbit table.  Two pieces lie in one
        normalizer orbit exactly when they meet a common simplex orbit: if
        t = g.s with s and t both exact, then G_t = g G_s g^-1 = H, so g
        normalizes H and maps the piece of s onto that of t, whether or not the
        action is regular.  So the pieces are grouped by the least orbit label
        they meet, and a group's sweep is the stratum's members whose label it
        meets (g conjugates the isotropy of a simplex into that of its image)."""
        X = self.gcomplex
        K, orbit_of, members = X.complex, X.orbit_of, self.members
        groups: dict[int, tuple[list[int], set[int]]] = {}  # least label -> pieces, labels
        for pid, piece in enumerate(self.piece_positions):
            labels = set(map(orbit_of.__getitem__, piece))
            groups.setdefault(min(labels), ([], labels))[0].append(pid)
        member_labels = list(map(orbit_of.__getitem__, members))
        components: list[StratumComponent] = []
        for piece_ids, labels in groups.values():
            swept = tuple(compress(members, map(labels.__contains__, member_labels)))
            closure = K.closure(swept)
            dim = K.dim_of(swept[-1])
            components.append(
                StratumComponent(
                    complex=K,
                    index=len(components),
                    piece_indices=tuple(piece_ids),
                    swept=swept,
                    closure_positions=closure,
                    dim=dim,
                    codim=K.dim - dim,
                    closure_euler=X._quotient_euler(closure),
                    lower_euler=X._quotient_euler(closure.difference(swept)),
                )
            )
        return tuple(components)


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


def _simplices(order: Sequence[Simplex], positions: Iterable[int]) -> frozenset[Simplex]:
    """The simplices at the positions, as a frozenset copied from a set: one
    grown straight from an iterator keeps a hash table up to twice as large."""
    return frozenset(set(map(order.__getitem__, positions)))


def orbit_type_stratification(X: GComplex) -> Stratification:
    """Group simplices by isotropy conjugacy class, in an order extending the
    subconjugacy partial order (ascending isotropy order, canonical class
    representative as tie-break; the principal class comes first).

    Only these checks run here, in this order: the action must satisfy
    condition (A), so that every simplex lies in the stratum of the isotropy
    of its interior points; the first class must be the unique minimal one;
    and the principal stratum must be dense.  Each stratum builds its
    simplex sets, pieces and components when they are first read.

    Density asks that every simplex be a face of a principal simplex.  That
    holds exactly when every maximal simplex is principal: a maximal simplex
    is a face of itself alone, and every simplex is a face of a maximal one.
    It is the density of the principal components' union, because the
    components' open parts cover the principal stratum whatever the
    regularity: a simplex with isotropy gHg^-1 is g times one with
    isotropy H, so it lies in the sweep of some piece.
    """
    _require_condition_a(X)
    K = X.complex
    masks, by_mask = X.masks, X.by_mask
    class_of: dict[int, tuple[int, ...]] = {}  # every conjugate mask -> class representative
    for m in by_mask:
        if m not in class_of:
            conjugates = X._subgroup_of_mask(m).conjugates
            rep = min(conjugates)
            class_of.update((sum(1 << g for g in c), rep) for c in conjugates)
    by_class: dict[tuple[int, ...], list[int]] = {}
    for m, positions in by_mask.items():
        by_class.setdefault(class_of[m], []).extend(positions)
    ordered = sorted(by_class, key=lambda rep: (len(rep), rep))
    strata: list[Stratum] = []
    for j, rep in enumerate(ordered):
        rep_mask = sum(1 << g for g in rep)
        members = tuple(sorted(by_class[rep]))
        stratum_dim = K.dim_of(members[-1])
        strata.append(
            Stratum(
                gcomplex=X,
                index=j,
                isotropy=X._subgroup_of_mask(rep_mask),
                members=members,
                exact=by_mask.get(rep_mask, []),
                codimension=K.dim - stratum_dim,
                is_principal=(j == 0),
            )
        )
    principal = strata[0]
    for other in strata[1:]:
        if not subconjugate(principal.isotropy, other.isotropy):
            raise ValidationError(
                "no unique principal orbit type: isotropy classes "
                f"{principal.isotropy.elements} and {other.isotropy.elements} are incomparable minima"
            )
    principal_masks = {m for m, rep in class_of.items() if rep == ordered[0]}
    if not all(masks[i] in principal_masks for i in K.maximal_positions()):
        raise ValidationError(
            "principal stratum is not dense: some simplex is not a face of a principal simplex"
        )
    return Stratification(tuple(strata), K.dim)


# ---------------------------------------------------------------------------
# orbit space


@dataclass
class OrbitSpace:
    complex: SimplicialComplex
    vertex_orbit: dict[int, int]  # vertex -> quotient vertex id

    def project_simplex(self, s: Simplex) -> Simplex:
        return tuple(sorted(self.vertex_orbit[v] for v in s))

    def project(self, simplices: Iterable[Simplex]) -> frozenset[Simplex]:
        """A view the benchmark reads."""
        return frozenset(self.project_simplex(s) for s in simplices)


def orbit_space(X: GComplex) -> OrbitSpace:
    """The quotient complex on vertex orbits, the README's view (requires
    regularity, which makes simplex orbits and quotient simplices correspond
    bijectively).  The images are closed under faces: a face of the image of
    s is the image of a face t of s, which is the image of every simplex in
    the orbit of t."""
    _require_regular(X)
    orbits = X.vertex_orbits()
    vertex_orbit = {v: k for k, orbit in enumerate(orbits) for v in orbit}
    firsts = compress(X.complex.order, map(eq, X.orbit_of, count()))
    images = {tuple(sorted(map(vertex_orbit.__getitem__, s))) for s in firsts}
    quotient = SimplicialComplex(images)
    if len(quotient) != len(images):
        raise DefectError("quotient image set was not closed under faces")
    return OrbitSpace(quotient, vertex_orbit)


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
    star: Sequence[Simplex], base: Simplex
) -> dict[Simplex, int] | None:
    """The top simplices of `star`, the simplices of a closed subcomplex that
    contain `base` in canonical order, with coherent orientation signs; None
    when the normal direction there is zero-dimensional.  Checks purity."""
    top_dim = max(len(s) for s in star)
    tops = [s for s in star if len(s) == top_dim]
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
    m = _vertex_map(X.complex, X.vertex_perm[g])
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


def orientation_character(
    X: GComplex,
    stratum: Stratum,
    component: StratumComponent,
    basepoint: Simplex | None = None,
) -> OrientationCharacter:
    """Orientation character of the normal data along one stratum component.

    The basepoint defaults to the least vertex of the component's canonical
    piece; the character is evaluated on the isotropy subgroup of that piece
    and verified to be multiplicative.  The piece, the star and the closure
    are read as simplex positions.

    A diagnostic that no command calls: the stratified sum is the untwisted
    Burnside-ring sum (see `strataformula`), so it needs no orientation
    character and no pseudomanifold star.  It stays public because the
    benchmark harness times it as a probe.
    """
    _require_regular(X)
    K = X.complex
    pid = component.piece_indices[0]
    if basepoint is None:
        vertices = stratum.piece_vertices(pid)
        if not vertices:
            raise ValidationError(
                "stratum component has no vertex to base the orientation "
                "character at; regularize further"
            )
        basepoint = K.order[vertices[0]]
    i = K.index.get(basepoint)
    if i not in stratum.piece_positions[pid]:
        raise ValidationError(f"basepoint {basepoint} is not in the component piece")
    H = X._subgroup_of_mask(X.masks[i])
    base = set(basepoint)
    star = [i for i, s in enumerate(K.order) if base.issubset(s)]
    closure = component.closure_positions
    ambient = _oriented_star(list(map(K.order.__getitem__, star)), basepoint)
    along = _oriented_star([K.order[i] for i in star if i in closure], basepoint)
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
