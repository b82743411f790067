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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .complexes import (
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    connected_components,
    euler_characteristic,
    faces,
)
from .errors import DefectError, ValidationError
from .groups import FiniteGroup, Subgroup, normalizer, subconjugate

VertexMap = dict[int, int]


class GComplex:
    """A simplicial complex with a validated action of a finite group.

    `action[g]` is the vertex map of element g; the assignment is checked to
    be a homomorphism on the full composition table and each map is checked
    to send simplices to simplices.
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

    # -- action application --------------------------------------------

    def apply(self, g: int, simplex: Simplex) -> Simplex:
        m = self.action[g]
        return tuple(sorted(m[v] for v in simplex))

    def orbit(self, simplex: Simplex) -> frozenset[Simplex]:
        return frozenset(self.apply(g, simplex) for g in range(self.group.order))

    def isotropy(self, simplex: Simplex) -> Subgroup:
        """Pointwise stabilizer of the simplex."""
        members = [
            g
            for g in range(self.group.order)
            if all(self.action[g][v] == v for v in simplex)
        ]
        return Subgroup(self.group, tuple(members))

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


def build_gcomplex(
    complex: SimplicialComplex,
    group: FiniteGroup,
    generator_images: Sequence[Mapping[int, int] | Sequence[int]],
) -> GComplex:
    """Extend generator vertex images to a validated action of the whole group.

    `generator_images[i]` gives the vertex map of `group.generators[i]`,
    either as a dict or as a list aligned with the complex's vertex order.
    The extension is by composition along the group's multiplication and the
    result is verified to be a homomorphism on the full table; each map must
    send simplices to simplices (reported with a witness simplex otherwise).
    """
    gens = group.generators
    if len(generator_images) != len(gens):
        raise ValidationError(
            f"expected {len(gens)} generator images, got {len(generator_images)}"
        )
    vertices = complex.vertices
    maps: dict[int, VertexMap] = {}
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
        maps[gid] = m
    identity_map = {v: v for v in vertices}
    action: dict[int, VertexMap] = {group.identity: identity_map}
    # breadth-first extension along the table; verified globally below
    frontier = [group.identity]
    while frontier:
        new = []
        for x in frontier:
            for gid in gens:
                y = group.mul(x, gid)
                if y not in action:
                    gx, gg = action[x], maps[gid]
                    action[y] = {v: gx[gg[v]] for v in vertices}
                    new.append(y)
        frontier = new
    if len(action) != group.order:
        raise DefectError("generators do not reach every group element")
    for a in range(group.order):
        ma = action[a]
        for b in range(group.order):
            mb = action[b]
            mab = action[group.mul(a, b)]
            if any(mab[v] != ma[mb[v]] for v in vertices):
                raise ValidationError(
                    "generator images do not define a group action "
                    f"(homomorphism fails at elements {a}, {b})"
                )
    X = GComplex(complex, group, action)
    for g in range(group.order):
        for s in complex.simplices:
            image = X.apply(g, s)
            if len(set(image)) != len(s):
                raise ValidationError(
                    f"non-simplicial map: element {g} collapses simplex {s}"
                )
            if image not in complex.simplices:
                raise ValidationError(
                    f"non-simplicial map: element {g} sends simplex {s} to {image}, "
                    "which is not a simplex of the complex"
                )
    return X


# ---------------------------------------------------------------------------
# regularization


def _setwise_invariant_violation(X: GComplex) -> bool:
    for s in X.complex.simplices:
        if len(s) == 1:
            continue
        for g in range(X.group.order):
            if X.apply(g, s) == s and any(X.action[g][v] != v for v in s):
                return True
    return False


def _quotient_faithfulness_violation(X: GComplex) -> bool:
    orbit_of: dict[int, int] = {}
    for i, orb in enumerate(X.vertex_orbits()):
        for v in orb:
            orbit_of[v] = i
    image_to_orbit_rep: dict[tuple[int, ...], Simplex] = {}
    seen: set[Simplex] = set()
    for s in X.complex.sorted_simplices():
        if s in seen:
            continue
        orbit = X.orbit(s)
        seen |= orbit
        rep = min(orbit)
        img = tuple(sorted(orbit_of[v] for v in s))
        if len(set(img)) != len(s):
            return True  # two vertices of one simplex identified
        prior = image_to_orbit_rep.get(img)
        if prior is not None and prior != rep:
            return True  # two distinct simplex orbits share a quotient image
        image_to_orbit_rep[img] = rep
    return False


def is_regular(X: GComplex) -> bool:
    return not (_setwise_invariant_violation(X) or _quotient_faithfulness_violation(X))


def _subdivide(X: GComplex) -> GComplex:
    sd, vertex_of = barycentric_subdivision(X.complex)
    action: dict[int, VertexMap] = {}
    for g in range(X.group.order):
        action[g] = {vertex_of[s]: vertex_of[X.apply(g, s)] for s in vertex_of}
    return GComplex(sd, X.group, action, subdivisions=X.subdivisions + 1)


def regularize(X: GComplex) -> GComplex:
    """Barycentrically subdivide (at most twice) until the action is regular."""
    current = X
    for _ in range(2):
        if is_regular(current):
            break
        current = _subdivide(current)
    else:
        if not is_regular(current):
            raise DefectError("two barycentric subdivisions did not regularize the action")
    return GComplex(
        current.complex,
        current.group,
        current.action,
        regular=True,
        subdivisions=current.subdivisions,
    )


def _require_regular(X: GComplex) -> None:
    if not X.regular:
        raise ValidationError("operation requires a regularized complex")


# ---------------------------------------------------------------------------
# fixed subcomplexes


@dataclass(frozen=True)
class FixedSubcomplex:
    """The full subcomplex of H-fixed vertices, with its components."""

    simplices: frozenset[Simplex]
    components: tuple[frozenset[Simplex], ...]

    def euler_characteristic(self) -> int:
        return euler_characteristic(self.simplices)


def fixed_subcomplex(X: GComplex, H: Subgroup) -> FixedSubcomplex:
    """Simplices all of whose vertices are fixed by every element of H.

    For a regularized complex this is the honest fixed-point set.
    Components are listed canonically (by least simplex).
    """
    fixed_vertices = {
        v
        for v in X.complex.vertices
        if all(X.action[h][v] == v for h in H.elements)
    }
    simplices = frozenset(
        s for s in X.complex.simplices if set(s) <= fixed_vertices
    )
    return FixedSubcomplex(simplices, connected_components(simplices))


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


def closure_of(simplices: Iterable[Simplex]) -> frozenset[Simplex]:
    closed: set[Simplex] = set()
    for s in simplices:
        closed.update(faces(s))
    return frozenset(closed)


def orbit_type_stratification(X: GComplex) -> Stratification:
    """Group simplices by isotropy conjugacy class, in an order extending the
    subconjugacy partial order (ascending isotropy order, canonical class
    representative as tie-break; the principal class comes first)."""
    _require_regular(X)
    iso: dict[Simplex, tuple[int, ...]] = {}
    for s in X.complex.simplices:
        iso[s] = X.isotropy(s).elements
    class_rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for elems in set(iso.values()):
        class_rep[elems] = (
            Subgroup(X.group, elems).canonical_class_representative().elements
        )
    by_class: dict[tuple[int, ...], set[Simplex]] = {}
    for s, elems in iso.items():
        by_class.setdefault(class_rep[elems], set()).add(s)
    ordered = sorted(by_class, key=lambda rep: (len(rep), rep))
    strata: list[Stratum] = []
    ambient_dim = X.complex.dim
    for j, rep in enumerate(ordered):
        H = Subgroup(X.group, rep)
        simplices = frozenset(by_class[rep])
        exact = frozenset(s for s in simplices if iso[s] == rep)
        pieces = connected_components(exact)
        N = normalizer(H)
        piece_index = {}
        for i, piece in enumerate(pieces):
            for s in piece:
                piece_index[s] = i
        piece_action: dict[int, tuple[int, ...]] = {}
        for n in N.elements:
            perm = []
            for piece in pieces:
                probe = min(piece, key=lambda s: (len(s), s))
                perm.append(piece_index[X.apply(n, probe)])
            piece_action[n] = tuple(perm)
        # components relative to the group: normalizer orbits of pieces
        assigned: set[int] = set()
        components: list[StratumComponent] = []
        for i in range(len(pieces)):
            if i in assigned:
                continue
            orbit_ids = sorted({piece_action[n][i] for n in N.elements})
            assigned.update(orbit_ids)
            saturation: set[Simplex] = set()
            for pid in orbit_ids:
                for s in pieces[pid]:
                    for g in range(X.group.order):
                        saturation.add(X.apply(g, s))
            saturation &= set(simplices)
            dim = max(len(s) - 1 for s in saturation)
            closure = closure_of(saturation)
            comp = StratumComponent(
                index=len(components),
                piece_indices=tuple(orbit_ids),
                simplices=frozenset(saturation),
                dim=dim,
                codim=ambient_dim - dim,
                closure=closure,
                lower=frozenset(closure - saturation),
            )
            components.append(comp)
        stratum_dim = max(len(s) - 1 for s in simplices)
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
    covered = closure_of(principal.simplices)
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
    orbits = X.vertex_orbits()
    vertex_orbit: dict[int, int] = {}
    for i, orb in enumerate(orbits):
        for v in orb:
            vertex_orbit[v] = i
    images: set[Simplex] = set()
    orbit_count = 0
    seen: set[Simplex] = set()
    for s in X.complex.simplices:
        if s in seen:
            continue
        seen |= X.orbit(s)
        orbit_count += 1
        img = tuple(sorted(vertex_orbit[v] for v in s))
        if len(set(img)) != len(s):
            raise DefectError("regular action produced a degenerate quotient simplex")
        images.add(img)
    if len(images) != orbit_count:
        raise DefectError("quotient conflated distinct simplex orbits")
    quotient = SimplicialComplex(images)
    if len(quotient.simplices) != len(images):
        raise DefectError("quotient image set was not closed under faces")
    return OrbitSpace(quotient, vertex_orbit, orbits)


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


def _local_degree_sign(
    X: GComplex, simplices: frozenset[Simplex], base: Simplex, g: int
) -> int:
    """Sign of the action of g on the top local homology at `base` within the
    closed subcomplex `simplices` (g must fix `base` pointwise and preserve
    the subcomplex)."""
    top_dim = max(len(s) for s in simplices if set(base) <= set(s))
    tops = sorted(s for s in simplices if set(base) <= set(s) and len(s) == top_dim)
    for s in simplices:
        if set(base) <= set(s) and not any(
            set(s) <= set(t) for t in tops
        ):
            raise ValidationError(
                f"star of {base} fails the pseudomanifold check: not pure at {s}"
            )
    if len(tops[0]) == len(base):
        return 1  # zero-dimensional normal direction within this subcomplex
    orient = _coherent_orientation(tops, base)
    signs = set()
    for t in tops:
        image_vertices = [X.action[g][v] for v in t]
        image = tuple(sorted(image_vertices))
        if image not in orient:
            raise ValidationError(
                f"element {g} does not stabilize the star of {base}"
            )
        signs.add(orient[t] * _permutation_sign(image_vertices) * orient[image])
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
    ambient = X.complex.simplices
    signs: dict[int, int] = {}
    for h in H.elements:
        sign_ambient = _local_degree_sign(X, ambient, basepoint, h)
        sign_stratum = _local_degree_sign(X, component.closure, basepoint, h)
        signs[h] = sign_ambient * sign_stratum
    for a in H.elements:
        for b in H.elements:
            if signs[X.group.mul(a, b)] != signs[a] * signs[b]:
                raise DefectError("orientation character is not multiplicative")
    return OrientationCharacter(H, basepoint, signs)
