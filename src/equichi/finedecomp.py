"""Fine decomposition of equivariant bundle data over fixed-point components.

Over a component alpha of the H-fixed part of a single-orbit-type piece, a
G-equivariant bundle is described by the multiplicity it gives each
irreducible H-representation.  The normalizer N(H) permutes components and
twists representations (sigma^n(h) = sigma(n^-1 h n)); equivariance forces
the multiplicity data to be constant along twist orbits, and the fine
pieces of the bundle correspond to those orbits under the stabilizer
N_alpha of the component.

The canonical isotropy bundle for (alpha, sigma) is cut out of the trivial
bundle with fiber the lowest-enumerated irreducible G-representation whose
restriction to H contains sigma; it is adapted to any bundle whose class
set over alpha is the twist orbit of sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .characters import Character, character_table, inner_product, restrict
from .errors import DefectError, ValidationError
from .groups import FiniteGroup, Subgroup, normalizer


def twist_irrep(H: Subgroup, sigma: Character, n: int) -> Character:
    """The twist sigma^n, sigma^n(h) = sigma(n^-1 h n), for n in N(H).

    Returns the matching row of H's character table (twisting permutes the
    irreducibles of H).
    """
    G = H.parent
    Hgroup, to_parent = H.as_group()
    if sigma.group is not Hgroup:
        raise ValidationError("character does not live on the given subgroup")
    if not 0 <= n < G.order:
        raise ValidationError(f"element {n} is not a group element id")
    n_inv = G.inv(n)
    eset = set(H.elements)
    if any(G.conjugate(n_inv, h) not in eset for h in H.elements):
        raise ValidationError(f"element {n} does not normalize the subgroup")
    to_sub = {p: i for i, p in enumerate(to_parent)}
    values = []
    for rep in Hgroup.class_representatives():
        conj = G.conjugate(n_inv, to_parent[rep])
        values.append(sigma.values[Hgroup.class_of(to_sub[conj])])
    for row in character_table(Hgroup):
        if all(a == b for a, b in zip(row.values, values)):
            return row
    raise DefectError("twisted irreducible missing from the subgroup table")


def twist_index_map(H: Subgroup, n: int) -> tuple[int, ...]:
    """index -> index action of one normalizer element on Irr(H)."""
    Hgroup, _ = H.as_group()
    table = character_table(Hgroup)
    return tuple(twist_irrep(H, sigma, n).index for sigma in table)


@dataclass(frozen=True)
class ComponentSystem:
    """Named components of an H-fixed set with the normalizer action on them.

    `action[n]` is the permutation of component positions induced by the
    normalizer element n; every element of N(H) must appear.
    """

    group: FiniteGroup
    H: Subgroup
    component_ids: tuple[str, ...]
    action: Mapping[int, tuple[int, ...]]

    def __post_init__(self):
        N = normalizer(self.H)
        if set(self.action) != set(N.elements):
            raise ValidationError("component action must cover exactly the normalizer")
        k = len(self.component_ids)
        if len(set(self.component_ids)) != k:
            raise ValidationError("component ids must be distinct")
        for n, perm in self.action.items():
            if sorted(perm) != list(range(k)):
                raise ValidationError(
                    f"component action of element {n} is not a permutation"
                )
        for a in N.elements:
            for b in N.elements:
                ab = self.group.mul(a, b)
                pa, pb = self.action[a], self.action[b]
                if self.action[ab] != tuple(pa[pb[i]] for i in range(k)):
                    raise ValidationError(
                        f"component action is not a group action at elements ({a}, {b})"
                    )

    @staticmethod
    def single(group: FiniteGroup, H: Subgroup, component_id: str = "a0") -> "ComponentSystem":
        N = normalizer(H)
        return ComponentSystem(
            group, H, (component_id,), {n: (0,) for n in N.elements}
        )

    @property
    def normalizer_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.action))

    def stabilizer(self, position: int) -> Subgroup:
        members = [n for n, perm in self.action.items() if perm[position] == position]
        return Subgroup(self.group, tuple(sorted(members)))

    def position(self, component_id: str) -> int:
        try:
            return self.component_ids.index(component_id)
        except ValueError:
            raise ValidationError(f"unknown component id {component_id!r}") from None


@dataclass(frozen=True)
class BundleData:
    """Multiplicity data of an equivariant bundle over a component system.

    `multiplicities[i]` maps irreducible indices of H to multiplicities over
    component i.  Validation enforces the equivariance constraint
    m_{n.alpha}(sigma^n) = m_alpha(sigma) for all n in N(H) and reports a
    witness on failure.
    """

    system: ComponentSystem
    multiplicities: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        mults = tuple(
            tuple(sorted((int(i), int(m)) for i, m in dict(entry).items() if m))
            for entry in self.multiplicities
        )
        object.__setattr__(self, "multiplicities", mults)
        if len(mults) != len(self.system.component_ids):
            raise ValidationError("one multiplicity map per component is required")
        Hgroup, _ = self.system.H.as_group()
        table = character_table(Hgroup)
        for entry in mults:
            for idx, m in entry:
                if not 0 <= idx < len(table):
                    raise ValidationError(f"unknown irreducible index {idx}")
                if m < 0:
                    raise ValidationError("multiplicities must be nonnegative")
        for n in self.system.normalizer_elements:
            tw = twist_index_map(self.system.H, n)
            perm = self.system.action[n]
            for pos in range(len(mults)):
                here = dict(mults[pos])
                there = dict(mults[perm[pos]])
                for idx, m in here.items():
                    if there.get(tw[idx], 0) != m:
                        raise ValidationError(
                            "bundle data is not equivariant: element "
                            f"{n} sends component {self.system.component_ids[pos]} "
                            f"irreducible {idx} (multiplicity {m}) to component "
                            f"{self.system.component_ids[perm[pos]]} irreducible "
                            f"{tw[idx]} (multiplicity {there.get(tw[idx], 0)})"
                        )

    @staticmethod
    def over(
        system: ComponentSystem,
        multiplicities: Sequence[Mapping[int, int]],
    ) -> "BundleData":
        return BundleData(
            system, tuple(tuple(sorted(m.items())) for m in multiplicities)
        )

    def multiplicity(self, position: int, irr_index: int) -> int:
        return dict(self.multiplicities[position]).get(irr_index, 0)

    def support(self, position: int) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.multiplicities[position])

    def rank_over(self, position: int) -> int:
        Hgroup, _ = self.system.H.as_group()
        table = character_table(Hgroup)
        return sum(m * table[idx].degree for idx, m in self.multiplicities[position])


@dataclass(frozen=True)
class FineComponent:
    """One fine piece of a bundle over one component: a twist orbit of
    irreducibles with its constant multiplicity and degree.

    rank = |orbit| * multiplicity * degree; the spectral-type count equals
    the orbit length.
    """

    system: ComponentSystem
    component_position: int
    orbit: tuple[int, ...]  # irreducible indices, ascending
    multiplicity: int
    degree: int

    @property
    def rank(self) -> int:
        return len(self.orbit) * self.multiplicity * self.degree

    @property
    def type_count(self) -> int:
        """Number of inequivalent isotropy representation types present."""
        return len(self.orbit)

    @property
    def component_id(self) -> str:
        return self.system.component_ids[self.component_position]


def _twist_orbit(start: int, maps: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of one irreducible index under the twist maps of every
    element of a subgroup of the normalizer; twisting is an action, so one
    application of each map reaches the whole orbit."""
    return {tw[start] for tw in maps}


def fine_decomposition(bundle: BundleData, component_id: str) -> tuple[FineComponent, ...]:
    """Split the bundle data over one component into fine pieces: twist
    orbits under the component's stabilizer inside the normalizer.

    The multiplicity and degree are constant along each orbit (asserted; the
    equivariance validation already forces it).  Components are ordered by
    their least irreducible index.
    """
    system = bundle.system
    pos = system.position(component_id)
    stab = system.stabilizer(pos)
    Hgroup, _ = system.H.as_group()
    table = character_table(Hgroup)
    maps = [twist_index_map(system.H, n) for n in stab.elements]
    support = list(bundle.support(pos))
    seen: set[int] = set()
    pieces: list[FineComponent] = []
    for idx in support:
        if idx in seen:
            continue
        orbit = _twist_orbit(idx, maps)
        seen |= orbit
        orbit_t = tuple(sorted(orbit))
        mults = {bundle.multiplicity(pos, i) for i in orbit_t}
        degrees = {table[i].degree for i in orbit_t}
        if len(mults) != 1:
            raise DefectError(
                f"multiplicity not constant on twist orbit {orbit_t}: {sorted(mults)}"
            )
        if len(degrees) != 1:
            raise DefectError(
                f"degree not constant on twist orbit {orbit_t}: {sorted(degrees)}"
            )
        m = mults.pop()
        if m == 0:
            raise DefectError("twist orbit left the support of the bundle data")
        pieces.append(
            FineComponent(system, pos, orbit_t, m, degrees.pop())
        )
    pieces.sort(key=lambda c: c.orbit[0])
    total = sum(p.rank for p in pieces)
    if total != bundle.rank_over(pos):
        raise DefectError("fine pieces do not account for the full rank")
    return tuple(pieces)


def is_adapted(bundle: BundleData, piece: FineComponent) -> bool:
    """A bundle is adapted to a fine piece when its class set over the
    piece's component coincides with the piece's twist orbit; coincidence of
    the class sets alone suffices, and the resulting single-fine-component
    property is re-verified rather than assumed."""
    if bundle.system.group is not piece.system.group:
        raise ValidationError("bundle and fine component live over different groups")
    if bundle.system.H.elements != piece.system.H.elements:
        return False
    pos = piece.component_position
    if bundle.system.component_ids != piece.system.component_ids:
        return False
    matches = set(bundle.support(pos)) == set(piece.orbit)
    if matches:
        own = fine_decomposition(bundle, piece.component_id)
        if len(own) != 1:
            raise DefectError(
                "class sets coincide but the bundle splits into several fine pieces"
            )
    return matches


@dataclass(frozen=True)
class CanonicalIsotropyBundle:
    """The canonical adapted bundle for (component, sigma): the fine piece of
    the trivial bundle with fiber the selected ambient irreducible."""

    piece: FineComponent
    ambient_index: int  # enumeration index of the selected G-irreducible
    ambient_character: Character

    @property
    def bundle(self) -> BundleData:
        system = self.piece.system
        mult = {i: self.piece.multiplicity for i in self.piece.orbit}
        mults: list[Mapping[int, int]] = []
        for pos in range(len(system.component_ids)):
            if pos == self.piece.component_position:
                mults.append(mult)
                continue
            # transport along any normalizer element moving the component;
            # components outside the orbit carry no data
            moved: Mapping[int, int] = {}
            for n in system.normalizer_elements:
                if system.action[n][self.piece.component_position] == pos:
                    tw = twist_index_map(system.H, n)
                    moved = {tw[i]: m for i, m in mult.items()}
                    break
            mults.append(moved)
        return BundleData.over(system, mults)


def stratum_component_system(X, stratum) -> ComponentSystem:
    """Component system of a geometric stratum: the pieces of the H-fixed
    part with the normalizer permutation already computed on them."""
    ids = tuple(f"p{i}" for i in range(len(stratum.pieces)))
    return ComponentSystem(
        X.group, stratum.isotropy, ids, dict(stratum.piece_action)
    )


def canonical_isotropy_bundle(
    system: ComponentSystem, component_id: str, sigma: Character
) -> CanonicalIsotropyBundle:
    """Scan the ambient irreducibles in enumeration order and take the first
    whose restriction to H contains sigma; its restriction multiplicities
    over the twist orbit of sigma cut out the canonical fine piece."""
    G = system.group
    H = system.H
    Hgroup, _ = H.as_group()
    if sigma.group is not Hgroup:
        raise ValidationError("sigma does not live on the subgroup of the system")
    selected = None
    for rho in character_table(G):
        m = inner_product(restrict(rho, H), sigma).as_integer()
        if m >= 1:
            selected = (rho, m)
            break
    if selected is None:
        raise DefectError("no ambient irreducible restricts onto sigma")
    rho, m = selected
    res = restrict(rho, H)
    pos = system.position(component_id)
    stab = system.stabilizer(pos)
    orbit = _twist_orbit(sigma.index, [twist_index_map(H, n) for n in stab.elements])
    table = character_table(Hgroup)
    for idx in orbit:
        mi = inner_product(res, table[idx]).as_integer()
        if mi != m:
            raise DefectError(
                "restriction multiplicity not constant on the twist orbit"
            )
    piece = FineComponent(system, pos, tuple(sorted(orbit)), m, sigma.degree)
    return CanonicalIsotropyBundle(piece, rho.index, rho)
