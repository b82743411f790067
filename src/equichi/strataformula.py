"""Isotypical Euler characteristics through the orbit-type stratification.

The rho-isotypical Euler characteristic of a regular action decomposes over
the quotient as a principal term plus one term per singular stratum
component:

    chi_rho(M) = chi_rho(G/H_pr) * chi(Q, Q_sing)
               + sum over components  chi_rho(G/H_j, eps_j) * chi(Q_cl, Q_low)

where Q is the orbit space, Q_sing the image of the non-principal part,
Q_cl / Q_low the images of a component's closure and of its boundary part,
and eps_j the orientation character of the normal data along the component.
Every homogeneous factor chi_rho(G/H, eps) = deg(rho) * <Res_H chi_rho, eps>
is an exact integer.

Components of codimension below two are rejected with a typed error rather
than silently producing a wrong answer; the verification driver converts
that into an explicit skip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import (
    Character,
    ClassFunction,
    character_table,
    inner_product,
    restrict,
    trivial_character,
)
from .complexes import euler_of_complex
from .errors import CodimensionError, DefectError, ValidationError
from .gcomplex import (
    GComplex,
    Stratification,
    Stratum,
    StratumComponent,
    orbit_type_stratification,
    orientation_character,
    regularize,
)
from .groups import FiniteGroup, Subgroup
from .lefschetz import equivariant_multiplicities


def _check_sign_values(eps: ClassFunction) -> None:
    for v in eps.values:
        q = v.as_rational()
        if q is None or q * q != 1:
            raise ValidationError("orientation data must take values +-1")


def chi_rho_homogeneous(
    G: FiniteGroup, H: Subgroup, eps: ClassFunction | None, rho: Character
) -> int:
    """chi_rho of the homogeneous space G/H twisted by a sign character:
    deg(rho) * <Res_H chi_rho, eps>_H, an exact integer.

    eps = None means the trivial sign character.
    """
    if rho.group is not G:
        raise ValidationError("character lives on a different group")
    if H.parent is not G:
        raise ValidationError("subgroup lives in a different group")
    Hgroup, _ = H.as_group()
    if eps is None:
        eps = trivial_character(Hgroup)
    if eps.group is not Hgroup:
        raise ValidationError("sign character does not live on the subgroup")
    _check_sign_values(eps)
    mult = inner_product(restrict(rho, H), eps)
    m = mult.as_integer()
    if m < 0:
        raise DefectError("negative multiplicity in a restriction")
    return rho.degree * m


@dataclass(frozen=True)
class StrataTerm:
    """One singular component's contribution to the isotypical sum."""

    stratum_index: int
    component_index: int
    isotropy: tuple[int, ...]
    codimension: int
    homogeneous: int  # chi_rho(G/H, eps)
    relative: int  # chi of (image of closure, image of lower part)
    sign_character_trivial: bool

    @property
    def product(self) -> int:
        return self.homogeneous * self.relative


@dataclass(frozen=True)
class StrataEulerBreakdown:
    """Full accounting of chi_rho(M) through the stratification."""

    rho_index: int
    principal_isotropy: tuple[int, ...]
    principal_homogeneous: int
    principal_relative: int
    terms: tuple[StrataTerm, ...]

    @property
    def principal_product(self) -> int:
        return self.principal_homogeneous * self.principal_relative

    @property
    def total(self) -> int:
        return self.principal_product + sum(t.product for t in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho_index,
            "principal": {
                "isotropy": list(self.principal_isotropy),
                "homogeneous": self.principal_homogeneous,
                "relative": self.principal_relative,
                "product": self.principal_product,
            },
            "singular_terms": [
                {
                    "stratum": t.stratum_index,
                    "component": t.component_index,
                    "isotropy": list(t.isotropy),
                    "codimension": t.codimension,
                    "homogeneous": t.homogeneous,
                    "relative": t.relative,
                    "product": t.product,
                    "sign_character_trivial": t.sign_character_trivial,
                }
                for t in self.terms
            ],
            "total": self.total,
        }


def _second_vertex_recheck(X, stratum, component, eps) -> None:
    """Recompute the orientation character at a second basepoint of the same
    piece; a dependence on the basepoint is an internal defect."""
    vertices = stratum.piece_vertices(component.piece_indices[0])
    if len(vertices) < 2:
        return
    basepoint = X.complex.order[vertices[1]]
    again = orientation_character(X, stratum, component, basepoint=basepoint)
    if again.signs != eps.signs:
        raise DefectError(
            "orientation character depends on the basepoint within a piece"
        )


@dataclass(frozen=True)
class ComponentGeometry:
    """The rho-independent data of one singular component: its place in the
    stratification, its sign character and chi(Q_cl, Q_low)."""

    stratum: Stratum
    component: StratumComponent
    sign_character: ClassFunction
    sign_character_trivial: bool
    relative: int


@dataclass(frozen=True)
class StrataGeometry:
    """Everything in the stratified sum that does not depend on rho, built
    once per complex by `strata_geometry`."""

    group: FiniteGroup
    stratification: Stratification
    principal_relative: int
    components: tuple[ComponentGeometry, ...]

    def breakdown(self, rho: Character) -> StrataEulerBreakdown:
        """Evaluate the stratified sum for one irreducible of the group."""
        G = self.group
        H_pr = self.stratification.principal.isotropy
        principal_hom = chi_rho_homogeneous(G, H_pr, None, rho)
        terms = tuple(
            StrataTerm(
                stratum_index=c.stratum.index,
                component_index=c.component.index,
                isotropy=c.stratum.isotropy.elements,
                codimension=c.component.codim,
                homogeneous=chi_rho_homogeneous(
                    G, c.stratum.isotropy, c.sign_character, rho
                ),
                relative=c.relative,
                sign_character_trivial=c.sign_character_trivial,
            )
            for c in self.components
        )
        return StrataEulerBreakdown(
            rho_index=rho.index,
            principal_isotropy=H_pr.elements,
            principal_homogeneous=principal_hom,
            principal_relative=self.principal_relative,
            terms=terms,
        )


def strata_geometry(X: GComplex) -> StrataGeometry:
    """Build the rho-independent part of the stratified sum, with every
    geometric input derived from the complex itself."""
    if not X.regular:
        raise ValidationError("the stratified sum requires a regularized complex")
    strat = orbit_type_stratification(X)
    # Q minus Q_sing is the image of the principal stratum, counted on its
    # positions: its components are never built
    principal_rel = strat.principal.open_euler
    components: list[ComponentGeometry] = []
    for stratum in strat.singular:
        for component in stratum.components:
            if component.codim < 2:
                raise CodimensionError(
                    "stratified sum rejected: component "
                    f"{component.index} of stratum {stratum.index} has "
                    f"codimension {component.codim} < 2",
                    stratum_index=stratum.index,
                    component_index=component.index,
                )
            eps = orientation_character(X, stratum, component)
            _second_vertex_recheck(X, stratum, component, eps)
            if eps.subgroup.elements != stratum.isotropy.elements:
                raise DefectError(
                    "basepoint isotropy differs from the stratum isotropy"
                )
            components.append(
                ComponentGeometry(
                    stratum=stratum,
                    component=component,
                    sign_character=eps.class_function(),
                    sign_character_trivial=eps.is_trivial(),
                    relative=component.closure_euler - component.lower_euler,
                )
            )
    return StrataGeometry(X.group, strat, principal_rel, tuple(components))


def equivariant_euler_via_strata(X: GComplex, rho: Character) -> StrataEulerBreakdown:
    """Evaluate the stratified sum for one irreducible, with every factor
    exact and every geometric input derived from the complex itself.

    To evaluate several irreducibles of one complex, build
    `strata_geometry(X)` once and call its `breakdown` for each."""
    if rho.group is not X.group:
        raise ValidationError("character lives on a different group")
    return strata_geometry(X).breakdown(rho)


@dataclass(frozen=True)
class VerifyRow:
    rho_index: int
    degree: int
    oracle: int  # chi_rho from Lefschetz multiplicities
    formula: int  # chi_rho from the stratified sum

    @property
    def match(self) -> bool:
        return self.oracle == self.formula


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking the stratified sum against the trace oracle for
    every irreducible of the acting group."""

    rows: tuple[VerifyRow, ...]
    skipped: str | None
    subdivisions: int
    euler_characteristic: int

    @property
    def all_match(self) -> bool:
        return self.skipped is None and all(r.match for r in self.rows)

    @property
    def totals_consistent(self) -> bool:
        """The isotypical pieces must sum to the plain Euler characteristic."""
        if self.skipped is not None:
            return False
        return sum(r.formula for r in self.rows) == self.euler_characteristic

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "rho": r.rho_index,
                    "degree": r.degree,
                    "oracle": r.oracle,
                    "formula": r.formula,
                    "match": r.match,
                }
                for r in self.rows
            ],
            "skipped": self.skipped,
            "subdivisions": self.subdivisions,
            "euler_characteristic": self.euler_characteristic,
            "all_match": self.all_match,
            "totals_consistent": self.totals_consistent,
        }


def verify_strata_vs_oracle(X: GComplex) -> VerifyReport:
    """Run both routes to chi_rho for every irreducible and compare.

    A codimension guard fires as an explicit skip, never as a wrong number.
    """
    if not X.regular:
        X = regularize(X)
    chi_m = euler_of_complex(X.complex)
    report = equivariant_multiplicities(X)
    table = character_table(X.group)
    rows: list[VerifyRow] = []
    try:
        geometry = strata_geometry(X)
        for rho in table:
            breakdown = geometry.breakdown(rho)
            rows.append(
                VerifyRow(
                    rho_index=rho.index,
                    degree=rho.degree,
                    oracle=report.chi_rho[rho.index],
                    formula=breakdown.total,
                )
            )
    except CodimensionError as exc:
        return VerifyReport(
            rows=(),
            skipped=str(exc),
            subdivisions=X.subdivisions,
            euler_characteristic=chi_m,
        )
    return VerifyReport(
        rows=tuple(rows),
        skipped=None,
        subdivisions=X.subdivisions,
        euler_characteristic=chi_m,
    )
