"""Isotypical Euler characteristics through the orbit-type stratification.

Under a regular action the isotropy group of a simplex fixes it pointwise,
so the chain complex is a sum, over simplex orbits, of permutation modules
C[G/G_s], and no orientation is flipped.  Frobenius reciprocity then gives
the rho-isotypical Euler characteristic as a sum over the strata, the
equivariant Euler characteristic in the Burnside ring (tom Dieck,
*Transformation Groups*, 1987):

    chi_rho(M) = chi_rho(G/H_pr) * chi(Q, Q_sing)
               + sum over components  chi_rho(G/H_j) * chi(Q_cl, Q_low)

where Q is the orbit space, Q_sing the image of the non-principal part, and
Q_cl / Q_low the images of a component's closure and of its boundary part.
Every homogeneous factor chi_rho(G/H) = deg(rho) * <Res_H chi_rho, 1>_H is
an exact integer.

Components of codimension below two are rejected with a typed error; the
verification driver converts that into an explicit skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .characters import Character, character_table
from .complexes import euler_of_complex
from .cyclotomic import cyc_sum
from .errors import CodimensionError, DefectError, ValidationError
from .gcomplex import GComplex, Stratification, orbit_type_stratification, regularize
from .groups import FiniteGroup, Subgroup
from .lefschetz import equivariant_multiplicities


def chi_rho_homogeneous(G: FiniteGroup, H: Subgroup, rho: Character) -> int:
    """chi_rho of the homogeneous space G/H: deg(rho) * <Res_H chi_rho, 1>_H,
    an exact integer; the pairing is the average of rho over H."""
    if rho.group is not G:
        raise ValidationError("character lives on a different group")
    if H.parent is not G:
        raise ValidationError("subgroup lives in a different group")
    m = (cyc_sum(map(rho, H.elements)) / H.order).as_integer()
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
    homogeneous: int  # chi_rho(G/H)
    relative: int  # chi of (image of closure, image of lower part)
    # the sum carries no orientation twist, so the one it reports is trivial
    sign_character_trivial: ClassVar[bool] = True

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


@dataclass(frozen=True)
class StrataGeometry:
    """Everything in the stratified sum that does not depend on rho: the
    group and its stratification.  Constructing it applies the codimension
    guard, scanning the singular components in order."""

    group: FiniteGroup
    stratification: Stratification

    def __post_init__(self) -> None:
        for stratum in self.stratification.singular:
            for component in stratum.components:
                if component.codim < 2:
                    raise CodimensionError(
                        "stratified sum rejected: component "
                        f"{component.index} of stratum {stratum.index} has "
                        f"codimension {component.codim} < 2",
                        stratum_index=stratum.index,
                        component_index=component.index,
                    )

    @property
    def principal_relative(self) -> int:
        """chi(Q, Q_sing), counted on the principal positions: the principal
        components are never built."""
        return self.stratification.principal.open_euler

    def breakdown(self, rho: Character) -> StrataEulerBreakdown:
        """Evaluate the stratified sum for one irreducible of the group."""
        G = self.group
        H_pr = self.stratification.principal.isotropy
        principal_homogeneous = chi_rho_homogeneous(G, H_pr, rho)
        terms: list[StrataTerm] = []
        for stratum in self.stratification.singular:
            homogeneous = chi_rho_homogeneous(G, stratum.isotropy, rho)
            terms.extend(
                StrataTerm(
                    stratum_index=stratum.index,
                    component_index=c.index,
                    isotropy=stratum.isotropy.elements,
                    codimension=c.codim,
                    homogeneous=homogeneous,
                    relative=c.closure_euler - c.lower_euler,
                )
                for c in stratum.components
            )
        return StrataEulerBreakdown(
            rho_index=rho.index,
            principal_isotropy=H_pr.elements,
            principal_homogeneous=principal_homogeneous,
            principal_relative=self.principal_relative,
            terms=tuple(terms),
        )


def strata_geometry(X: GComplex) -> StrataGeometry:
    """Build the rho-independent part of the stratified sum, with every
    geometric input derived from the complex itself."""
    return StrataGeometry(X.group, orbit_type_stratification(X))


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
