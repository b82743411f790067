"""Isotypical Euler characteristics through the orbit-type stratification.

The sum needs one fact of the action: the isotropy group of a simplex
fixes it pointwise.  Then the chain complex is a sum, over simplex orbits,
of permutation modules C[G/G_s], no orientation is flipped, and the orbit
space is a G-CW complex with one cell per simplex orbit (tom Dieck,
*Transformation Groups*, 1987, II.1).  Bredon's condition (A), no edge
joining two vertices of one orbit, gives that fact, and sd K satisfies (A)
for any K (Bredon, *Introduction to Compact Transformation Groups*, 1972,
III.1).  So the stratification asks for (A) and nothing more, and
`verify_strata_vs_oracle` computes on the first complex of the ladder
X, sd X that satisfies (A), and reports the subdivision count of the first
regular one, which it does not build.  Frobenius reciprocity then
gives the rho-isotypical Euler characteristic as a sum over the strata, the
equivariant Euler characteristic in the Burnside ring (tom Dieck, 1987):

    chi_rho(M) = chi_rho(G/H_pr) * chi(Q, Q_sing)
               + sum over components  chi_rho(G/H_j) * chi(Q_cl, Q_low)

where Q is the orbit space, Q_sing the image of the non-principal part, and
Q_cl / Q_low the images of a component's closure and of its boundary part.
Every homogeneous factor chi_rho(G/H) = deg(rho) * <Res_H chi_rho, 1>_H is
an exact integer.  It is deg(rho) * sum_c n_c chi_rho(c) / |H|, for the
number n_c of elements of H in the class c: `StrataGeometry` counts them
once per stratum, since they do not depend on rho, and each factor is one
`_class_average` of rho, the rule the multiplicities use (see `characters`).

A singular component of codimension below two makes the geometry refuse
the sum: `StrataGeometry.refusal` is the typed error naming it, which
`strata_geometry` raises and the verification driver reports as an
explicit skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .characters import Character, _class_average, character_table
from .complexes import euler_of_complex
from .errors import CodimensionError, DefectError, ValidationError
from .gcomplex import GComplex, Stratification, _ladder, orbit_type_stratification
from .groups import FiniteGroup, Subgroup
from .lefschetz import equivariant_multiplicities


def _class_counts(H: Subgroup) -> list[int]:
    """How many elements of H fall in each conjugacy class of its parent."""
    G = H.parent
    counts = [0] * len(G.conjugacy_classes())
    for h in H.elements:
        counts[G.class_of(h)] += 1
    return counts


def _homogeneous(rho: Character, counts: list[int]) -> int:
    """deg(rho) * (sum_c counts[c] rho(c)) / |H|, for the class counts of a
    subgroup H (they add up to |H|), by one `_class_average` over rho's
    lifted values.  The average must be a nonnegative rational integer."""
    order = sum(counts)
    m = _class_average(rho, counts, order)
    if type(m) is not int:
        raise ValidationError(
            f"character {rho.index} does not average to an integer over a "
            f"subgroup of order {order}: {m!r}"
        )
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
    group and its stratification.  Its `refusal` is the codimension
    guard's verdict, which `strata_geometry` raises and the commands
    report as a skip; `breakdown` evaluates the sum either way."""

    group: FiniteGroup
    stratification: Stratification

    @cached_property
    def class_counts(self) -> tuple[list[int], ...]:
        """Per stratum, in stratum order, how many elements of its isotropy
        group fall in each conjugacy class."""
        return tuple(_class_counts(s.isotropy) for s in self.stratification.strata)

    @cached_property
    def refusal(self) -> CodimensionError | None:
        """The error naming the first singular component, in stratum and
        component order, of codimension below 2, or None when the sum
        applies."""
        for stratum in self.stratification.singular:
            for component in stratum.components:
                if component.codim < 2:
                    return CodimensionError(
                        "stratified sum rejected: component "
                        f"{component.index} of stratum {stratum.index} has "
                        f"codimension {component.codim} < 2",
                        stratum_index=stratum.index,
                        component_index=component.index,
                    )
        return None

    @property
    def principal_relative(self) -> int:
        """chi(Q, Q_sing), counted on the principal positions: the principal
        components are never built."""
        return self.stratification.principal.open_euler

    def breakdown(self, rho: Character) -> StrataEulerBreakdown:
        """Evaluate the stratified sum for one irreducible of the group."""
        if rho.group is not self.group:
            raise ValidationError("character lives on a different group")
        principal, *singular = self.stratification.strata
        principal_homogeneous, *homogeneous_factors = (
            _homogeneous(rho, counts) for counts in self.class_counts
        )
        terms: list[StrataTerm] = []
        for stratum, homogeneous in zip(singular, homogeneous_factors):
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
            principal_isotropy=principal.isotropy.elements,
            principal_homogeneous=principal_homogeneous,
            principal_relative=self.principal_relative,
            terms=tuple(terms),
        )


def strata_geometry(X: GComplex) -> StrataGeometry:
    """Build the rho-independent part of the stratified sum, with every
    geometric input derived from the complex itself; the action must
    satisfy condition (A), and the geometry's `refusal`, if any, is
    raised."""
    geometry = StrataGeometry(X.group, orbit_type_stratification(X))
    if geometry.refusal is not None:
        raise geometry.refusal
    return geometry


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

    Both run on `_ladder`'s complex, the first of the ladder that satisfies
    condition (A).  The geometry's `refusal` becomes an explicit skip,
    never a wrong number.
    """
    X, subdivisions = _ladder(X)
    chi_m = euler_of_complex(X.complex)
    report = equivariant_multiplicities(X)
    geometry = StrataGeometry(X.group, orbit_type_stratification(X))
    if geometry.refusal is not None:
        return VerifyReport((), str(geometry.refusal), subdivisions, chi_m)
    rows = tuple(
        VerifyRow(rho.index, rho.degree, report.chi_rho[rho.index], geometry.breakdown(rho).total)
        for rho in character_table(X.group)
    )
    return VerifyReport(rows, None, subdivisions, chi_m)
