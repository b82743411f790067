"""Brute-force equivariant multiplicities via Lefschetz numbers.

For a regularized action every Lefschetz number is computed two independent
ways and the two are required to agree exactly:

  * trace route: alternating count of simplices mapped to themselves, read
    off the element's permutation of simplex positions (regularity makes
    every such simplex pointwise fixed, so each contributes +1 to the trace
    on its chain group);
  * fixed-point route: the Euler characteristic of the fixed subcomplex of
    the cyclic group generated by the element, read off vertex fixity
    alone (the per-simplex fixer masks, tallied once per complex).

Averaging against irreducible characters then yields the multiplicity of
each irreducible in the alternating sum of (co)homology; exact integrality
is asserted, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq

from .characters import ClassFunction, character_table, inner_product
from .cyclotomic import Cyc
from .errors import DefectError, ValidationError
from .gcomplex import GComplex, is_regular
from .groups import FiniteGroup


def _require_element(X: GComplex, g: int) -> None:
    if not 0 <= g < X.group.order:
        raise ValidationError(f"element {g} is not an element id in [0, {X.group.order - 1}]")


def lefschetz_number_trace(X: GComplex, g: int) -> int:
    _require_element(X, g)
    if not is_regular(X):
        raise ValidationError("Lefschetz traces require a regularized complex")
    p = X.perm[g]
    total = start = 0
    for d, count in enumerate(X.complex.f_vector()):
        positions = range(start, start + count)
        fixed = sum(map(eq, p[start : start + count], positions))
        total += -fixed if d % 2 else fixed
        start += count
    return total


def lefschetz_number_fixed(X: GComplex, g: int) -> int:
    """chi of the subcomplex fixed pointwise by g: the simplices whose fixer
    mask has bit g, counted once per mask in `X.mask_tally`.  A fixer mask is
    a subgroup, so it holds <g> exactly when it holds g."""
    _require_element(X, g)
    return sum(n for m, n in X.mask_tally.items() if m >> g & 1)


def lefschetz_number(X: GComplex, g: int) -> int:
    """L(g), computed both ways; disagreement is an internal defect."""
    via_trace = lefschetz_number_trace(X, g)
    via_fixed = lefschetz_number_fixed(X, g)
    if via_trace != via_fixed:
        raise DefectError(
            f"Lefschetz number disagreement at element {g}: "
            f"trace {via_trace} vs fixed-set {via_fixed}"
        )
    return via_trace


def _lefschetz_class_function(G: FiniteGroup, numbers: tuple[int, ...]) -> ClassFunction:
    return ClassFunction(
        G, tuple(Cyc.rational(numbers[rep]) for rep in G.class_representatives())
    )


@dataclass(frozen=True)
class MultiplicityReport:
    """Per-element Lefschetz numbers and per-irreducible multiplicities.

    `multiplicities[j]` is the multiplicity of irreducible j in the
    alternating cohomology sum; `chi_rho[j]` = degree(j) * multiplicity, the
    rho-isotypical Euler characteristic.
    """

    gcomplex: GComplex
    lefschetz: tuple[int, ...]  # indexed by element id
    multiplicities: tuple[int, ...]  # indexed by irreducible index
    chi_rho: tuple[int, ...]

    def lefschetz_class_function(self) -> ClassFunction:
        return _lefschetz_class_function(self.gcomplex.group, self.lefschetz)

    def total_euler_characteristic(self) -> int:
        return self.lefschetz[self.gcomplex.group.identity]

    def to_json_dict(self) -> dict:
        return {
            "lefschetz": {str(g): l for g, l in enumerate(self.lefschetz)},
            "multiplicities": {
                str(j): m for j, m in enumerate(self.multiplicities)
            },
            "chi_rho": {str(j): c for j, c in enumerate(self.chi_rho)},
        }


def equivariant_multiplicities(X: GComplex) -> MultiplicityReport:
    """ind(rho) = (1/|G|) sum_g L(g) conj(chi_rho(g)), exactly, for every rho."""
    G = X.group
    numbers = tuple(lefschetz_number(X, g) for g in range(G.order))
    table = character_table(G)
    lefschetz = _lefschetz_class_function(G, numbers)
    multiplicities = []
    for chi in table:
        value = inner_product(lefschetz, chi)
        q = value.as_rational()
        if q is None or q.denominator != 1:
            raise DefectError(
                f"multiplicity of irreducible {chi.index} is not an integer: {value!r}"
            )
        multiplicities.append(q.numerator)
    chi_rho = tuple(m * chi.degree for m, chi in zip(multiplicities, table))
    report = MultiplicityReport(X, numbers, tuple(multiplicities), chi_rho)
    # the multiplicities must reassemble every Lefschetz number exactly: one
    # sum per class, which every element of the class must equal
    for c, members in enumerate(G.conjugacy_classes()):
        total = Cyc.zero(1)
        for chi, m in zip(table, multiplicities):
            total = total + m * chi.values[c]
        values = {numbers[g] for g in members}
        if len(values) != 1 or not (total == Cyc.rational(values.pop())):
            raise DefectError("multiplicities do not reassemble the Lefschetz numbers")
    return report


def distributional_pairing(report: MultiplicityReport, phi: ClassFunction) -> Cyc:
    """Pairing of the index distribution with a class function:
    sum_rho ind(rho) <phi, chi_rho>."""
    G = report.gcomplex.group
    if phi.group is not G:
        raise ValidationError("class function lives on a different group")
    table = character_table(G)
    total = Cyc.zero(1)
    for chi, m in zip(table, report.multiplicities):
        total = total + m * inner_product(phi, chi)
    return total
