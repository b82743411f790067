"""Brute-force equivariant multiplicities via Lefschetz numbers.

Every Lefschetz number is computed two independent ways and the two are
required to agree exactly:

  * trace route: alternating count of simplices mapped to themselves, read
    off the element's permutation of simplex positions (each such simplex
    is fixed pointwise, so it contributes +1 to the trace on its chain
    group);
  * fixed-point route: the Euler characteristic of the fixed subcomplex of
    the cyclic group generated by the element, read off vertex fixity
    alone: the sum of the signed counts of the fixer masks that hold the
    element, each taken once per complex (`GComplex.mask_euler`).

Both take signed counts of positions with `SimplicialComplex.euler`.

The trace route needs every simplex that an element maps to itself to be
fixed pointwise, so that the chains split into permutation modules (tom
Dieck, *Transformation Groups*, 1987, II.1).  Bredon's condition (A), no
edge joining two vertices of one orbit, gives that, and sd K satisfies it
for any K (Bredon, *Introduction to Compact Transformation Groups*, 1972,
III.1).  Each route checks (A) and nothing more, so `verify` and `strata`
call `equivariant_multiplicities` on the first complex of the subdivision
ladder that satisfies (A).  On an action that fails (A) neither count need
be L(g): the flip of an interval fixes no simplex pointwise and maps the
edge to itself, so the fixed-set count is 0 and the trace count -1, yet
L = 1.

Averaging against irreducible characters then yields the multiplicity of
each irreducible in the alternating sum of (co)homology; exact integrality
is asserted, never rounded.  The averages (`_class_average`) and the check
that the multiplicities reassemble every Lefschetz number run on integer
vectors over the group's lifted character table (see `characters`): one
weighted sum per row, and one per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import lcm
from operator import eq

from .characters import (
    ClassFunction,
    _class_average,
    _lifted_row,
    _weighted_sum,
    character_table,
    inner_product,
)
from .cyclotomic import Cyc
from .errors import DefectError, ValidationError
from .gcomplex import GComplex, _require_condition_a
from .groups import FiniteGroup


def _require_element(X: GComplex, g: int) -> None:
    if not 0 <= g < X.group.order:
        raise ValidationError(f"element {g} is not an element id in [0, {X.group.order - 1}]")


def lefschetz_number_trace(X: GComplex, g: int) -> int:
    """The alternating count of the positions that g's row keeps."""
    _require_element(X, g)
    _require_condition_a(X)
    positions = X.complex.positions
    return X.complex.euler(compress(positions, map(eq, X.perm[g], positions)))


def lefschetz_number_fixed(X: GComplex, g: int) -> int:
    """chi of the subcomplex fixed pointwise by g: the sum of `X.mask_euler`
    over the fixer masks that have bit g.  A fixer mask is a subgroup, so it
    holds <g> exactly when it holds g.  That chi is L(g) under condition
    (A); without it, g can fix the barycentre of a simplex it flips."""
    _require_element(X, g)
    _require_condition_a(X)
    return sum(e for m, e in X.mask_euler.items() if m >> g & 1)


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


def equivariant_multiplicities(X: GComplex) -> MultiplicityReport:
    """ind(rho) = (1/|G|) sum_g L(g) conj(chi_rho(g)), exactly, for every rho;
    the action must satisfy condition (A).

    Each is `_class_average` with weights |C_c| L(c), the conjugate of
    <L, chi> as L is rational, so an integer exactly when <L, chi> is, and
    then equal to it; `inner_product` runs only to name a failure."""
    G = X.group
    numbers = tuple(lefschetz_number(X, g) for g in range(G.order))
    table = character_table(G)
    classes = G.conjugacy_classes()
    sized = [len(c) * numbers[c[0]] for c in classes]  # |C_c| L(c)
    multiplicities = []
    for chi in table:
        m = _class_average(chi, sized, G.order)
        if type(m) is not int:
            value = inner_product(_lefschetz_class_function(G, numbers), chi)
            raise DefectError(
                f"multiplicity of irreducible {chi.index} is not an integer: {value!r}"
            )
        multiplicities.append(m)
    chi_rho = tuple(m * chi.degree for m, chi in zip(multiplicities, table))
    report = MultiplicityReport(X, numbers, tuple(multiplicities), chi_rho)
    # the multiplicities must reassemble every Lefschetz number exactly: one
    # weighted sum per class, sum_chi m_chi D chi(c) / D_chi with D the lcm
    # of the row denominators, which every element of the class must equal
    n = _lifted_row(table[0])[0]  # the rows of one table share n
    lifted = [_lifted_row(chi)[1] for chi in table]
    D = lcm(*(row[0] for row in lifted))
    weights = [m * (D // row[0]) for m, row in zip(multiplicities, lifted)]
    for c, members in enumerate(classes):
        total = _weighted_sum(weights, [row[1][c] for row in lifted], n)
        values = {numbers[g] for g in members}
        if len(values) != 1 or total[0] != D * values.pop() or any(total[1:]):
            raise DefectError("multiplicities do not reassemble the Lefschetz numbers")
    return report


def distributional_pairing(report: MultiplicityReport, phi: ClassFunction) -> Cyc:
    """Pairing of the index distribution with a class function:
    sum_rho ind(rho) <phi, chi_rho> = <phi, L>, as `equivariant_multiplicities`
    checks L = sum_rho ind(rho) chi_rho at every class."""
    if phi.group is not report.gcomplex.group:
        raise ValidationError("class function lives on a different group")
    return inner_product(phi, report.lefschetz_class_function())
