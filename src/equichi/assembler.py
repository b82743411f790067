"""Evaluate stratified index sums from per-stratum spectral data.

The index of the de Rham operator on an isotypical part assembles as an
interior integral plus one boundary correction per singular stratum:

    ind = A0 + sum over strata beta_j

with each beta a weighted sum over the fine pieces b of the normal bundle
data along the stratum:

    equivariant mode:  beta = (1 / (2 dim)) * sum_b (1 / (n_b rank_b))
                               * (h_b - eta_b) * integral_b
    basic mode:        beta = (1 / 2) * sum_b (1 / (n_b rank_b))
                               * (h_b - eta_b) * integral_b,  dim forced 1

where n_b counts the representation types in the fine piece, rank_b its
rank, eta_b the spectral asymmetry of the induced boundary operator, h_b
its kernel dimension, and integral_b the characteristic-form integral.

All arithmetic is exact rational.  A non-integer total is reported with a
warning flag, never silently rounded and never raised as an error: the
caller decides whether integrality was expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

MODES = ("equivariant", "basic")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValidationError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class FineEntry:
    """Spectral data of one fine piece of the normal bundle on one stratum."""

    type_count: int  # number of representation types in the piece
    rank: int
    eta: Fraction  # spectral asymmetry
    harmonic_dim: int  # kernel dimension of the boundary operator
    integral: Fraction  # characteristic form integrated over the stratum

    def __post_init__(self):
        if self.type_count < 1:
            raise ValidationError("type count must be a positive integer")
        if self.rank < 1:
            raise ValidationError("rank must be a positive integer")
        if self.harmonic_dim < 0:
            raise ValidationError("kernel dimension must be nonnegative")
        object.__setattr__(self, "eta", _as_fraction(self.eta))
        object.__setattr__(self, "integral", _as_fraction(self.integral))


@dataclass(frozen=True)
class StratumRecord:
    id: str
    entries: tuple[FineEntry, ...]


@dataclass(frozen=True)
class IndexData:
    """Everything needed to evaluate the stratified index sum once."""

    mode: str
    dim: int  # dimension of the isotypical fiber
    principal_integral: Fraction
    strata: tuple[StratumRecord, ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.dim < 1:
            raise ValidationError("fiber dimension must be a positive integer")
        if self.mode == "basic" and self.dim != 1:
            raise ValidationError("basic mode requires a one-dimensional fiber")
        object.__setattr__(
            self, "principal_integral", _as_fraction(self.principal_integral)
        )
        ids = [s.id for s in self.strata]
        if len(set(ids)) != len(ids):
            raise ValidationError("stratum ids must be distinct")


def beta_term(record: StratumRecord, mode: str, dim: int) -> Fraction:
    """The boundary correction of one stratum."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "basic":
        if dim != 1:
            raise ValidationError("basic mode requires a one-dimensional fiber")
        prefactor = Fraction(1, 2)
    else:
        prefactor = Fraction(1, 2 * dim)
    total = Fraction(0)
    for e in record.entries:
        weight = Fraction(1, e.type_count * e.rank)
        total += weight * (Fraction(e.harmonic_dim) - e.eta) * e.integral
    return prefactor * total


@dataclass(frozen=True)
class IndexResult:
    mode: str
    dim: int
    principal: Fraction
    beta_terms: tuple[tuple[str, Fraction], ...]
    total: Fraction

    @property
    def is_integer(self) -> bool:
        return self.total.denominator == 1

    @property
    def warning(self) -> str | None:
        if self.is_integer:
            return None
        return f"assembled index {self.total} is not an integer"

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "dim": self.dim,
            "principal": [self.principal.numerator, self.principal.denominator],
            "beta_terms": [
                {"id": sid, "value": [b.numerator, b.denominator]}
                for sid, b in self.beta_terms
            ],
            "total": [self.total.numerator, self.total.denominator],
            "is_integer": self.is_integer,
            "warning": self.warning,
        }


def assemble_index(data: IndexData) -> IndexResult:
    """Evaluate the full sum A0 + sum beta_j with exact rational arithmetic."""
    betas = tuple(
        (record.id, beta_term(record, data.mode, data.dim)) for record in data.strata
    )
    total = data.principal_integral + sum((b for _, b in betas), Fraction(0))
    return IndexResult(
        mode=data.mode,
        dim=data.dim,
        principal=data.principal_integral,
        beta_terms=betas,
        total=total,
    )


def index_data_from_breakdown(breakdown, degree: int, mode: str = "equivariant") -> IndexData:
    """Package a stratified isotypical Euler breakdown as index data whose
    assembled total is the index (multiplicity) itself.

    The interior term carries the principal contribution divided by the
    fiber dimension; each singular component becomes a rank-one entry with
    zero asymmetry, unit kernel, and integral twice its contribution, so
    its beta reproduces contribution / dim exactly.
    """
    if degree < 1:
        raise ValidationError("fiber dimension must be a positive integer")
    strata = []
    for t in breakdown.terms:
        entry = FineEntry(
            type_count=1,
            rank=1,
            eta=Fraction(0),
            harmonic_dim=1,
            integral=Fraction(2 * t.product) if mode == "equivariant" else Fraction(2 * t.product, degree),
        )
        strata.append(
            StratumRecord(id=f"s{t.stratum_index}c{t.component_index}", entries=(entry,))
        )
    return IndexData(
        mode=mode,
        dim=degree if mode == "equivariant" else 1,
        principal_integral=Fraction(breakdown.principal_product, degree),
        strata=tuple(strata),
    )
