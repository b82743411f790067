"""Exact isotypical Euler characteristics of finite group actions.

The package computes, for a finite group acting simplicially on a finite
complex, the Euler characteristic of each isotypical part of cohomology two
independent ways (an elementwise trace oracle and a stratified sum over the
orbit space), decomposes equivariant bundle data along fixed components
into fine pieces, and evaluates stratified index sums from per-stratum
spectral data.  All arithmetic is exact: integers, rationals, and
cyclotomic numbers.
"""

from .assembler import (
    FineEntry,
    IndexData,
    IndexResult,
    StratumRecord,
    assemble_index,
    beta_term,
    index_data_from_breakdown,
)
from .characters import (
    Character,
    ClassFunction,
    character_table,
    decompose,
    induce,
    inner_product,
    restrict,
    trivial_character,
    trivial_index,
)
from .complexes import (
    SimplicialComplex,
    euler_characteristic,
    euler_of_complex,
    subdivision,
)
from .cyclotomic import Cyc
from .errors import CodimensionError, DefectError, EquichiError, ValidationError
from .finedecomp import (
    BundleData,
    CanonicalIsotropyBundle,
    ComponentSystem,
    FineComponent,
    canonical_isotropy_bundle,
    fine_decomposition,
    is_adapted,
    twist_index_map,
)
from .gcomplex import (
    GComplex,
    OrientationCharacter,
    Stratification,
    build_gcomplex,
    orbit_space,
    orbit_type_stratification,
    orientation_character,
    is_regular,
    regularize,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    group_from_permutations,
    normalizer,
    subconjugate,
)
from .lefschetz import (
    MultiplicityReport,
    distributional_pairing,
    equivariant_multiplicities,
    lefschetz_number,
)
from .strataformula import (
    StrataEulerBreakdown,
    VerifyReport,
    equivariant_euler_via_strata,
    strata_geometry,
    verify_strata_vs_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BundleData",
    "CanonicalIsotropyBundle",
    "Character",
    "ClassFunction",
    "CodimensionError",
    "ComponentSystem",
    "Cyc",
    "DefectError",
    "EquichiError",
    "FineComponent",
    "FineEntry",
    "FiniteGroup",
    "GComplex",
    "IndexData",
    "IndexResult",
    "MultiplicityReport",
    "OrientationCharacter",
    "SimplicialComplex",
    "StrataEulerBreakdown",
    "Stratification",
    "StratumRecord",
    "Subgroup",
    "ValidationError",
    "VerifyReport",
    "all_subgroups",
    "assemble_index",
    "beta_term",
    "build_gcomplex",
    "canonical_isotropy_bundle",
    "character_table",
    "decompose",
    "distributional_pairing",
    "equivariant_euler_via_strata",
    "equivariant_multiplicities",
    "euler_characteristic",
    "euler_of_complex",
    "fine_decomposition",
    "group_from_permutations",
    "index_data_from_breakdown",
    "induce",
    "inner_product",
    "is_adapted",
    "is_regular",
    "lefschetz_number",
    "normalizer",
    "orbit_space",
    "orbit_type_stratification",
    "orientation_character",
    "regularize",
    "restrict",
    "strata_geometry",
    "subconjugate",
    "subdivision",
    "trivial_character",
    "trivial_index",
    "twist_index_map",
    "verify_strata_vs_oracle",
]
