"""Toolkit for finite k-valued functions given as value tables.

Covers essential-variable analysis, identification minors and the arity
gap, subfunctions and separable sets, symmetric normal-form constructors,
exhaustive censuses over the multiset representation, and registered
brute-force verification suites for the classified structure claims.
"""

from .core import (
    BudgetError,
    DecompositionError,
    DomainError,
    FiniteFunction,
    IndicatorTerm,
    PreconditionError,
    embeds,
    from_indicator_terms,
    index_of,
    indicator_terms,
    is_all_distinct,
    iter_points,
    point_of,
    range_of,
    range_size,
)
from .minors import (
    GapProfile,
    MinorRecord,
    all_minors,
    essential_count,
    essential_variables,
    gap,
    gap_index,
    gap_profile,
    identify,
)
from .subfunctions import (
    DominantSet,
    SeparabilityReport,
    SubfunctionRecord,
    all_subfunctions,
    dominant_profile,
    dominants,
    essential_core,
    restrict,
    separable_sets,
    sub_bound,
    sub_count,
    subfunction_closure,
    weak_dominants,
)
from .symmetric import (
    DecompositionPair,
    GapNSpec,
    LinearSpec,
    SymmetricSpec,
    TernaryGap2Spec,
    compress,
    construct_gap2_ternary,
    construct_gap_n,
    construct_linear,
    diagonal_values,
    expand,
    extract_decomposition,
    is_symmetric,
    is_totally_symmetric,
    multisets,
    orbit_sum,
    recompose,
    spec_to_function,
)
from .enumeration import (
    Census,
    census,
    enumerate_symmetric,
    nontrivial_gap_specs,
    symmetric_spec_count,
)
from .suites import SUITE_NAMES, SuiteReport, UnknownSuiteError, run_suite

__version__ = "0.1.0"
