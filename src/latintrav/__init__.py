"""Latin square transversal analysis.

Constructions of square families whose transversals are provably constrained,
delta-based certificates for cells no transversal can avoid, an exhaustive
search engine for transversals and suitable diagonals, and the block-hit
analysis for the odd-order block family.
"""

__version__ = "0.1.0"

from .core import (
    BadPermutation,
    BadSymbol,
    CaseOverlap,
    Diagonal,
    DomainError,
    Entry,
    Isotopism,
    LatinSquare,
    LatinSquareError,
    NotLatin,
    NotTransversal,
    ParseError,
    Transversal,
    apply_isotopism,
    as_transversal,
    cayley_table,
    from_json,
    is_transversal,
    new_square,
    parse,
    serialize,
    to_json,
)
from .delta import (
    DeltaProfile,
    ForcedCertificate,
    NotBlockSquare,
    OddOrder,
    delta_m,
    delta_profile,
    delta_sum,
    forced_entry_certificate,
    is_suitable_diagonal,
    special_symbol_delta_check,
)
from .families import (
    build_exceptional,
    build_family,
    build_L,
    build_T,
    build_U,
    build_V,
    claimed_free_cells,
    claimed_pinned_entries,
    family_of_order,
    witness_transversal,
)
from .engine import (
    BudgetExceeded,
    ClassificationReport,
    SearchConstraints,
    SearchMode,
    classify,
    count_parity_check,
    enumerate_solutions,
    find,
    find_disjoint_pair,
    is_pinned,
    iter_solutions,
)
from .bounds import BoundCheck, BoundSets, bound_sets, check_sets_only, lower_bound, verify_bound
from .blocks import (
    TheoremCheck,
    automorphism_tau,
    autotopism_phi,
    block_hits,
    block_of,
    verify_block_maps,
    verify_hit_theorem,
)
