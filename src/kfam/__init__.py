"""Exact verification toolkit for intersecting set families.

Families live on a ground set [n] with members encoded as bitmasks; every
computation is exact (integers and rationals only).  The package bundles
the named extremal constructions, an exact covering-number solver,
compression and exchange transforms, spread and layer decompositions,
closed-form size formulas with grid certification, and small exhaustive
search oracles, all behind one CLI.
"""

from .certify import (
    ACCEPTANCE_GRIDS,
    GridPoint,
    GridReport,
    certify_grid,
)
from .constructions import c3, cross_closure, full_star, hilton_milner, t2, t2prime
from .covers import (
    CoverResult,
    MinimalTau2,
    count_hitting_sets,
    covering_number,
    enumerate_minimal_tau2,
    minimal_tau2_subfamily,
    representative_pools,
    tau,
)
from .errors import (
    DomainError,
    ExchangeError,
    InvariantError,
    ParseError,
    ScaleError,
)
from .families import (
    Family,
    are_cross_intersecting,
    are_isomorphic,
    canonical_form,
    dedup_isomorphism_classes,
    diversity,
    elements_of,
    family,
    is_intersecting,
    mask_of,
    max_degree,
    max_degree_element,
    restrict_avoid,
    restrict_contains_keep,
    restrict_contains_strip,
)
from .fileio import (
    format_family,
    load_family,
    parse_family,
    save_family,
)
from .formulas import (
    binom,
    ekr_bound,
    f_of_z,
    fprime3,
    hm_size,
    kz_bound,
    size_c3,
    size_f2prime,
    thm1_bound,
)
from .search import (
    SearchResult,
    find_tau_dropping_shift,
    lemmin_oracle,
    lemmin_table,
    max_intersecting_tau,
    saturate,
)
from .shifting import shift_family, shift_set
from .spread import (
    PeelTrace,
    SpreadCheck,
    SpreadSwitchCheck,
    find_spread_restriction,
    is_r_spread,
    lemma_spread2_check,
    maximal_reduction,
    peel,
)
from .switching import (
    PipelineResult,
    SwitchContext,
    exchange_Gi,
    exchange_transversal,
    switch_pipeline,
)

__version__ = "0.1.0"
