"""pcmeta: partial-conjunction p-values and replicability analysis.

Combine per-study p-values into valid tests of "at least r of n studies
are non-null", build confidence sets for the number of non-null
studies, and verify any combining rule with the shipped Monte Carlo
oracles.
"""

from .combiners import (
    CombinerSpec,
    CountTable2x2,
    FisherExactResult,
    combine,
    combine_bonferroni,
    combine_fisher,
    combine_simes,
    combine_stouffer_weighted,
    combine_tpm,
    fisher_exact_2x2,
)
from .counterexample import (
    phi,
    phi_prime,
    phi_tilde,
    power_grid_2d,
    power_grids_2d,
    region_phi,
    region_phi_prime,
    region_phi_tilde,
    slice_validity,
)
from .errors import (
    EnumerationBudgetError,
    InputValidationError,
    NonConvergenceError,
    NumericDomainError,
    PcmetaError,
)
from .numerics import (
    ProbValue,
    chisq_sf,
    hypergeom_log_pmf,
    log_sum_exp,
    std_normal_quantile,
    std_normal_sf,
)
from .oracle import BatchedRule, NullConfig, ValidityEstimate, mc_validity, tpm_mc_cdf
from .partial_conjunction import (
    GroupPartition,
    PcCurve,
    PcEntry,
    bhpc,
    extract_component,
    fixed_subset_combiner,
    gbhpc_enumerate,
    pc_curve,
    select_construction,
    structured_gbhpc,
    structured_subset_combiner,
    weighted_subset_combiner,
)
from .simulation import PowerGrid, SimConfig, draw_study_pvalues, run_power_map

__version__ = "0.1.0"

__all__ = [
    "BatchedRule",
    "CombinerSpec",
    "CountTable2x2",
    "FisherExactResult",
    "GroupPartition",
    "NullConfig",
    "PcCurve",
    "PcEntry",
    "PowerGrid",
    "ProbValue",
    "SimConfig",
    "ValidityEstimate",
    "EnumerationBudgetError",
    "InputValidationError",
    "NonConvergenceError",
    "NumericDomainError",
    "PcmetaError",
    "bhpc",
    "chisq_sf",
    "combine",
    "combine_bonferroni",
    "combine_fisher",
    "combine_simes",
    "combine_stouffer_weighted",
    "combine_tpm",
    "draw_study_pvalues",
    "extract_component",
    "fisher_exact_2x2",
    "fixed_subset_combiner",
    "gbhpc_enumerate",
    "hypergeom_log_pmf",
    "log_sum_exp",
    "mc_validity",
    "pc_curve",
    "phi",
    "phi_prime",
    "phi_tilde",
    "power_grid_2d",
    "power_grids_2d",
    "region_phi",
    "region_phi_prime",
    "region_phi_tilde",
    "run_power_map",
    "select_construction",
    "slice_validity",
    "std_normal_quantile",
    "std_normal_sf",
    "structured_gbhpc",
    "structured_subset_combiner",
    "tpm_mc_cdf",
    "weighted_subset_combiner",
]
