"""Finite-scale laboratory for tensor-leg operator algebras.

Structured operators on tensor powers of a tracial matrix algebra,
symmetric-group combinatorics, exact Haar averaging, finite-dimensional
commutant solvers, and crossed products by leg permutations, together
with a CLI that runs the verification experiments and writes machine
readable reports.
"""

__version__ = "0.1.0"

from .legops import (
    CapExceededError,
    DenseOperator,
    LegFactor,
    ModelSpace,
    NumericError,
    OperatorTerm,
    SpaceMismatchError,
    StructuredOperator,
    left_mult,
    load_dense,
    permutation_op,
    permuted_product_trace,
    right_mult,
    save_dense,
)
from .symcomb import (
    CharacterTable,
    CycleType,
    Partition,
    character,
    conjugacy_classes,
    cycle_type_of_permutation,
    dimension,
    enumerate_partitions,
)
from .duality_core import (
    HaarConfig,
    LimitFormulaReport,
    MCAverage,
    SpectralGrid,
    SubfactorTower,
    conditional_expectation,
    haar_average_mc,
    haar_pair_average_exact,
    haar_pair_average_mc,
    haar_unitary,
    limit_formula_check,
    product_average_exact,
    product_average_mc,
    sigma_average_exact,
    sigma_residual,
    spectral_binning,
    t_minus,
    t_mixed,
    t_plus,
    young_projection,
)
from .algebra_tools import (
    AlgebraBasis,
    GapReport,
    SpanGrowthReport,
    block_structure,
    commutant_basis,
    fixed_point_basis,
    fixed_point_dimension,
    generated_algebra_dim,
    hs_inner,
    orthonormalize,
    relative_gap,
    span_closure,
    span_growth_check,
)
from .crossed import (
    CompressionReport,
    CrossedOperator,
    ProductGroupElement,
    TauPrimeRow,
    TauPrimeValues,
    TraceInequalityReport,
    center_basis,
    compression_check,
    equivalence_criterion,
    group_conjugacy_classes,
    group_elements,
    tau_prime_table,
    theta_apply,
    trace_inequality_check,
    trace_tau_prime,
)
from .reporting import (
    CheckResult,
    ExperimentConfig,
    ExperimentReport,
    derive_seed,
    validate_record,
)
from .experiments import (
    EXPERIMENTS,
    experiment_names,
    run_experiment,
    suite_configs,
)
