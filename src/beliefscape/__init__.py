"""Belief landscapes and their inversion back to informational environments.

The forward map turns an information structure and a common prior into the
pair of matrices an analyst can observe ex post: each belief type's posterior
over states, and each type's predicted distribution of peer types. The
inverse map is the point of the library: the structure comes out of a
column-by-column regression, the prior out of an eigenvector equation, with
dedicated routes for scarce signals, dependent belief columns, reducible
(partition-like) information, and landscapes no common prior can explain.
"""

from .core import (
    BeliefLandscape,
    BeliefscapeError,
    DEFAULT_TOLERANCES,
    DegenerateEnvironmentError,
    DroppedSignalWarning,
    HypotheticalBeliefMatrix,
    InconsistentLandscapeError,
    InformationStructure,
    InformationalEnvironment,
    NotConvexDependentError,
    NotModelGeneratedError,
    PlausibilityReport,
    Prior,
    RankDeficientError,
    SignalMarginal,
    StateBeliefMatrix,
    StructuralError,
    StructureSupportError,
    Tolerances,
    UnderdeterminedError,
    Violation,
    validate_environment,
    validate_landscape,
)
from .forward import (
    generate_landscape,
    posterior_matrix,
    sample_environment,
    signal_marginal,
)
from .inverse import (
    ConsistencyVerdict,
    IdentificationResult,
    NonCommonPriorRationalization,
    PartitionResult,
    PriorFamily,
    ReductionResult,
    RestorationResult,
    SignalPriorsResult,
    StateInference,
    StructureDiagnostics,
    UnderdeterminedResult,
    consistency_check,
    detect_partitional,
    identify,
    identify_single_column,
    identify_structure,
    identify_underdetermined,
    infer_state,
    peer_accuracy_matrix,
    rationalize_noncommon,
    reduce_dependencies,
    signal_priors_identify,
)
from .linalg import (
    EigenvalueOneResult,
    NullSpaceBasis,
    Regularizer,
    least_squares_coefficients,
    min_norm_solution,
    null_space_basis,
    regression_operator,
    ridge_solution_at,
    unit_eigenvector_eigenvalue_one,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
