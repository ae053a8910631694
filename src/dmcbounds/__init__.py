"""Capacity bounds for discrete memoryless channels with invertible channel
matrices: a closed-form upper bound, checkable conditions under which it is
exact (for strictly positive, strictly diagonally dominant matrices),
reference capacities (iterative and brute-force), competing published
bounds, and the channel families used to exercise them."""

from .bounds import (
    BoundReport,
    Condition,
    capacity_upper_bound,
    pseudo_inverse_input,
)
from .errors import (
    ConvergenceFailure,
    DmcError,
    InputError,
    InvalidParameter,
    InvalidPmf,
    InvalidRange,
    MatrixFormatError,
    NegativeEntry,
    NotConverged,
    NotSquare,
    NumericError,
    RowSumViolation,
    SingularMatrix,
    TooLarge,
)
from .families import (
    FamilySpec,
    SplitMix64,
    beta_family,
    bsc,
    build_family,
    fixed_example,
    gamma_family,
    random_sdd_positive,
    relay_miso,
)
from .matrix import (
    ChannelMatrix,
    InverseAnalysis,
    analyze_inverse,
    dump_matrix_csv,
    load_matrix_csv,
    mutual_information,
    validate_channel,
)
from .reference import (
    CapacityEstimate,
    arimoto_upper_bound,
    blahut_arimoto,
    boyd_chiang_upper_bound,
    dual_bound,
    grid_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapacityEstimate",
    "ChannelMatrix",
    "Condition",
    "ConvergenceFailure",
    "DmcError",
    "FamilySpec",
    "InputError",
    "InvalidParameter",
    "InvalidPmf",
    "InvalidRange",
    "InverseAnalysis",
    "MatrixFormatError",
    "NegativeEntry",
    "NotConverged",
    "NotSquare",
    "NumericError",
    "RowSumViolation",
    "SingularMatrix",
    "SplitMix64",
    "TooLarge",
    "analyze_inverse",
    "arimoto_upper_bound",
    "beta_family",
    "blahut_arimoto",
    "boyd_chiang_upper_bound",
    "bsc",
    "build_family",
    "capacity_upper_bound",
    "dual_bound",
    "dump_matrix_csv",
    "fixed_example",
    "gamma_family",
    "grid_oracle",
    "load_matrix_csv",
    "mutual_information",
    "pseudo_inverse_input",
    "random_sdd_positive",
    "relay_miso",
    "validate_channel",
]
