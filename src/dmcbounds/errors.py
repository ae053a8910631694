"""Exception hierarchy.

Two families matter to callers (and to the CLI's exit codes): ``InputError``
covers malformed or out-of-domain inputs, ``NumericError`` inputs that are
structurally fine but defeat the numerics (singularity, non-convergence).
"""

from __future__ import annotations


class DmcError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DmcError):
    """Malformed or out-of-domain input (CLI exit code 2)."""


class NumericError(DmcError):
    """Numeric failure on structurally valid input. At the CLI a ``NotConverged``
    exits 3; a ``SingularMatrix`` or ``ConvergenceFailure`` gives NA cells."""


class NotSquare(InputError):
    pass


class RowSumViolation(InputError):
    """``row`` is 0-based; the message counts rows from 1, as the loader does."""

    def __init__(self, row: int, total: float):
        self.row = row
        self.total = total
        super().__init__(f"row {row + 1} sums to {total!r}, expected 1 within 1e-9")


class NegativeEntry(InputError):
    """``row`` and ``col`` are 0-based; the message counts from 1, as the loader does."""

    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"row {row + 1}, column {col + 1}: {value!r} is negative")


class MatrixFormatError(InputError):
    """Unparseable matrix file; message carries row/column location."""


class InvalidPmf(InputError):
    pass


class InvalidParameter(InputError):
    pass


class InvalidRange(InputError):
    pass


class SingularMatrix(NumericError):
    """cond(A) = sigma_max/sigma_min is at least 1e13 (inf when sigma_min = 0).
    The message omits ``cond``: at an exactly singular A its digits are noise.
    A's ``InverseAnalysis`` (inverse None) rides along as ``.analysis``, and
    ``.cond`` reads its ``cond``."""

    def __init__(self, analysis):
        self.analysis = analysis
        self.cond = analysis.cond
        super().__init__("singular matrix: condition number is at least 1e13")


class ConvergenceFailure(NumericError):
    """The LAPACK singular value decomposition did not converge."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"singular value decomposition did not converge: {detail}")


class NotConverged(NumericError):
    """Iteration hit its cap; the best estimate rides along, its iterations and gap too."""

    def __init__(self, estimate):
        self.estimate = estimate
        self.iterations = estimate.iterations
        self.gap = estimate.gap
        super().__init__(
            f"not converged after {self.iterations} iterations (gap {self.gap:.3e} bits)"
        )
