"""Validated row-stochastic matrices and their linear-algebra diagnostics.

A channel matrix A is square with A[i][j] = P(output j | input i), so every
row is a probability vector. Everything downstream (closed-form bounds,
reference capacities) consumes the ``ChannelMatrix`` produced by
``validate_channel``, which also computes each row's negated entropy
-H(A_i) once, or the bundled ``InverseAnalysis`` diagnostics:

- inverse of A, by ``np.linalg.inv`` (one LAPACK gesv on the identity),
  refused as singular when the 2-norm condition number sigma_max/sigma_min
  reaches 1e13; the other diagnostics ride on the ``SingularMatrix``.
  ``analyze_inverse`` alone makes this test; ``invert`` reads its result;
- Gershgorin ratios c_i = A_ii / sum of off-diagonal row entries, and their
  minimum c_min (+inf when every off-diagonal sum is zero or below 5.6e-309);
- minimum singular value and condition number, from one LAPACK SVD of A
  (not of A^T A);
- the maximum row entropy H_max in bits.

All logarithms are base 2 and 0*log(0) = 0 throughout.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidPmf,
    MatrixFormatError,
    NegativeEntry,
    NotSquare,
    RowSumViolation,
    SingularMatrix,
)

ROW_SUM_TOL = 1e-9
NEGATIVE_CLAMP = 1e-12
# At cond(A) >= 1e13, cond * eps > 2e-3: not even the leading digits of an
# inverse-based result survive, so the matrix is treated as singular.
COND_LIMIT = 1e13
DOMINANCE_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Validated square row-stochastic matrix and, one per row, its negated
    entropy -H(A_i) = sum_j A_ij log2 A_ij in bits; both arrays are read-only.
    Construct via validate_channel."""

    entries: np.ndarray
    neg_entropies: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class InverseAnalysis:
    """Inverse of a channel matrix plus the diagnostics derived from A itself;
    ``inverse`` is None where A is refused as singular."""

    inverse: np.ndarray | None
    is_positive: bool
    is_sdd: bool
    c_min: float
    sigma_min: float
    cond: float
    h_max: float


def _entropies(x: np.ndarray) -> np.ndarray:
    """-sum x log2 x along the last axis, in bits; entries <= 0 contribute 0.
    It is 0.0 - sum rather than -sum, so that a deterministic row gives +0."""
    pos = x > 0.0
    return 0.0 - np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0).sum(axis=-1)


# A bool is an int to isinstance, but a flag is neither a count nor a measure.
def _is_integer(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)


def _shown(x) -> str:
    """A refused argument's repr, or its type where an int in it is too long
    for repr (``sys.get_int_max_str_digits()``)."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long for repr>"


def validate_channel(raw) -> ChannelMatrix:
    """Check squareness, nonnegativity and row stochasticity of a raw array.

    Entries in [-1e-12, 0) are clamped to zero; everything else is preserved
    bit-exactly. Raises NotSquare, NegativeEntry or RowSumViolation (also
    for a row holding NaN or inf, whose sum is not within 1e-9 of 1).
    """
    try:
        entries = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NotSquare(f"expected a square numeric matrix: {exc}") from None
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {entries.shape}")
    n = entries.shape[0]
    if n < 2:
        raise NotSquare(f"alphabet size must be at least 2, got {n}")
    bad = np.argwhere(entries < -NEGATIVE_CLAMP)  # row-major order
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise NegativeEntry(i, j, float(entries[i, j]))
    entries[entries < 0.0] = 0.0
    sums = entries.sum(axis=1)
    bad_rows = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))  # NaN is bad too
    if bad_rows.size:
        i = int(bad_rows[0])
        raise RowSumViolation(i, float(sums[i]))
    entries.setflags(write=False)
    neg_entropies = 0.0 - _entropies(entries)  # -x would make a deterministic row's +0 -0
    neg_entropies.setflags(write=False)
    return ChannelMatrix(entries, neg_entropies)


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of A in descending order, from the LAPACK SVD of A."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from None


def _dominance_ratios(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """diag / off entrywise, +inf where the off-diagonal sum ``off`` is not
    positive, or so small (below 5.6e-309 for diag <= 1) that it overflows."""
    with np.errstate(over="ignore"):
        return np.where(off > 0.0, diag / np.where(off > 0.0, off, 1.0), np.inf)


def _gershgorin_radii(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A's diagonal, and each row's off-diagonal sum added entry by entry: the
    row sum less A_ii (or 1 - A_ii) rounds a radius below about eps/2 to 0."""
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return np.diag(a), off.sum(axis=1)


# Not exported: these four stay only because perfbench/worker.stage_split times them.
# invert reads analyze_inverse, which alone decides whether A inverts. Tests call
# them only to check that they agree with analyze_inverse, which the commands
# run; every other test of these values reads analyze_inverse's fields.
def invert(matrix: ChannelMatrix) -> np.ndarray:
    """analyze_inverse(matrix).inverse; it raises what analyze_inverse raises."""
    return analyze_inverse(matrix).inverse


def gershgorin(matrix: ChannelMatrix) -> tuple[np.ndarray, float]:
    """Per-row Gershgorin ratios and their minimum.

    The radius is the off-diagonal row sum, added entry by entry (not
    1 - A_ii, which loses digits for diagonals near 1). A zero radius, or one
    so small that the ratio overflows, yields an infinite ratio.
    """
    ratios = _dominance_ratios(*_gershgorin_radii(matrix.entries))
    return ratios, float(ratios.min())


def min_singular_value(matrix: ChannelMatrix) -> float:
    """Minimum singular value of A, from the LAPACK SVD of A itself.

    Raises ConvergenceFailure when the SVD does not converge.
    """
    return float(_singular_values(matrix.entries)[-1])


def row_entropies(matrix: ChannelMatrix) -> tuple[np.ndarray, float]:
    """Entropy of each row in bits, and the maximum over rows."""
    ent = 0.0 - matrix.neg_entropies
    return ent, float(ent.max())


def analyze_inverse(matrix: ChannelMatrix) -> InverseAnalysis:
    """Bundle the inverse with positivity/dominance flags and all diagnostics.

    One SVD of A gives sigma_min and cond. This is the only singular test: A
    is refused where cond reaches 1e13 or the solve fails, and the analysis,
    its inverse None, rides on the SingularMatrix as ``.analysis``.
    """
    a = matrix.entries
    sv = _singular_values(a)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
    inverse = None
    if cond < COND_LIMIT:
        try:
            inverse = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # the solve found an exactly zero pivot
            pass
    diag, off = _gershgorin_radii(a)
    analysis = InverseAnalysis(
        inverse=inverse,
        is_positive=bool(a.min() > 0.0),
        is_sdd=bool(((diag - off) > DOMINANCE_MARGIN).all()),
        c_min=float(_dominance_ratios(diag, off).min()),
        sigma_min=float(sv[-1]),
        cond=cond,
        h_max=float(0.0 - matrix.neg_entropies.min()),
    )
    if inverse is None:
        raise SingularMatrix(analysis)
    return analysis


def _float_vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as a float array, or InvalidPmf unless it is numeric of shape (n,)."""
    try:
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidPmf(f"{name} must be a numeric vector: {exc}") from None
    if v.shape != (n,):
        raise InvalidPmf(f"{name} must have shape ({n},), got {v.shape}")
    return v


def _checked_pmf(p, n: int) -> np.ndarray:
    """``p`` as a float array, or InvalidPmf unless it is numeric of shape (n,),
    with finite entries none below -1e-9, and a sum within 1e-9 of 1."""
    p = _float_vector(p, n, "pmf")
    if not np.isfinite(p).all():
        raise InvalidPmf(f"pmf has non-finite entries {p.tolist()!r}")
    if p.min() < -ROW_SUM_TOL:
        raise InvalidPmf(f"pmf has negative entry {p.min()!r}")
    if abs(p.sum() - 1.0) > ROW_SUM_TOL:
        raise InvalidPmf(f"pmf sums to {p.sum()!r}")
    return p


def mutual_information(matrix: ChannelMatrix, p) -> float:
    """I(X;Y) in bits for input pmf p: H(A^T p) minus the p-weighted row entropy."""
    p = _checked_pmf(p, matrix.n)
    q = matrix.entries.T @ p
    return float(_entropies(q)) + float(p @ matrix.neg_entropies)


def _loadtxt(lines: list[str] | list[bytes]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)


def _reads_one_row(line: str) -> bool:
    try:
        return bool(line) and _loadtxt([line]).shape[0] == 1  # loadtxt skips a blank line
    except ValueError:
        return False


def _refusal(lines: list[str]) -> MatrixFormatError | NotSquare:
    """Why ``_loadtxt(lines)`` gave no row per line: the first field, row by
    row, that it does not read as one number, else the first ragged row."""
    for r, line in enumerate(lines):
        for c, field in enumerate([] if _reads_one_row(line) else line.split(",")):
            if not _reads_one_row(field):
                return MatrixFormatError(
                    f"row {r + 1}, column {c + 1}: cannot parse {field.strip()!r}"
                )
    widths = [line.count(",") + 1 for line in lines]
    for r, width in enumerate(widths):
        if width != widths[0]:
            return NotSquare(f"row {r + 1} has {width} fields, expected {widths[0]}")
    raise AssertionError(f"np.loadtxt refused lines whose every field it reads: {lines!r}")


def load_matrix_csv(path) -> ChannelMatrix:
    """Read the shared matrix CSV format (n lines of n comma-separated reals).

    The file at ``path`` must hold ASCII bytes without the separators
    0x1c-0x1f; the error names the first refused byte's offset. "\\r\\n" and
    a lone "\\r" end a line, and trailing blank lines are dropped.
    ``np.loadtxt(delimiter=",", comments=None)`` alone decides what loads: it
    must read each line as one row. Else the error names the 1-based row and
    column of the first field it does not read as one number, or the first
    ragged row (NotSquare). The file's bytes are dropped once split, and
    np.loadtxt reads the bytes lines themselves, so the text is held once and
    never as a decoded copy: the loader peaks at about twice the file's size.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # np.loadtxt would strip the ASCII separators 0x1c-0x1f from a field's ends
    refused = [k for k in map(data.find, b"\x1c\x1d\x1e\x1f") if k >= 0]
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:  # its start is the first byte >= 0x80
            refused.append(exc.start)
    if refused:
        k = min(refused)
        what = "an ASCII separator" if data[k] < 0x80 else "not ASCII"
        raise MatrixFormatError(f"byte offset {k}: {data[k]:#04x} is {what}")
    lines = data.splitlines()
    del data
    # on ASCII without 0x1c-0x1f, bytes.strip and str.strip remove the same bytes
    while lines and lines[-1].strip() == b"":
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        raw = _loadtxt(lines)  # numpy reads ASCII bytes lines as their text
    except ValueError:
        raw = None
    if raw is None or raw.shape[0] != len(lines):  # loadtxt skips a blank line
        raise _refusal([line.decode() for line in lines])
    del lines
    return validate_channel(raw)


def dump_matrix_csv(matrix: ChannelMatrix, path=None) -> str:
    """Write the matrix in the shared CSV format at 17 significant digits.

    Returns the text; if a file ``path`` is given, also writes it there.
    """
    buf = io.StringIO()
    for row in matrix.entries:
        buf.write(",".join(format(v, ".17g") for v in row))
        buf.write("\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
