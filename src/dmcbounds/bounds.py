"""Closed-form capacity upper bound and its exactness conditions.

For an invertible positive channel matrix A, stationarity of the mutual
information in the output distribution q gives a closed form: with
K_j = sum_i inv(A)[j][i] * H(A_i) (row entropies propagated through the
inverse), the optimizing output pmf is

    q*_j = 2^(-K_j) / sum_i 2^(-K_i),

the matching input is p* = inv(A)^T q* (rows of inv(A) sum to 1, so p* sums
to 1 but may go negative), and the bound is the dual value at q*,

    C <= U(q*) = max_i D(A_i || q*).

U(q) bounds C for every output pmf q, so U(q*) is valid for whatever q* the
computed inverse produced, and it is +inf where q* underflows to 0 at some
output. In exact arithmetic every D(A_i || q*) equals log2 sum_j 2^(-K_j).

Where A is too close to singular to invert, the same formula with the
Moore-Penrose pseudo-inverse pinv(A) in place of inv(A) still gives an input
near the optimum (``pseudo_inverse_input``). It is only a start point for the
iterative solver, never a bound.

When p* is a valid pmf the bound is the capacity. Four sufficient conditions
certify that, ordered from sharpest to cheapest to evaluate:

- feasibility condition: every column ratio of inv(A)^T dominates
  (n-1) * 2^(K_max - K_min), which forces p* >= 0 directly;
- spectral condition: a test on c_min, sigma_min and H_max alone;
- coarse condition: the spectral test with H_max replaced by log2(n) and the
  c_min/(c_min-1) root exponent dropped;
- Gershgorin condition: the spectral test with sigma_min and H_max replaced
  by surrogates computed from c_min only (sigma* lower-bounds sigma_min,
  H*_max upper-bounds H_max).

Every inequality is evaluated in the log2 domain; the raw powers overflow
doubles for modest n. Checks return a tri-state so "hypothesis violated"
(not strictly diagonally dominant positive) stays distinguishable from
"inequality fails".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositive, PreconditionNotMet
from .matrix import ChannelMatrix, InverseAnalysis, analyze_inverse, row_entropies
from .reference import _divergence_terms

FEASIBILITY_TOL = -1e-10


class Condition(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    PRECONDITION_NOT_MET = "precondition-not-met"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Closed-form bound value plus every exactness diagnostic.

    sigma_star, h_max_star and root_exponent are NaN when the matrix is not
    strictly diagonally dominant positive (the surrogates assume it).
    """

    inverse_entropies: np.ndarray
    q_star: np.ndarray
    p_star: np.ndarray
    upper_bound: float
    p_star_feasible: bool
    feasibility_condition: Condition
    spectral_condition: Condition
    coarse_condition: Condition
    gershgorin_condition: Condition
    sigma_star: float
    h_max_star: float
    root_exponent: float
    analysis: InverseAnalysis

    @property
    def n(self) -> int:
        return len(self.q_star)


def inverse_row_entropies(matrix: ChannelMatrix, analysis: InverseAnalysis) -> np.ndarray:
    """K_j = sum_i inv(A)[j][i] * H(A_i), in bits. Requires a positive matrix."""
    if not analysis.is_positive:
        raise NotPositive("inverse row entropies require a strictly positive matrix")
    return analysis.inverse @ analysis.row_entropies


def optimal_output_distribution(k: np.ndarray) -> np.ndarray:
    """Softmax of -K. Shifting by K_min first keeps the powers in range;
    the ratio is invariant under adding any constant to K."""
    k = np.asarray(k, dtype=float)
    w = np.exp2(-(k - k.min()))
    return w / w.sum()


def _kkt_closed_form(
    inverse: np.ndarray, entropies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, q*, p*) of the KKT closed form from an inverse of A and A's row
    entropies: K = inverse @ H, q* = softmax(-K), p* = inverse^T q*."""
    k = inverse @ entropies
    q_star = optimal_output_distribution(k)
    return k, q_star, inverse.T @ q_star


def pseudo_inverse_input(matrix: ChannelMatrix) -> np.ndarray | None:
    """The closed form's input with pinv(A) in place of inv(A).

    A start hint for ``blahut_arimoto`` where A is refused as singular: it
    need not be a pmf and bounds nothing. None when the SVD inside
    ``np.linalg.pinv`` does not converge.
    """
    try:
        pinv = np.linalg.pinv(matrix.entries)
    except np.linalg.LinAlgError:
        return None
    return _kkt_closed_form(pinv, row_entropies(matrix)[0])[2]


def _dominant_positive(analysis: InverseAnalysis) -> bool:
    """The hypothesis of every sufficient condition: A strictly positive and
    strictly diagonally dominant. It forces 1 < c_min < inf, since dominance
    gives A_ii - off_i > 1e-12 with off_i <= 1, and positivity off_i > 0."""
    return analysis.is_positive and analysis.is_sdd


def _spectral_lhs(n: int, c: float) -> tuple[float, float]:
    """((1/V)*log2((c-1)/(n-1)^2), V) with V = c/(c-1): the left-hand side
    the spectral and Gershgorin tests share."""
    v = c / (c - 1.0)
    return (1.0 / v) * math.log2((c - 1.0) / (n - 1) ** 2), v


def _inverse_column_ratios(inverse: np.ndarray) -> np.ndarray:
    """Diagonal of inv(A) over the absolute off-diagonal column sums."""
    n = inverse.shape[0]
    diag = np.diag(inverse)
    col_off = np.abs(inverse).sum(axis=0) - np.abs(diag)
    with np.errstate(divide="ignore"):
        return np.where(col_off > 0.0, diag / np.where(col_off > 0.0, col_off, 1.0), np.inf)


def check_feasibility_condition(
    matrix: ChannelMatrix, analysis: InverseAnalysis, k: np.ndarray
) -> Condition:
    """Holds when every inverse column ratio is at least (n-1)*2^(K_max-K_min),
    which certifies p* >= 0 entrywise."""
    if not _dominant_positive(analysis):
        return Condition.PRECONDITION_NOT_MET
    n = matrix.n
    spread = float(k.max() - k.min())
    ratios = _inverse_column_ratios(analysis.inverse)
    rhs = math.log2(n - 1) + spread
    ok = all(math.isinf(r) or (r > 0 and math.log2(r) >= rhs) for r in ratios)
    return Condition.HOLDS if ok else Condition.FAILS


def check_spectral_condition(
    matrix: ChannelMatrix, analysis: InverseAnalysis
) -> tuple[Condition, float]:
    """Test (1/V)*log2((c_min-1)/(n-1)^2) >= n*H_max/sigma_min with
    V = c_min/(c_min-1). Returns the tri-state and V (NaN if unavailable)."""
    if not _dominant_positive(analysis):
        return Condition.PRECONDITION_NOT_MET, math.nan
    lhs, v = _spectral_lhs(matrix.n, analysis.c_min)
    rhs = matrix.n * analysis.h_max / analysis.sigma_min
    return (Condition.HOLDS if lhs >= rhs else Condition.FAILS), v


def check_coarse_condition(matrix: ChannelMatrix, analysis: InverseAnalysis) -> Condition:
    """Cruder variant: log2((c_min-1)/(n-1)^2) >= 2*n*log2(n)/sigma_min."""
    if not _dominant_positive(analysis):
        return Condition.PRECONDITION_NOT_MET
    n = matrix.n
    lhs = math.log2((analysis.c_min - 1.0) / (n - 1) ** 2)
    rhs = 2.0 * n * math.log2(n) / analysis.sigma_min
    return Condition.HOLDS if lhs >= rhs else Condition.FAILS


def spectral_surrogates(
    matrix: ChannelMatrix, analysis: InverseAnalysis
) -> tuple[float, float]:
    """sigma* = (c_min - n/2)/(c_min + 1), a lower bound on sigma_min, and
    H*_max = log2(c_min+1) + (log2(n-1) - c_min*log2(c_min))/(c_min+1), an
    upper bound on H_max. Requires a strictly diagonally dominant positive
    matrix (which forces c_min finite)."""
    if not _dominant_positive(analysis):
        raise PreconditionNotMet(
            "surrogates require a strictly diagonally dominant positive matrix"
        )
    n = matrix.n
    c = analysis.c_min
    sigma_star = (c - n / 2.0) / (c + 1.0)
    h_max_star = math.log2(c + 1.0) + (math.log2(n - 1) - c * math.log2(c)) / (c + 1.0)
    return sigma_star, h_max_star


def check_gershgorin_condition(
    matrix: ChannelMatrix, analysis: InverseAnalysis
) -> Condition:
    """The spectral test with sigma*/H*_max substituted, so it needs only
    c_min. Requires sigma* > 0, i.e. c_min > n/2."""
    if not _dominant_positive(analysis):
        return Condition.PRECONDITION_NOT_MET
    sigma_star, h_max_star = spectral_surrogates(matrix, analysis)
    if sigma_star <= 0.0:
        return Condition.PRECONDITION_NOT_MET
    lhs, _ = _spectral_lhs(matrix.n, analysis.c_min)
    rhs = matrix.n * h_max_star / sigma_star
    return Condition.HOLDS if lhs >= rhs else Condition.FAILS


def capacity_upper_bound(
    matrix: ChannelMatrix, analysis: InverseAnalysis | None = None
) -> BoundReport:
    """Full closed-form report for an invertible positive channel matrix.

    The bound U(q*) = max_i D(A_i || q*) is reported even when p* is
    infeasible (it stays a valid upper bound; the flag records feasibility).
    """
    if analysis is None:
        analysis = analyze_inverse(matrix)
    if not analysis.is_positive:
        raise NotPositive("the closed-form bound requires a strictly positive matrix")
    k, q_star, p_star = _kkt_closed_form(analysis.inverse, analysis.row_entropies)
    upper = float(_divergence_terms(matrix.entries, -analysis.row_entropies, q_star).max())
    spectral, v = check_spectral_condition(matrix, analysis)
    if _dominant_positive(analysis):
        sigma_star, h_max_star = spectral_surrogates(matrix, analysis)
    else:
        sigma_star, h_max_star = math.nan, math.nan
    return BoundReport(
        inverse_entropies=k,
        q_star=q_star,
        p_star=p_star,
        upper_bound=upper,
        p_star_feasible=bool((p_star >= FEASIBILITY_TOL).all()),
        feasibility_condition=check_feasibility_condition(matrix, analysis, k),
        spectral_condition=spectral,
        coarse_condition=check_coarse_condition(matrix, analysis),
        gershgorin_condition=check_gershgorin_condition(matrix, analysis),
        sigma_star=sigma_star,
        h_max_star=h_max_star,
        root_exponent=v,
        analysis=analysis,
    )
