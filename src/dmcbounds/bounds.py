"""Closed-form capacity upper bound and its exactness conditions.

For an invertible channel matrix A, stationarity of the mutual information
in the output distribution q gives a closed form (Muroga, 1953): with
K_j = sum_i inv(A)[j][i] * H(A_i) (row entropies propagated through the
inverse), the optimizing output pmf is

    q*_j = 2^(-K_j) / sum_i 2^(-K_i),

the matching input is p* = inv(A)^T q* (rows of inv(A) sum to 1, so p* sums
to 1 but may go negative), and the bound is the dual value at q*,

    C <= U(q*) = max_i D(A_i || q*),

taken by ``reference._dual``, the package's one U(q) kernel. U(q) bounds C
for every output pmf q, so U(q*) is valid for whatever q* the computed
inverse produced, and it is +inf where q* underflows to 0 at some output. In
exact arithmetic every D(A_i || q*) equals log2 sum_j 2^(-K_j).

Where A is too close to singular to invert, the same formula with the
Moore-Penrose pseudo-inverse pinv(A) in place of inv(A) still gives an input
near the optimum (``_pseudo_inverse_input``). It is only a start point for
the iterative solver, never a bound.

When p* is a valid pmf the bound is the capacity. ``capacity_upper_bound``
decides once whether A meets the hypothesis of the four sufficient conditions
that certify this (A strictly positive and strictly diagonally dominant), and
reports each as a tri-state, so "hypothesis violated" stays distinguishable
from "inequality fails". From sharpest to cheapest to evaluate:

- feasibility condition: every column ratio of inv(A)^T dominates
  (n-1) * 2^(K_max - K_min), which forces p* >= 0 directly;
- spectral condition: (1/V) * log2((c_min-1)/(n-1)^2) >= n * H_max/sigma_min
  with V = c_min/(c_min-1);
- coarse condition: log2((c_min-1)/(n-1)^2) >= 2n * log2(n)/sigma_min, the
  spectral test with H_max replaced by log2(n) and 1/V dropped;
- Gershgorin condition: the spectral test with the surrogates
  sigma* = (c_min - n/2)/(c_min + 1) <= sigma_min and
  H*_max = log2(c_min+1) + (log2(n-1) - c_min*log2(c_min))/(c_min+1) >= H_max,
  which need only c_min; it needs sigma* > 0 as well.

Every inequality is evaluated in the log2 domain; the raw powers overflow
doubles for modest n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .matrix import ChannelMatrix, InverseAnalysis, analyze_inverse
from .matrix import _dominance_ratios, _gershgorin_radii
from .reference import _dual

FEASIBILITY_TOL = -1e-10


class Condition(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    PRECONDITION_NOT_MET = "precondition-not-met"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False, kw_only=True)
class BoundReport:
    """Closed-form bound value plus every exactness diagnostic.

    The four conditions are PRECONDITION_NOT_MET, and sigma_star, h_max_star
    and root_exponent NaN, when the matrix is not strictly diagonally
    dominant positive (the conditions and surrogates assume it).
    """

    inverse_entropies: np.ndarray
    q_star: np.ndarray
    p_star: np.ndarray
    upper_bound: float
    p_star_feasible: bool
    feasibility_condition: Condition = Condition.PRECONDITION_NOT_MET
    spectral_condition: Condition = Condition.PRECONDITION_NOT_MET
    coarse_condition: Condition = Condition.PRECONDITION_NOT_MET
    gershgorin_condition: Condition = Condition.PRECONDITION_NOT_MET
    sigma_star: float = math.nan
    h_max_star: float = math.nan
    root_exponent: float = math.nan
    analysis: InverseAnalysis


def _kkt_closed_form(
    inverse: np.ndarray, matrix: ChannelMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, q*, p*) of the KKT closed form from an inverse of A and A's row
    entropies H: K = inverse @ H, q* = softmax(-K), p* = inverse^T q*.
    Shifting K by K_min keeps the powers in range and leaves the ratio as it is."""
    k = inverse @ -matrix.neg_entropies
    w = np.exp2(-(k - k.min()))
    q_star = w / w.sum()
    return k, q_star, inverse.T @ q_star


def _pseudo_inverse_input(matrix: ChannelMatrix) -> np.ndarray | None:
    """The closed form's input with pinv(A) in place of inv(A).

    A start hint for ``blahut_arimoto`` where A is refused as singular: it
    need not be a pmf and bounds nothing. None when the SVD inside
    ``np.linalg.pinv`` does not converge.
    """
    try:
        pinv = np.linalg.pinv(matrix.entries)
    except np.linalg.LinAlgError:
        return None
    return _kkt_closed_form(pinv, matrix)[2]


def _verdict(ok: bool) -> Condition:
    return Condition.HOLDS if ok else Condition.FAILS


def _exactness_ladder(n: int, analysis: InverseAnalysis, k: np.ndarray) -> dict:
    """The four conditions, sigma*, H*_max and V = c_min/(c_min-1), keyed by
    their ``BoundReport`` field names.

    Their hypothesis is A strictly positive and strictly diagonally dominant.
    It forces 1 < c_min, since dominance gives A_ii - off_i > 1e-12 with
    off_i <= 1, and positivity off_i > 0. That keeps c_min finite, except
    where every off_i is below about 5.6e-309: there A_ii / off_i overflows
    and c_min is +inf, so A is the identity to the last bit, and the ladder
    takes the limits V = 1, sigma* = 1 and H*_max = 0. Without the hypothesis
    the ladder decides nothing, and every field keeps its ``BoundReport``
    default. Feasibility takes inv(A)'s columns as ``_gershgorin_radii`` takes A's rows.
    """
    if not (analysis.is_positive and analysis.is_sdd):
        return {}
    c, sigma_min = analysis.c_min, analysis.sigma_min
    inverse = analysis.inverse  # a signed diagonal over the rows of |inv(A)|^T
    ratios = _dominance_ratios(np.diag(inverse), _gershgorin_radii(np.abs(inverse).T)[1])
    rhs = math.log2(n - 1) + float(k.max() - k.min())
    feasible = all(math.isinf(r) or (r > 0 and math.log2(r) >= rhs) for r in ratios)
    if math.isinf(c):  # each formula below is inf/inf there
        v, sigma_star, h_max_star = 1.0, 1.0, 0.0
    else:
        v = c / (c - 1.0)
        sigma_star = (c - n / 2.0) / (c + 1.0)
        h_max_star = math.log2(c + 1.0) + (math.log2(n - 1) - c * math.log2(c)) / (c + 1.0)
    log_ratio = math.log2((c - 1.0) / (n - 1) ** 2)
    lhs = (1.0 / v) * log_ratio
    if sigma_star <= 0.0:
        gershgorin = Condition.PRECONDITION_NOT_MET
    else:
        gershgorin = _verdict(lhs >= n * h_max_star / sigma_star)
    return dict(
        feasibility_condition=_verdict(feasible),
        spectral_condition=_verdict(lhs >= n * analysis.h_max / sigma_min),
        coarse_condition=_verdict(log_ratio >= 2.0 * n * math.log2(n) / sigma_min),
        gershgorin_condition=gershgorin,
        sigma_star=sigma_star,
        h_max_star=h_max_star,
        root_exponent=v,
    )


def capacity_upper_bound(matrix: ChannelMatrix) -> BoundReport:
    """Full closed-form report for an invertible channel matrix; zero
    entries are allowed, and only the exactness conditions need A positive.

    The bound U(q*) = max_i D(A_i || q*) is reported even when p* is
    infeasible (it stays a valid upper bound; the flag records feasibility).
    """
    analysis = analyze_inverse(matrix)
    k, q_star, p_star = _kkt_closed_form(analysis.inverse, matrix)
    return BoundReport(
        inverse_entropies=k,
        q_star=q_star,
        p_star=p_star,
        upper_bound=_dual(matrix, q_star),
        p_star_feasible=bool((p_star >= FEASIBILITY_TOL).all()),
        analysis=analysis,
        **_exactness_ladder(matrix.n, analysis, k),
    )
