"""Reference capacities and the two competing published upper bounds.

One kernel scores an output pmf q: ``_dual`` takes U(q) = max_i D(A_i || q)
from the matrix's ``neg_entropies``, the -H(A_i) that ``validate_channel``
computes once. Every dual bound here, the closed form's and the grid
oracle's gap included, is ``_dual``. One evaluation, ``_evaluate``, scores
an input pmf p for the iterative solver and its Newton steps: q = A^T p,
then D at q, then the bracket described below at p.

The iterative solver is the classic alternating maximization: with
D_i = sum_j A_ij log2(A_ij / q_j) and q = A^T p, update
p_i <- p_i 2^(D_i) / sum_k p_k 2^(D_k). At every step

    sum_i p_i D_i  <=  C  <=  max_i D_i,

so the bracket width is a certified optimality gap; iteration stops once it
drops below the tolerance and the lower end is reported as the capacity.

When the optimal input is sparse, that update crawls: the unused inputs
decay only geometrically. So every 50 updates an active-set Newton solve of
the KKT system (D_i = C on the support S, sum_S p_i = 1) runs from the
current p. Its ratio test drops the input that would turn negative. Once
the spread of D on S is at most half of max(tol, gap), with gap the bracket
width above, the worst off-support input with D_i > I(p) joins S: the face
is solved only as far as the gap needs, not to the tolerance. An input that
joined while the spread was above tol/2 and that the next ratio test would
shrink at once leaves S again, and the next input then waits for a spread of
at most tol/2. A failed solve is discarded and the updates resume where they
were. Each Newton step counts as one iteration, and the stopping rule is
unchanged: the full-alphabet bracket above, so a wrong support guess can
cost time but can never certify a wrong capacity.

The solver can also start from a hint. The CLI passes the closed form's
p* = inv(A)^T q*, which solves the KKT system in closed form and is the
optimal input whenever it is a pmf; where it is not, clip(p*) still lies
close to the optimal support. The hint is clipped at 0 and renormalized. If
its bracket is already within the tolerance it is returned with 0
iterations; otherwise the Newton solve runs from it at once, its steps
counted like any other, and if that solve fails the iteration starts over
from uniform exactly as without a hint. Either way the reported capacity is
the lower end of a certified bracket at whichever input certified it, raised
to 0 if it rounds below (C >= 0 for every channel), with the gap shrunk by as
much so the bracket keeps its top.

Where A is refused as singular there is no p*; the CLI's sweep then passes
the same closed form computed with the pseudo-inverse pinv(A), which puts the
start close to the optimal support just the same. A matrix that inverts but
has a zero entry has no closed form, and its sweep point starts from uniform.

The grid oracle is an independent brute-force check for tiny alphabets: it
evaluates mutual information on the whole simplex lattice {k/resolution} and
reports the lattice maximum, with the same D-bracket evaluated at the
maximizer as its certified gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from numbers import Integral, Real

import numpy as np

from .errors import InvalidParameter, InvalidPmf, NotConverged, TooLarge
from .matrix import ChannelMatrix, _checked_pmf, _entropies

GRID_MAX_N = 4
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
NEWTON_EVERY = 50


@dataclass(frozen=True, eq=False)
class CapacityEstimate:
    capacity: float
    optimal_input: np.ndarray
    iterations: int
    gap: float


def _divergence_terms(matrix: ChannelMatrix, q: np.ndarray) -> np.ndarray:
    """D_i = D(A_i || q) = -H(A_i) - sum_j A_ij log2 q_j in bits; zero entries drop out.

    A row with A_ij > 0 at an output with q_j = 0 diverges: its D_i is +inf.
    """
    entries = matrix.entries
    if q.min() > 0.0:
        return matrix.neg_entropies - entries @ np.log2(q)
    unreached = q <= 0.0
    d = matrix.neg_entropies - entries @ np.log2(np.where(unreached, 1.0, q))
    d[(entries[:, unreached] > 0.0).any(axis=1)] = np.inf
    return d


def _dual(matrix: ChannelMatrix, q: np.ndarray) -> float:
    """U(q) = max_i D_i with no pmf check, for an output pmf built here (up to
    rounding)."""
    return float(_divergence_terms(matrix, q).max())


def dual_bound(matrix: ChannelMatrix, q) -> float:
    """U(q) = max_i D(A_i || q) in bits, an upper bound on capacity for every
    output pmf q (Chiang & Boyd, 2004); +inf where q misses an output that
    some row reaches. Raises InvalidPmf unless q is a pmf of length n."""
    return _dual(matrix, _checked_pmf(q, matrix.n))


def _evaluate(matrix: ChannelMatrix, p: np.ndarray) -> tuple:
    """(q, D, I(p), max_i D_i - I(p)) at the input pmf p, with q = A^T p and
    D_i = D(A_i || q); unused inputs carry no weight, even at D_i = inf.

    The gap is clamped at 0: a negative value is rounding, and the clamp only
    widens the bracket.
    """
    q = matrix.entries.T @ p
    d = _divergence_terms(matrix, q)
    used = p > 0.0
    lower = float(p[used] @ d[used])
    return q, d, lower, max(float(d.max()) - lower, 0.0)


def _newton_direction(
    entries: np.ndarray, p: np.ndarray, q: np.ndarray, d: np.ndarray, idx: np.ndarray
) -> np.ndarray | None:
    """Newton step dp on the face S = ``idx`` for D_S(A^T (p + dp)) = C, sum = 1.

    Solves [[M, 1], [1^T, 0]] [dp; C] = [D_S; 1 - sum p_S], where
    M = (A_S / q) A_S^T / ln 2 is minus the Jacobian of D_S and q = A^T p;
    outputs with q_j = 0 drop out. Returns None when the system is singular.
    """
    rows = entries[idx]
    if q.min() <= 0.0:
        reached = q > 0.0
        rows, q = rows[:, reached], q[reached]
    k = idx.size
    system = np.ones((k + 1, k + 1))
    system[:k, :k] = (rows / q) @ rows.T / np.log(2.0)
    system[k, k] = 0.0
    rhs = np.empty(k + 1)
    rhs[:k] = d[idx]
    rhs[k] = 1.0 - p[idx].sum()
    try:
        dp = np.linalg.solve(system, rhs)[:k]
    except np.linalg.LinAlgError:
        return None
    return dp if np.isfinite(dp).all() else None


def _newton_on_support(
    matrix: ChannelMatrix, p: np.ndarray, at_p: tuple, tol: float, budget: int
) -> tuple[tuple | None, int]:
    """Active-set Newton solve of the KKT system D_i = C (i in S), sum_S p_i = 1.

    ``at_p`` is ``_evaluate`` at ``p``, and S starts as the support of ``p``.
    Each step goes along the Newton direction as far as p >= 0 allows (ratio
    test), halving the step until I(p) does not drop; when the full ratio-test
    step is taken, the input it drives to zero leaves S. After any other step,
    once the spread of D on S is at most half of max(tol, gap), with gap the
    full-alphabet gap max_i D_i - I(p), the worst off-support input with
    D_i > I(p) joins S, so that the face is solved only as far as the gap
    needs before S grows again.

    An input that joined while the spread was above tol/2 retreats if the
    next ratio test would shrink it at once (t <= 0): it leaves S again, that
    step counts, and the next input joins only once the spread is at most
    tol/2. An input that joined at a spread of at most tol/2 and would shrink
    at once fails the solve.

    Returns ``(solved, steps)``: ``solved`` is ``(p, _evaluate at p)`` for a
    pmf p whose full-alphabet bracket is at most ``tol``, or None if a step
    failed or ``budget`` steps ran out.
    """
    q, d, lower, _ = at_p
    support = p > 0.0
    may_retreat = False  # the input that just joined did so at a spread above tol/2
    waiting = False  # after a retreat, the next input joins at a spread of at most tol/2
    for step in range(1, budget + 1):
        idx = support.nonzero()[0]
        dp = _newton_direction(matrix.entries, p, q, d, idx)
        if dp is None:
            return None, step
        p_face = p[idx]
        ratios = np.divide(p_face, -dp, out=np.full(idx.size, np.inf), where=dp < 0.0)
        leaving = int(ratios.argmin())
        t = min(1.0, float(ratios[leaving]))
        if t <= 0.0:  # the input that just joined S would shrink at once
            if not may_retreat:
                return None, step
            support[entering] = False
            may_retreat, waiting = False, True
            continue
        may_retreat = False
        blocked = t < 1.0
        while True:
            trial = p.copy()
            trial[idx] = np.maximum(p_face + t * dp, 0.0)
            if blocked:
                trial[idx[leaving]] = 0.0
            trial /= trial.sum()
            trial_q, trial_d, trial_lower, gap = _evaluate(matrix, trial)
            if trial_lower >= lower - 1e-15:
                break
            t *= 0.5
            blocked = False
            if t < 1e-12:
                return None, step
        p, q, d, lower = trial, trial_q, trial_d, trial_lower
        if gap <= tol:
            return (p, (q, d, lower, gap)), step
        support = p > 0.0
        face = d[support]
        spread = face.max() - face.min()
        if blocked or spread > 0.5 * (tol if waiting else max(tol, gap)):
            continue
        outside = np.where(support, -np.inf, d)
        entering = int(np.argmax(outside))
        if not (np.isfinite(outside[entering]) and outside[entering] > lower):
            return None, step
        support[entering] = True
        may_retreat, waiting = spread > 0.5 * tol, False
    return None, budget


def _estimate(lower: float, gap: float, p: np.ndarray, iterations: int) -> CapacityEstimate:
    """The bracket [lower, lower + gap] at p, its lower end raised to 0.

    C >= 0 for every channel, so a negative lower end (or -0.0) is rounding;
    the gap shrinks by the same amount, so the top of the bracket stays put.
    """
    if lower <= 0.0:
        lower, gap = 0.0, max(gap + lower, 0.0)
    return CapacityEstimate(lower, p, iterations, gap)


def _seed_pmf(start, n: int) -> np.ndarray | None:
    """clip(start, 0) renormalized, or None for no hint, a non-finite hint or
    one without positive mass. Raises InvalidPmf unless its shape is (n,)."""
    if start is None:
        return None
    hint = np.asarray(start, dtype=float)
    if hint.shape != (n,):
        raise InvalidPmf(f"start must have shape ({n},), got {hint.shape}")
    if not np.isfinite(hint).all():
        return None
    hint = np.maximum(hint, 0.0)
    total = hint.sum()
    return hint / total if 0.0 < total < np.inf else None


def blahut_arimoto(
    matrix: ChannelMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    start=None,
) -> CapacityEstimate:
    """Capacity via alternating maximization from the uniform input pmf.

    Every ``NEWTON_EVERY`` updates, an active-set Newton solve of at most
    n + ``NEWTON_EVERY`` steps runs from the current pmf; a failed solve is
    discarded. ``iterations`` counts updates and Newton steps alike. Raises
    NotConverged (carrying the running estimate) if the bracket gap stays
    above ``tol`` after ``max_iter`` iterations, and InvalidParameter unless
    ``tol`` is a positive finite real and ``max_iter`` is an integer of at least 0.

    ``start`` is an optional hint of shape (n,), such as the closed form's p*.
    Clipped at 0 and renormalized, it is returned at iteration 0 if its
    bracket is already within ``tol``; otherwise the Newton solve runs from
    it first, and if that fails the iteration starts over from uniform. A
    non-finite hint, or one without positive mass, is ignored.

    The capacity reported (here and on NotConverged) is never negative: a
    lower end below 0 is rounding, so it is reported as 0 and the gap shrinks
    by the same amount.
    """
    if not (isinstance(tol, Real) and 0.0 < tol < np.inf):
        raise InvalidParameter(f"tolerance must be positive and finite, got {tol!r}")
    if not isinstance(max_iter, Integral):
        raise InvalidParameter(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise InvalidParameter(f"max_iter must be at least 0, got {max_iter!r}")
    uniform = np.full(matrix.n, 1.0 / matrix.n)
    p = _seed_pmf(start, matrix.n)
    seeded = p is not None
    if not seeded:
        p = uniform
    iterations = 0
    since_newton = NEWTON_EVERY if seeded else 0
    at_p = _evaluate(matrix, p)
    while True:
        _, d, lower, gap = at_p
        if gap <= tol:
            return _estimate(lower, gap, p, iterations)
        if iterations >= max_iter:
            estimate = _estimate(lower, gap, p, iterations)
            raise NotConverged(iterations, estimate.gap, estimate)
        if since_newton == NEWTON_EVERY:
            since_newton = 0
            budget = min(max_iter - iterations, matrix.n + NEWTON_EVERY)
            solved, steps = _newton_on_support(matrix, p, at_p, tol, budget)
            iterations += steps
            if solved is not None:
                p, at_p = solved
            elif seeded:
                p = uniform
                at_p = _evaluate(matrix, p)
            seeded = False
            continue
        top = d[p > 0.0].max()
        w = p * np.exp2(np.minimum(d - top, 0.0))
        p = w / w.sum()
        at_p = _evaluate(matrix, p)
        iterations += 1
        since_newton += 1


def _simplex_lattice(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` >= 2 summing to
    ``total``, in lexicographic order: stars and bars, where the gaps between
    ``parts - 1`` bars among ``total + parts - 1`` slots are the parts."""
    slots = total + parts - 1
    bars = np.fromiter(
        chain.from_iterable(combinations(range(slots), parts - 1)), dtype=np.int64
    ).reshape(-1, parts - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def grid_oracle(matrix: ChannelMatrix, resolution: int) -> CapacityEstimate:
    """Exhaustive lattice search over input pmfs p = k/resolution, n <= 4.

    ``iterations`` reports the number of lattice points evaluated; ``gap`` is
    the certified bracket max_i D_i - I at the lattice maximizer, so the true
    capacity lies within [capacity, capacity + gap]. As in ``_evaluate``, the
    gap is clamped at 0: a negative value is rounding.
    """
    n = matrix.n
    if n > GRID_MAX_N:
        raise TooLarge(n, GRID_MAX_N)
    if not isinstance(resolution, Integral):
        raise InvalidParameter(f"resolution must be an integer, got {resolution!r}")
    if resolution < 10:
        raise InvalidParameter(f"resolution must be at least 10, got {resolution}")
    pmfs = _simplex_lattice(resolution, n).astype(float) / resolution
    q = pmfs @ matrix.entries
    mi = _entropies(q) + pmfs @ matrix.neg_entropies
    best = int(np.argmax(mi))
    gap = max(_dual(matrix, q[best]) - float(mi[best]), 0.0)
    return CapacityEstimate(float(mi[best]), pmfs[best], len(pmfs), gap)


def arimoto_upper_bound(matrix: ChannelMatrix) -> float:
    """U(colsum/n): the dual bound at the output pmf of the uniform input."""
    return _dual(matrix, matrix.entries.sum(axis=0) / matrix.n)


def boyd_chiang_upper_bound(matrix: ChannelMatrix, orientation: str = "column-max") -> float:
    """log2 of the sum of columnwise (default) or rowwise maxima.

    Both orientations are exposed because published uses disagree on which
    axis the maximum runs over; neither is declared canonical here.
    """
    if orientation == "column-max":
        return float(np.log2(matrix.entries.max(axis=0).sum()))
    if orientation == "row-max":
        return float(np.log2(matrix.entries.max(axis=1).sum()))
    raise InvalidParameter(f"unknown orientation {orientation!r}")
