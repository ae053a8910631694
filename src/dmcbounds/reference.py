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
decay only geometrically. So every run opens with an active-set Newton
solve of the KKT system (D_i = C on the support S, sum_S p_i = 1) from its
start, and after a failed solve another runs every 50 updates. Each step
tries one point: the full Newton point or, where the ratio test blocks the
step, the end of its walk on the face's quadratic model, the classic primal
active-set walk, whose breakpoints take inputs out of S. Where a step would
fail because the rows of A on S are linearly dependent, S is reduced
instead: some optimal input has at most rank(A) mass points with
independent rows (Caratheodory; Gallager 1968, section 4.5), and a move of
p along a null vector u of those rows (u^T A_S = 0) keeps q, so p moves
that way, without lowering I(p), until inputs leave and the rows are
independent. Only a failing step pays for that check. After every step,
once D is level on S to within half the gap, with gap the bracket width
above, the worst off-support input joins S: the face is solved only as far
as the gap needs, not to the tolerance. I(p) averages D over S, so the
largest D_i then lies off S, and the solve fails there only when it is
+inf. A failed solve is discarded and the updates resume where they were.
Each Newton step, a face reduction included, counts as one iteration, and
the stopping rule is unchanged: the full-alphabet bracket above, so a wrong
support guess can cost time but can never certify a wrong capacity.

The solver can also start from a hint. The CLI passes the closed form's
p* = inv(A)^T q*, which solves the KKT system in closed form and is the
optimal input whenever it is a pmf; where it is not, clip(p*) still lies
close to the optimal support. The hint is clipped at 0 and renormalized. If
its bracket is already within the tolerance it is returned with 0
iterations; otherwise the Newton solve runs from it, its steps counted
like any other, and if that solve fails the run starts over from uniform
exactly as without a hint. Either way the reported capacity is the lower end
of a certified bracket at whichever input certified it, raised to 0 if it
rounds below (C >= 0 for every channel), with the gap shrunk by as much so
the bracket keeps its top.

Where A is refused as singular there is no p*; the CLI's sweep then passes
the same closed form computed with the pseudo-inverse pinv(A), which puts the
start close to the optimal support just the same. It saves linear solves:
from uniform, the first walk pins most inputs at one solve each.

The grid oracle is an independent brute-force check for tiny alphabets: it
evaluates mutual information on the whole simplex lattice {k/resolution} and
reports the lattice maximum, with the same D-bracket evaluated at the
maximizer as its certified gap.

The Newton loop works on vectors of at most n entries, where a numpy call
costs more than its arithmetic. So a reduction whose result does not depend
on the order it runs in (a minimum, a maximum, the first maximizer, "all
finite", a comparison) runs in Python on the vector's ``tolist()``, with the
same result bit for bit. Python's min and max treat NaN differently, but q
comes from a finite pmf and D is finite or +inf, so none is NaN. Sums, dot
products and products stay in numpy, whose pairwise summation fixes their
last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import InvalidParameter, NotConverged
from .matrix import ChannelMatrix, _checked_pmf, _entropies, _float_vector
from .matrix import _is_integer, _is_real, _shown

GRID_MAX_N = 4
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
NEWTON_EVERY = 50
RANK_TOL = 1e-9
LN2 = math.log(2.0)
TINY = np.finfo(float).tiny


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
    if min(q.tolist()) > 0.0:
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
    return q, d, lower, max(max(d.tolist()) - lower, 0.0)


def _solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The solution of the bordered ``system`` x = ``rhs`` less its last entry
    (the multiplier), or None when the system is singular or the rest is not finite."""
    try:
        x = np.linalg.solve(system, rhs)[:-1]
    except np.linalg.LinAlgError:
        return None
    return x if all(map(math.isfinite, x.tolist())) else None


def _ratio_step(
    x: np.ndarray, dx: np.ndarray, limit: float = 1.0
) -> tuple[np.ndarray, int | None]:
    """``(y, i)``: y = x + t dx clipped at 0, for the largest t <= ``limit``
    with x + t dx >= 0. If t < ``limit``, the input i bounds it (the first
    smallest ratio x_i / -dx_i) and y_i = 0; otherwise i is None.

    The vectors have at most n entries, so a plain loop over their values
    beats the handful of numpy calls a vectorized ratio test takes.
    """
    t, i = limit, None
    for j, (xj, dj) in enumerate(zip(x.tolist(), dx.tolist())):
        if dj < 0.0 and xj / -dj < t:
            t, i = xj / -dj, j
    y = np.maximum(x + t * dx, 0.0)
    if i is not None:
        y[i] = 0.0
    return y, i


def _newton_point(
    entries: np.ndarray, p: np.ndarray, q: np.ndarray, d: np.ndarray, idx: np.ndarray
) -> np.ndarray | None:
    """The new p_S that a Newton step on the face S = ``idx`` tries, or None
    when its system is singular.

    The step dp solves D_S(A^T (p + dp)) = C, sum = 1, linearized:
    [[M, 1], [1^T, 0]] [dp; C] = [D_S; 1 - sum p_S], where
    M = (A_S / q) A_S^T / ln 2 is minus the Jacobian of D_S and q = A^T p;
    outputs with q_j = 0 drop out, and M stays exact: q_j >= p_i A_ij, and
    an entering row (p_i = 0) that reached output j would have D_i = inf.
    A step that the ratio test does not block tries the full Newton point; a
    blocked one walks on the face's quadratic model D_lin(x) = D_S - M (x - p_S).
    Its solution y on a face F (D_lin(y) = C on F, sum y = 1, y = 0 off F)
    solves the same bordered system for [D_S + M p_S; 1], with an identity
    row and column pinning each input off F to 0. From the step's
    breakpoint, where the blocking input leaves F, each piece runs toward the
    solution on the smaller face, ratio-tested, and the end of the first
    piece that is not blocked is the point.
    """
    rows = entries.take(idx, axis=0)
    if min(q.tolist()) <= 0.0:
        reached = q > 0.0
        rows, q = rows[:, reached], q[reached]
    k = idx.size
    p_face = p.take(idx)
    system = np.empty((k + 1, k + 1))
    system[:k, :k] = (rows / q) @ rows.T / LN2
    system[k, :k] = system[:k, k] = 1.0
    system[k, k] = 0.0
    rhs = np.empty(k + 1)
    d.take(idx, out=rhs[:k])
    rhs[k] = 1.0 - p_face.sum()
    dp = _solve(system, rhs)
    if dp is None:
        return None
    x, leaving = _ratio_step(p_face, dp)
    if leaving is None:
        return x
    rhs[:k] += system[:k, :k] @ p_face  # D_S + M p_S
    rhs[k] = 1.0
    while leaving is not None:
        system[leaving] = 0.0
        system[:, leaving] = 0.0
        system[leaving, leaving] = 1.0
        rhs[leaving] = 0.0
        y = _solve(system, rhs)
        if y is None:
            return None
        # a pinned input's row is e_l with right-hand side 0, so y_l is +-0
        # and the input stays at 0
        x, leaving = _ratio_step(x, y - x)
    return x


def _reduced_face(
    matrix: ChannelMatrix, p: np.ndarray, at_p: tuple, support: np.ndarray
) -> tuple | None:
    """``(p, _evaluate at p, S)`` with the face S = ``support`` shrunk until
    its rows are linearly independent, or None if they already are or an SVD
    fails to converge; None fails the step.

    Rank and null vector come from the SVD of A_S on the outputs with
    q_j > 0; the rank counts the singular values above ``RANK_TOL`` times the
    largest. With u the last left singular vector, u^T A_S = 0, so moving p_S
    along u keeps q, and keeps sum p because every row sums to 1 (so sum u =
    0 and some u_i < 0). Oriented so that sum u_i D_i >= 0, the move does not
    lower I(p) = sum p_i D_i. It runs until the first input reaches 0, which
    then leaves S; an input already at 0 (one that has just joined) leaves
    without a move. Each move that changes p is evaluated again.
    """
    entries = matrix.entries
    p, support = p.copy(), support.copy()
    reduced = False
    while True:
        q, d = at_p[0], at_p[1]
        idx = support.nonzero()[0]
        try:
            u, sigma, _ = np.linalg.svd(entries[idx][:, q > 0.0], full_matrices=True)
        except np.linalg.LinAlgError:
            return None
        if (sigma > RANK_TOL * sigma[0]).sum() == idx.size:
            return (p, at_p, support) if reduced else None
        reduced = True
        w = u[:, -1] if u[:, -1] @ d[idx] >= 0.0 else -u[:, -1]
        face, i = _ratio_step(p[idx], w, np.inf)
        leaving = idx[i]
        support[leaving] = False
        if p[leaving] > 0.0:
            p[idx] = face
            p /= p.sum()
            at_p = _evaluate(matrix, p)


def _newton_on_support(
    matrix: ChannelMatrix, p: np.ndarray, at_p: tuple, tol: float, budget: int
) -> tuple[tuple | None, int]:
    """Active-set Newton solve of the KKT system D_i = C (i in S), sum_S p_i = 1.

    ``at_p`` is ``_evaluate`` at ``p``, and S starts as the support of ``p``.
    Each step evaluates the point of ``_newton_point`` once and takes it if
    it does not lower I(p) or its bracket is within ``tol``. Inputs leave S
    at the breakpoints of a blocked step's walk (t < 1), one per breakpoint;
    an input that has just joined S and would shrink at once (t = 0) leaves
    by the walk, which then solves the old face from p.

    A step that has no point or refuses it fails unless the rows of S are
    linearly dependent. Then some optimal input needs fewer of them
    (Caratheodory), and ``_reduced_face`` shrinks S without moving q until
    they are independent; that reduction is the step. Where the rows are
    independent, the step fails and so does the solve. No step that succeeds
    pays for the rank check.

    After every step, a reduction included, once the spread of D on S is at
    most half the full-alphabet gap max_i D_i - I(p), the worst off-support
    input joins S, so that the face is solved only as far as the gap needs
    before S grows again. I(p) is an average of D over inputs in S, so with
    the gap above ``tol`` the largest D_i then lies off S; the solve fails
    there only when that D_i is +inf (its row reaches an output that S
    leaves at q_j = 0). Each step, reduction included, counts once.

    Returns ``(solved, steps)``: ``solved`` is ``(p, _evaluate at p)`` for a
    pmf p whose full-alphabet bracket is at most ``tol``, or None if a step
    failed or ``budget`` steps ran out.
    """
    support = p > 0.0
    for step in range(1, budget + 1):
        q, d, lower, _ = at_p
        idx = support.nonzero()[0]
        point = _newton_point(matrix.entries, p, q, d, idx)
        if point is not None:
            trial = p.copy()
            trial[idx] = point
            trial /= trial.sum()
            at_trial = _evaluate(matrix, trial)
            if at_trial[2] >= lower - 1e-15 or at_trial[3] <= tol:
                p, at_p, support = trial, at_trial, trial > 0.0
            else:
                point = None
        if point is None:
            reduced = _reduced_face(matrix, p, at_p, support)
            if reduced is None:
                return None, step
            p, at_p, support = reduced
        _, d, _, gap = at_p
        if gap <= tol:
            return (p, at_p), step
        face = d[support].tolist()
        if max(face) - min(face) > 0.5 * gap:
            continue
        outside = np.where(support, -np.inf, d).tolist()
        top = max(outside)
        if not math.isfinite(top):
            return None, step
        support[outside.index(top)] = True
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
    one without positive mass. Raises InvalidPmf unless it is numeric of shape (n,)."""
    if start is None:
        return None
    hint = _float_vector(start, n, "start")
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

    The run opens with an active-set Newton solve of at most
    n + ``NEWTON_EVERY`` steps; a failed solve is discarded, and another runs
    from the current pmf after every ``NEWTON_EVERY`` updates.
    ``iterations`` counts updates and Newton steps alike. Raises
    NotConverged (carrying the running estimate) if the bracket gap stays
    above ``tol`` after ``max_iter`` iterations, and InvalidParameter unless
    ``tol`` is a positive finite real and ``max_iter`` is an integer of at least 0.

    ``start`` is an optional hint of shape (n,), such as the closed form's p*.
    Clipped at 0 and renormalized, it is returned at iteration 0 if its
    bracket is already within ``tol``; otherwise the Newton solve runs from
    it, and if that fails the run starts over from uniform as an unseeded
    run, opening with its solve. A non-finite hint, or one without positive
    mass, is ignored.

    The capacity reported (here and on NotConverged) is never negative: a
    lower end below 0 is rounding, so it is reported as 0 and the gap shrinks
    by the same amount.
    """
    if not (_is_real(tol) and 0.0 < tol < np.inf):
        raise InvalidParameter(f"tolerance must be positive and finite, got {_shown(tol)}")
    if not _is_integer(max_iter):
        raise InvalidParameter(f"max_iter must be an integer, got {_shown(max_iter)}")
    if max_iter < 0:
        raise InvalidParameter(f"max_iter must be at least 0, got {_shown(max_iter)}")
    uniform = np.full(matrix.n, 1.0 / matrix.n)
    p = _seed_pmf(start, matrix.n)
    seeded = p is not None
    if not seeded:
        p = uniform
    entries = matrix.entries
    row_min = entries.min(axis=1, initial=1.0, where=entries > 0.0)  # least positive A_ij
    iterations = 0
    since_newton = NEWTON_EVERY
    at_p = _evaluate(matrix, p)
    while True:
        _, d, lower, gap = at_p
        if gap <= tol:
            return _estimate(lower, gap, p, iterations)
        if iterations >= max_iter:
            raise NotConverged(_estimate(lower, gap, p, iterations))
        if since_newton == NEWTON_EVERY:
            since_newton = 0
            budget = min(max_iter - iterations, matrix.n + NEWTON_EVERY)
            solved, steps = _newton_on_support(matrix, p, at_p, tol, budget)
            iterations += steps
            if solved is not None:
                p, at_p = solved
            elif seeded:
                p, at_p = uniform, _evaluate(matrix, uniform)
                since_newton = NEWTON_EVERY
            seeded = False
            continue
        top = d[p > 0.0].max()
        w = p * np.exp2(np.minimum(d - top, 0.0))
        p = w / w.sum()
        # drop every mass whose product with a positive entry of its row is
        # below the smallest normal double: each output a used input reaches
        # keeps q_j >= TINY, so no used input's D_i is +inf (an underflowed
        # q_j) and no A_kj / q_j of the next Newton system overflows
        p[p * row_min < TINY] = 0.0
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
        raise InvalidParameter(f"alphabet size {n} exceeds limit {GRID_MAX_N}")
    if not _is_integer(resolution):
        raise InvalidParameter(f"resolution must be an integer, got {_shown(resolution)}")
    if resolution < 10:
        raise InvalidParameter(f"resolution must be at least 10, got {_shown(resolution)}")
    pmfs = _simplex_lattice(resolution, n).astype(float) / resolution
    q = pmfs @ matrix.entries
    mi = _entropies(q) + pmfs @ matrix.neg_entropies
    best = int(np.argmax(mi))
    gap = max(_dual(matrix, q[best]) - float(mi[best]), 0.0)
    return CapacityEstimate(float(mi[best]), pmfs[best], len(pmfs), gap)


def arimoto_upper_bound(matrix: ChannelMatrix) -> float:
    """U(colsum/n): the dual bound at the output pmf of the uniform input."""
    return _dual(matrix, matrix.entries.sum(axis=0) / matrix.n)


def boyd_chiang_upper_bound(matrix: ChannelMatrix) -> float:
    """log2 sum_j max_i A_ij, the bound of Chiang & Boyd (IEEE Trans. IT 50(2),
    2004): the dual bound at q_j proportional to max_i A_ij, where every
    D(A_i || q) is at most log2 of that sum."""
    return float(np.log2(matrix.entries.max(axis=0).sum()))
