import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcbounds import (
    InvalidParameter,
    InvalidPmf,
    NotConverged,
    NumericError,
    SingularMatrix,
    analyze_inverse,
    arimoto_upper_bound,
    blahut_arimoto,
    boyd_chiang_upper_bound,
    build_family,
    capacity_upper_bound,
    dual_bound,
    fixed_example,
    grid_oracle,
    random_sdd_positive,
    validate_channel,
)
from dmcbounds.bounds import _pseudo_inverse_input
from dmcbounds.families import relay_miso
from dmcbounds.reference import NEWTON_EVERY, _evaluate, _newton_on_support, _reduced_face, _solve
from conftest import (
    CORPUS_SWEEPS,
    build_key,
    cli_grid,
    corpus_matrices,
    divergences_by_loops,
    entropy2,
    recorded_build,
    spy,
)


def certified_bracket(matrix, p):
    """Independent (I(p), max_i D_i - I(p)) over the whole input alphabet."""
    d = divergences_by_loops(matrix, matrix.entries.T @ p)
    lower = float(sum(pi * di for pi, di in zip(p, d) if pi > 0.0))
    return lower, float(d.max()) - lower


def rank_two_channel():
    """4x4 channel of rank 2: the optimal input is not unique, so the Newton
    system on the full support is singular and the face is reduced."""
    rows = np.array([[0.6, 0.2, 0.1, 0.1], [0.1, 0.1, 0.3, 0.5]])
    mix = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]])
    return validate_channel(mix @ rows)


@functools.cache
def rank_deficient_channels():
    """140 channels A = W B of rank r < n: for n = 3..9, 20 draws each of
    r in [1, n), r Dirichlet rows B of length n and n Dirichlet rows W of
    length r (``default_rng(3)``)."""
    rng = np.random.default_rng(3)
    channels = []
    for n in range(3, 10):
        for _ in range(20):
            r = rng.integers(1, n)
            rows = rng.dirichlet(np.ones(n), size=r)
            mix = rng.dirichlet(np.ones(r), size=n)
            channels.append(validate_channel(mix @ rows))
    return channels


@functools.cache
def unproduced_output_channels():
    """462 channels whose last output is never produced: 600 draws
    (``default_rng(11)``) of n in [3, 9) and an n x n matrix of uniform
    entries, each kept with probability 1/2, with the last column zeroed; a
    draw with an all-zero row is skipped and the rest are row-normalized."""
    rng = np.random.default_rng(11)
    channels = []
    for _ in range(600):
        n = rng.integers(3, 9)
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a[:, -1] = 0.0
        sums = a.sum(axis=1, keepdims=True)
        if (sums > 0.0).all():
            channels.append(validate_channel(a / sums))
    return channels


def certified_counts(channels):
    """BA's iterations on each of ``channels``, unseeded and then seeded with
    pinv's p*, each run checked to certify by ``certified_bracket``."""
    counts = []
    for start in (lambda m: None, _pseudo_inverse_input):
        runs = []
        for m in channels:
            est = blahut_arimoto(m, start=start(m))
            assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12
            runs.append(est.iterations)
        counts.append(runs)
    return counts


# channels of the two sets above whose pinv-seeded solve once met a face with
# dependent rows and started over from uniform (57, 158 and, on OpenBLAS's
# Haswell kernel, 206 iterations)
STARTED_OVER = [("rank-deficient", 25), ("unproduced-output", 62), ("unproduced-output", 166)]


def started_over_channel(name, index):
    sets = {
        "rank-deficient": rank_deficient_channels,
        "unproduced-output": unproduced_output_channels,
    }
    return sets[name]()[index]


Z_CHANNEL = [[1.0, 0.0], [0.5, 0.5]]

# float.hex of the capacities of the relay n=30 CLI grid on the recorded build
RELAY30_CAPACITIES = [
    "0x1.b01419fe178c4p+1", "0x1.468c8b941095dp+1", "0x1.143ef5c80c47ap+1",
    "0x1.e128e75d91e54p+0", "0x1.a6b00ca043cfcp+0", "0x1.72c2d00c01dd0p+0",
    "0x1.41d1ede570d27p+0", "0x1.11c94e56d89bcp+0", "0x1.c128790f6fefdp-1",
    "0x1.5db77178747d3p-1", "0x1.a256d78f939b3p-2", "0x1.043d410c21128p-3",
    "0x1.ffffffffffffcp-52",
]


def sweep_channels(family, n, lo, hi, steps):
    """The channels of a CLI sweep, at the grid parameters the CLI uses."""
    return [build_family(family, n=n, parameter=x) for x in cli_grid(lo, hi, steps)]


def refused_as_singular(matrix):
    try:
        analyze_inverse(matrix)
    except SingularMatrix:
        return True
    return False


def sweep_start(matrix):
    """The start hint the CLI's sweep passes: p*, or pinv's where A is singular."""
    try:
        return capacity_upper_bound(matrix).p_star
    except SingularMatrix:
        return _pseudo_inverse_input(matrix)
    except NumericError:
        return None


class TestBlahutArimoto:
    def test_identity_converges_immediately(self):
        est = blahut_arimoto(validate_channel(np.eye(3)))
        assert est.capacity == pytest.approx(math.log2(3), abs=1e-12)
        assert est.iterations == 0

    def test_optimal_input_is_pmf(self, ex4):
        est = blahut_arimoto(ex4)
        assert est.optimal_input.min() >= 0
        assert est.optimal_input.sum() == pytest.approx(1.0, abs=1e-9)

    def test_gap_nonnegative_at_any_cutoff(self, ex4):
        for tol in (1e-2, 1e-5, 1e-9):
            assert blahut_arimoto(ex4, tol).gap >= 0.0

    def test_not_converged_carries_estimate(self, ex4):
        with pytest.raises(NotConverged) as err:
            blahut_arimoto(ex4, 1e-9, max_iter=2)
        est = err.value.estimate
        assert err.value.iterations == 2
        assert est.gap > 1e-9
        converged = blahut_arimoto(ex4, 1e-9)
        assert est.capacity <= converged.capacity + 1e-12

    def test_invariant_under_input_output_relabeling(self, ex4):
        perm = np.array([2, 0, 1])
        relabeled = validate_channel(np.asarray(ex4.entries)[perm][:, perm])
        a = blahut_arimoto(ex4, 1e-10).capacity
        b = blahut_arimoto(relabeled, 1e-10).capacity
        assert a == pytest.approx(b, abs=1e-9)

    def test_symmetric_channel_closed_form(self, bsc01):
        circulant = validate_channel(
            [[0.8, 0.15, 0.05], [0.05, 0.8, 0.15], [0.15, 0.05, 0.8]]
        )
        for m, row in ((bsc01, [0.9, 0.1]), (circulant, [0.8, 0.15, 0.05])):
            expected = math.log2(m.n) - entropy2(row)
            assert blahut_arimoto(m).capacity == pytest.approx(expected, abs=1e-6)

    def test_rejects_nonpositive_tolerance(self, bsc01):
        with pytest.raises(InvalidParameter):
            blahut_arimoto(bsc01, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, "1e-9", None])
    def test_rejects_tolerance_that_cannot_certify(self, bsc01, tol):
        # "1e-9" and None are not real numbers: InvalidParameter, not a TypeError
        with pytest.raises(InvalidParameter):
            blahut_arimoto(bsc01, tol)

    def test_rejects_negative_max_iter(self, bsc01):
        with pytest.raises(InvalidParameter):
            blahut_arimoto(bsc01, 1e-9, -3)
        assert blahut_arimoto(bsc01, 1e-9, 0).iterations == 0

    @pytest.mark.parametrize("max_iter", [60.0, 2.5, "60"])
    def test_rejects_non_integer_max_iter(self, max_iter):
        # 2.5 used to run 3 iterations, past the cap; 60.0 escaped as TypeError
        with pytest.raises(InvalidParameter):
            blahut_arimoto(relay_miso(30, 0.14), 1e-9, max_iter)

    def test_accepts_numpy_integer_max_iter(self, bsc01):
        assert blahut_arimoto(bsc01, 1e-9, np.int64(0)).iterations == 0


class TestDivergenceTerms:
    def test_unreached_output_diverges_and_certifies_nothing(self):
        m = validate_channel(Z_CHANNEL)
        p = np.array([1.0, 0.0])
        _, d, lower, gap = _evaluate(m, p)
        assert list(d) == [0.0, math.inf]
        assert (lower, gap) == (0.0, math.inf)

    def test_matches_independent_bracket(self, ex4):
        for p in ([0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [1.0, 0.0, 0.0]):
            p = np.array(p)
            got = _evaluate(ex4, p)[2:]
            assert got == pytest.approx(certified_bracket(ex4, p), abs=1e-12)

    def test_z_channel_capacity(self):
        est = blahut_arimoto(validate_channel(Z_CHANNEL))
        assert est.capacity == pytest.approx(math.log2(1.25), abs=1e-9)


class TestSolve:
    """``_solve``'s contract, which its finiteness check on Python floats keeps."""

    def test_singular_system_gives_none(self):
        assert _solve(np.ones((3, 3)), np.ones(3), 2) is None

    @pytest.mark.parametrize("first", [1e300, -1e300, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_entry_among_the_first_k_gives_none(self, first):
        # 1e300 / 1e-300 overflows to +-inf, and NaN stays NaN
        system = np.diag([1e-300, 1.0, 1.0])
        assert _solve(system, np.array([first, 1.0, 1.0]), 2) is None

    @pytest.mark.parametrize("k", [1, 5, 20, 31])
    def test_finite_solution_is_numpys_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        system, rhs = rng.random((k + 1, k + 1)), rng.standard_normal(k + 1)
        x = _solve(system, rhs, k)
        assert x.tobytes() == np.linalg.solve(system, rhs)[:k].tobytes()


class TestSparseOptimalInput:
    @pytest.mark.parametrize(
        "alpha, lo, hi",
        [
            (0.10, 2.158171163679, 2.158173138155),
            (0.14, 1.879530218776, 1.879532895815),
        ],
    )
    def test_relay30_points_that_used_to_hit_the_cap(self, alpha, lo, hi):
        # [lo, hi] is the bracket plain BA certifies after 100 000 updates
        est = blahut_arimoto(relay_miso(30, alpha))
        assert est.gap <= 1e-9
        assert est.iterations <= 100_000
        assert lo <= est.capacity <= hi

    def test_optimal_input_is_certified_pmf(self):
        alphas = (0.02, 0.1, 0.22, 0.34, 0.46)
        matrices = [relay_miso(n, a) for n in (3, 8, 30) for a in alphas]
        sdd = ((5, 1.5, 3), (16, 1.5, 4), (40, 3.0, 5), (64, 1.5, 6))
        matrices += [random_sdd_positive(n, r, s) for n, r, s in sdd]
        matrices.append(rank_two_channel())
        for m in matrices:
            est = blahut_arimoto(m)
            p = est.optimal_input
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            lower, gap = certified_bracket(m, p)
            assert gap <= 1e-9 + 1e-12
            assert lower == pytest.approx(est.capacity, abs=1e-12)

    def test_relay3_overlaps_grid_oracle(self):
        for alpha in (0.05, 0.2, 0.35, 0.48):
            m = relay_miso(3, alpha)
            ba = blahut_arimoto(m)
            grid = grid_oracle(m, 60)
            assert max(ba.capacity, grid.capacity) <= min(
                ba.capacity + ba.gap, grid.capacity + grid.gap
            ) + 1e-12

    def test_singular_newton_system_falls_back_to_updates(self):
        m = rank_two_channel()
        ba = blahut_arimoto(m)
        grid = grid_oracle(m, 80)
        assert ba.gap <= 1e-9
        assert grid.capacity <= ba.capacity + 1e-12 <= grid.capacity + grid.gap + 2e-12

    @pytest.mark.parametrize("max_iter", [0, 1, 49, 50, 51, 60, 75])
    def test_iterations_never_exceed_max_iter(self, max_iter):
        seeded = relay_miso(30, 0.14)  # its p* needs the Newton solve
        calls = [(m, None) for m in (relay_miso(30, 0.10), relay_miso(8, 0.3), rank_two_channel())]
        calls.append((seeded, capacity_upper_bound(seeded).p_star))
        for m, start in calls:
            try:
                est = blahut_arimoto(m, 1e-9, max_iter, start=start)
            except NotConverged as err:
                assert err.iterations == max_iter
                est = err.estimate
                assert est.gap > 1e-9
            assert est.iterations <= max_iter
            assert est.optimal_input.min() >= 0.0
            assert est.optimal_input.sum() == pytest.approx(1.0, abs=1e-12)

    def test_relay30_cli_grid_iteration_counts(self):
        # the Newton step's rules (ratio test, the walk on the face's model
        # at a blocked step, entering after every step) fix these
        # counts; most blocked steps are finished by one walk where the
        # ratio-test step alone took one evaluation per input dropped, and
        # entering after a walk saves the step that only re-solved the face
        # (112 steps when only a full step could admit an input)
        channels = sweep_channels("relay-miso", 30, 0.02, 0.50, 13)
        estimates = [blahut_arimoto(m, start=sweep_start(m)) for m in channels]
        counts = [est.iterations for est in estimates]
        if build_key() == recorded_build():
            assert counts == [0, 8, 16, 13, 8, 9, 16, 9, 9, 3, 2, 3, 0]
            return
        # On another build, the start of each point with cond >= 1e5 (alpha
        # 0.18-0.46) comes from an inverse or pseudo-inverse whose last digits
        # depend on the BLAS kernel, and so does its count.
        assert counts[:4] + counts[-1:] == [0, 8, 16, 13, 0]
        for m, est in zip(channels[4:-1], estimates[4:-1]):
            assert est.iterations <= m.n + 2 * NEWTON_EVERY
            assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12

    def test_relay30_pass_is_pinned_bit_for_bit(self, monkeypatch):
        # the Newton loop takes its minima, maxima and finiteness checks on
        # Python floats and leaves every sum to numpy; on the recorded build
        # the relay n=30 pass makes the same linear solves and evaluations
        # and certifies the same capacities, to the last bit
        runs = [(m, sweep_start(m)) for m in sweep_channels("relay-miso", 30, 0.02, 0.50, 13)]
        solves = spy(monkeypatch, "dmcbounds.reference._solve")
        evaluations = spy(monkeypatch, "dmcbounds.reference._evaluate")
        capacities = [blahut_arimoto(m, start=start).capacity for m, start in runs]
        if build_key() == recorded_build():
            assert (len(solves), len(evaluations)) == (252, 109)
            assert [c.hex() for c in capacities] == RELAY30_CAPACITIES
            return
        # On another build the last bits of q = A^T p, and so of each
        # capacity, depend on the BLAS kernel; both are the lower end of a
        # bracket within 1e-9 of the same capacity.
        for c, pinned in zip(capacities, RELAY30_CAPACITIES):
            assert abs(c - float.fromhex(pinned)) <= 1e-9 + 1e-12

    def test_a_pinned_input_stays_at_zero_in_the_walk(self, monkeypatch):
        # a walk pins each input that leaves its face with an identity row
        # and a zero right-hand side, so the solution there is +-0 and the
        # direction y - x of every later piece is zero there with no mask
        calls = spy(monkeypatch, "dmcbounds.reference._ratio_step")
        spy(monkeypatch, "dmcbounds.reference._newton_point", calls)
        runs = [(m, sweep_start(m)) for m in sweep_channels("relay-miso", 30, 0.02, 0.50, 13)]
        for m in rank_deficient_channels():
            runs += [(m, None), (m, _pseudo_inverse_input(m))]
        for m, start in runs:
            blahut_arimoto(m, start=start)
        later_pieces, pinned = 0, []
        for name, args, _, result in calls:
            if name == "_newton_point":  # it ends the walk of the ratio tests logged before it
                if result is not None:
                    assert all(result[i] == 0.0 for i in pinned)
                pinned = []
            elif len(args) == 2:  # a step's ratio test; _reduced_face's pass a limit
                dx, leaving = args[1], result[1]
                assert all(dx[i] == 0.0 for i in pinned)
                later_pieces += bool(pinned)
                if leaving is not None:
                    pinned.append(leaving)
        assert later_pieces > 100, later_pieces

    def test_a_point_that_certifies_is_taken_though_i_p_drops(self, bsc01):
        # the Newton point from the optimal input is that input; with I(p)
        # at the iterate raised by 1e-12 the point lowers it, but its bracket
        # is within tol, so the step takes it (on OpenBLAS's Haswell kernel a
        # drop of 1.3e-15 at a certified point happens at relay n=30 alpha=0.34)
        p = np.array([0.5, 0.5])
        q, d, lower, gap = _evaluate(bsc01, p)
        assert gap <= 1e-9
        solved, steps = _newton_on_support(bsc01, p, (q, d, lower + 1e-12, gap), 1e-9, 5)
        assert steps == 1 and solved is not None
        assert solved[1][2] < lower + 1e-12 - 1e-15

    def test_rank_deficient_channels_certify(self):
        # a face whose rows are dependent has a singular Newton system; where
        # its step fails, the face is reduced to independent rows instead of
        # leaving the rest to plain updates. Unseeded and seeded with pinv's
        # p*, each channel certifies within n + 2 NEWTON_EVERY steps (a
        # solve that failed there took up to 1,589), and on the recorded
        # build the totals do not rise
        channels = rank_deficient_channels()
        counts = certified_counts(channels)
        for runs in counts:
            slow = [i for i, (m, k) in enumerate(zip(channels, runs)) if k > m.n + 2 * NEWTON_EVERY]
            assert not slow, slow
        if build_key() == recorded_build():
            totals = [sum(runs) for runs in counts]
            assert totals[0] <= 396 and totals[1] <= 398, totals

    def test_seeded_newton_steps_count_as_iterations(self):
        m = relay_miso(30, 0.14)
        p_star = capacity_upper_bound(m).p_star
        steps = blahut_arimoto(m, start=p_star).iterations
        assert 0 < steps < NEWTON_EVERY  # certified by the solve from clip(p*)
        assert blahut_arimoto(m, max_iter=steps, start=p_star).iterations == steps
        with pytest.raises(NotConverged) as err:
            blahut_arimoto(m, max_iter=steps - 1, start=p_star)
        assert err.value.iterations == steps - 1

    @pytest.mark.parametrize(
        "m",
        [fixed_example("example-4"), relay_miso(30, 0.14), relay_miso(8, 0.3)],
        ids=["example-4", "relay30-0.14", "relay8-0.3"],
    )
    def test_unseeded_run_opens_with_the_newton_solve(self, m):
        # from uniform the solve runs at iteration 0; after NEWTON_EVERY
        # plain updates first, these took 52, 59 and 51 iterations
        est = blahut_arimoto(m)
        assert est.iterations <= NEWTON_EVERY, est.iterations
        assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12

    def test_entry_that_would_shrink_at_once_leaves_by_the_walk(self, monkeypatch):
        # an input joins the face while D is still spread by up to half the
        # gap; on the recorded build two such inputs would shrink at the very
        # next step (t = 0), and that step's walk pins each and solves the old
        # face again from p (32 steps when the input left the face by a step
        # of its own, 28 when only a full step could admit an input)
        calls = spy(monkeypatch, "dmcbounds.reference._solve")
        spy(monkeypatch, "dmcbounds.reference._ratio_step", calls)
        m = relay_miso(48, 0.22)
        est = blahut_arimoto(m, start=capacity_upper_bound(m).p_star)
        assert est.iterations < NEWTON_EVERY  # certified by the solve from clip(p*)
        assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12
        walks_from_p = 0
        for (name, args, _, solved), (_, after, _, result) in zip(calls, calls[1:]):
            # a step solves for dp with sum dp = 1 - sum p_S (each piece of
            # its walk for y with sum y = 1), and its own ratio test is next
            if name == "_solve" and solved is not None and args[1][-1] != 1.0:
                x, i = after[0], result[1]
                walks_from_p += i is not None and x[i] == 0.0
        if build_key() == recorded_build():
            assert est.iterations == 22
            assert walks_from_p == 2

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32), zeros=st.booleans())
    def test_a_level_face_has_its_worst_input_off_the_face(self, n, seed, zeros):
        # the entering rule's premise: I(p) averages D over supp(p), a subset
        # of the face S, so where the largest D lies on S the gap is at most
        # the spread of D on S; a face with finite D, level to within half a
        # gap above tol, therefore has its worst input off S
        rng = np.random.default_rng(seed)
        a = rng.random((n, n))
        if zeros:
            keep = rng.random((n, n)) < 0.5
            keep[np.arange(n), rng.integers(0, n, n)] = True
            a *= keep
        m = validate_channel(a / a.sum(axis=1, keepdims=True))
        order = rng.permutation(n)
        face = np.zeros(n, dtype=bool)
        face[order[: rng.integers(1, n + 1)]] = True
        p = np.zeros(n)
        used = order[: rng.integers(1, face.sum() + 1)]
        p[used] = rng.random(used.size) + 1e-3
        p /= p.sum()
        d = divergences_by_loops(m, m.entries.T @ p)
        gap = certified_bracket(m, p)[1]
        spread = d[face].max() - d[face].min()
        if d[face].max() >= d.max():
            assert gap <= spread + 1e-12
        if spread <= 0.5 * gap and gap > 1e-9 and spread < math.inf:
            assert d[~face].max(initial=-math.inf) > d[face].max()

    def test_relay60_cli_grid_counts_do_not_rise(self):
        # the counts on the recorded build with blocked steps finished on
        # the face's model and an input admitted after a walk
        before = [4, 15, 32, 34, 34, 28, 20, 47, 33, 23, 20, 14, 14,
                  12, 10, 9, 8, 6, 6, 3, 3, 4, 2, 3, 0]
        channels = sweep_channels("relay-miso", 60, 0.02, 0.50, 25)
        counts = [blahut_arimoto(m, start=sweep_start(m)).iterations for m in channels]
        if build_key() != recorded_build():
            # only the points with cond < 1e5 (alpha 0.02-0.08) and the rank-1
            # point have starts that do not depend on the BLAS kernel
            counts, before = counts[:4] + counts[-1:], before[:4] + before[-1:]
        assert all(now <= then for now, then in zip(counts, before)), counts

    def test_no_input_pmf_is_scored_twice_in_a_row(self, monkeypatch):
        # the Newton solve hands back the evaluation of the p it returns,
        # a failed solve keeps the one of the p it started from, and a face
        # reduction scores only the points it moves to
        calls = spy(monkeypatch, "dmcbounds.reference._evaluate")
        # relay n=48 alpha=0.22 takes a t = 0 step from p*, whose point is
        # the walked one; the rank-2 channel from the hint below and the
        # pinv-seeded channels that used to start over reduce a face
        channels = [*sweep_channels("relay-miso", 30, 0.02, 0.50, 13), relay_miso(48, 0.22)]
        runs = [(m, sweep_start(m)) for m in channels]
        runs.append((rank_two_channel(), np.array([0.4, 0.3, 0.2, 0.1])))
        for name, index in STARTED_OVER:
            m = started_over_channel(name, index)
            runs.append((m, _pseudo_inverse_input(m)))
        for m, start in runs:
            calls.clear()
            blahut_arimoto(m, start=start)
            scored = [p for _, (_, p), _, _ in calls]
            assert not any(np.array_equal(a, b) for a, b in zip(scored, scored[1:]))


class TestUnreachedOutputs:
    """Newton solves whose iterates leave an output unreached (q_j = 0)."""

    def test_unused_output_on_every_iterate(self, monkeypatch):
        # output 4 is never produced, so q_4 = 0 at every iterate
        m = validate_channel(
            [[0.8, 0.2, 0.0, 0.0], [0.1, 0.8, 0.1, 0.0], [0.0, 0.2, 0.8, 0.0], [0.5, 0.0, 0.5, 0.0]]
        )
        seen = spy(monkeypatch, "dmcbounds.reference._divergence_terms")
        seeded = blahut_arimoto(m, start=[0.5, 0.0, 0.5, 0.0])
        assert 0 < seeded.iterations < NEWTON_EVERY  # certified by the Newton solve
        assert all(q[3] == 0.0 and np.isfinite(d).all() for _, (_, q), _, d in seen)
        lower, gap = certified_bracket(m, seeded.optimal_input)
        assert gap <= 1e-9 + 1e-12
        assert lower == pytest.approx(seeded.capacity, abs=1e-12)
        assert seeded.capacity == pytest.approx(blahut_arimoto(m).capacity, abs=1e-9)

    def test_iterate_with_an_unreached_output_diverges_and_ba_certifies(self, monkeypatch):
        m = validate_channel([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        seen = spy(monkeypatch, "dmcbounds.reference._divergence_terms")
        est = blahut_arimoto(m, start=[1.0, 0.0, 0.0])
        # the hint and the Newton solve's first iterate: q = (1, 0, 0)
        for _, (_, q), _, d in seen[:2]:
            assert list(q) == [1.0, 0.0, 0.0]
            assert list(d) == [0.0, math.inf, math.inf]
        lower, gap = certified_bracket(m, est.optimal_input)
        assert est.gap <= 1e-9 and gap <= 1e-9 + 1e-12
        assert est.capacity == pytest.approx(1.0, abs=1e-9)

    def test_blocked_step_walks_at_an_unreached_output(self, monkeypatch):
        # output 4 is never produced, so q_4 = 0 at every iterate; the face's
        # M leaves that output out and is still the exact model, so blocked
        # steps are finished by the walk (156 iterations when they were not)
        m = validate_channel(
            [[7 / 9, 0, 2 / 9, 0], [3 / 4, 1 / 4, 0, 0], [4 / 5, 0, 1 / 5, 0], [1 / 8, 7 / 8, 0, 0]]
        )
        calls = spy(monkeypatch, "dmcbounds.reference._divergence_terms")
        spy(monkeypatch, "dmcbounds.reference._solve", calls)
        est = blahut_arimoto(m)
        walked_at, q = [], None
        for name, args, _, _ in calls:
            if name == "_divergence_terms":
                q = args[1]  # q at the iterate that a step starts from
            elif args[1][-1] == 1.0:  # a piece of a walk, which solves for sum y = 1
                walked_at.append(q)
        assert walked_at and all(q[3] == 0.0 for q in walked_at)
        assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12
        assert est.iterations <= m.n + 2 * NEWTON_EVERY

    def test_channels_with_an_unproduced_output_certify(self):
        # every iterate has q_j = 0 at the last output; unseeded and seeded
        # with pinv's p*, each channel certifies, and on the recorded build
        # the totals do not rise
        channels = unproduced_output_channels()
        assert len(channels) == 462
        totals = [sum(runs) for runs in certified_counts(channels)]
        if build_key() == recorded_build():
            assert totals[0] <= 4_544 and totals[1] <= 2_789, totals

    @pytest.mark.parametrize(
        "row",
        [
            [4.8093173487694305e-05, 0.0, 0.24482636298221996, 0.7551255438442922],
            [1e-20, 0.0, 0.24482636298221996, 0.75517363701778],
        ],
        ids=["tiny-mass", "tiny-entry"],
    )
    def test_update_that_would_underflow_an_output_ends_without_nan(self, row):
        # output 0 is reached only by row 1, and plain updates decay p_1:
        # at A_10 = 4.8e-5, q_0 = p_1 A_10 turns subnormal (A_10 / q_0
        # overflows in the Newton system) and then 0 while p_1 > 0, and at
        # A_10 = 1e-20 it turns 0 while p_1 is still a normal double; D_1 = +inf
        # then makes I(p) inf and the next update NaN
        m = validate_channel(
            [[0.0, 0.0, 0.9999903420268464, 9.657973153469972e-06], row, [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                est = blahut_arimoto(m, 1e-9, 2000)
                assert est.gap <= 1e-9
            except NotConverged as exc:
                est = exc.estimate
        assert math.isfinite(est.capacity) and not math.isnan(est.gap)
        assert est.capacity == pytest.approx(certified_bracket(m, est.optimal_input)[0], abs=1e-12)


class TestFaceReduction:
    """A face whose rows are dependent, shrunk along u^T A_S = 0 where its
    Newton step would fail."""

    @pytest.mark.parametrize("name, index", STARTED_OVER, ids=[f"{n}-{i}" for n, i in STARTED_OVER])
    def test_seeded_channel_that_started_over_certifies_within_the_solve(self, name, index):
        # each of these once failed its first solve and started over from
        # uniform; every build reaches the certified input in a handful of steps
        m = started_over_channel(name, index)
        est = blahut_arimoto(m, start=_pseudo_inverse_input(m))
        assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12
        assert est.iterations < 10, est.iterations

    def test_independent_rows_are_not_reduced(self):
        m = rank_two_channel()
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert _reduced_face(m, p, _evaluate(m, p), p > 0.0) is None

    def test_svd_that_fails_to_converge_fails_the_step(self, monkeypatch):
        # a LAPACK failure in the rank check is a failed step, as in _solve:
        # BA goes on with plain updates and still certifies
        m = rank_two_channel()
        expected = blahut_arimoto(m).capacity

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        est = blahut_arimoto(m)
        assert certified_bracket(m, est.optimal_input)[1] <= 1e-9 + 1e-12
        assert est.capacity == pytest.approx(expected, abs=1e-9)

    def test_joined_input_that_would_shrink_leaves_without_a_move(self):
        # row 2 is the average of rows 0 and 1, so its D is below theirs
        # (entropy is concave) and the oriented null vector shrinks input 2,
        # which has no mass yet: it leaves at t = 0, and p is not scored again
        m = rank_two_channel()
        p = np.array([0.5, 0.5, 0.0, 0.0])
        at_p = _evaluate(m, p)
        reduced_p, at_reduced, support = _reduced_face(m, p, at_p, np.array([1, 1, 1, 0], bool))
        assert np.array_equal(reduced_p, p)
        assert at_reduced is at_p
        assert list(support) == [True, True, False, False]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32), joined=st.booleans())
    def test_reduction_keeps_q_and_does_not_lower_i_p(self, n, seed, joined):
        # A = W B of rank r < n, and a face of more than r inputs; with
        # ``joined`` one of them carries no mass yet, like an input that has
        # just entered
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, n))
        m = validate_channel(rng.dirichlet(np.ones(r), size=n) @ rng.dirichlet(np.ones(n), size=r))
        support = np.zeros(n, dtype=bool)
        support[rng.permutation(n)[: rng.integers(r + 1, n + 1)]] = True
        p = np.where(support, rng.random(n), 0.0)
        if joined:
            p[support.nonzero()[0][0]] = 0.0
        p /= p.sum()
        at_p = _evaluate(m, p)
        reduced_p, at_reduced, reduced_support = _reduced_face(m, p, at_p, support)
        assert reduced_support.sum() < support.sum()
        assert not (reduced_support & ~support).any()
        assert (reduced_p[~reduced_support] == 0.0).all()
        assert reduced_p.min() >= 0.0
        assert reduced_p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(at_reduced[0] - m.entries.T @ p).max() <= 1e-12
        assert np.array_equal(at_reduced[0], m.entries.T @ reduced_p)
        assert certified_bracket(m, reduced_p)[0] >= certified_bracket(m, p)[0] - 1e-12
        rows = m.entries[reduced_support]
        assert np.linalg.matrix_rank(rows) == rows.shape[0]


class TestClosedFormStart:
    """BA seeded with a start hint, normally the closed form's p*."""

    @staticmethod
    def assert_same_capacity(m, start):
        plain = blahut_arimoto(m, 1e-9)
        seeded = blahut_arimoto(m, 1e-9, start=start)
        assert plain.gap <= 1e-9
        assert seeded.gap <= 1e-9
        lower, gap = certified_bracket(m, seeded.optimal_input)
        assert gap <= 1e-9 + 1e-12
        assert lower == pytest.approx(seeded.capacity, abs=1e-12)
        assert seeded.capacity == pytest.approx(plain.capacity, abs=1e-9)
        return plain, seeded

    @pytest.mark.parametrize(
        "n, lo, hi, steps",
        [(3, 0.02, 0.98, 49), (30, 0.02, 0.50, 13), (60, 0.02, 0.50, 25)],
    )
    def test_relay_cli_grids(self, n, lo, hi, steps):
        for m in sweep_channels("relay-miso", n, lo, hi, steps):
            self.assert_same_capacity(m, sweep_start(m))

    def test_beta_cli_grid(self):
        for m in sweep_channels("beta", None, 0.05, 0.95, 19):
            self.assert_same_capacity(m, sweep_start(m))

    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("ratio", [1.5, 3.0, 10.0])
    def test_random_sdd_seeds(self, n, ratio):
        m = random_sdd_positive(n, ratio, 100 * n + int(ratio))
        self.assert_same_capacity(m, capacity_upper_bound(m).p_star)

    @pytest.mark.parametrize("name", ["example-1", "example-3", "example-4"])
    def test_fixed_examples(self, name):
        m = fixed_example(name)
        report = capacity_upper_bound(m)
        _, seeded = self.assert_same_capacity(m, report.p_star)
        if report.p_star_feasible:  # p* is optimal, so it certifies at once
            assert seeded.iterations == 0

    @pytest.mark.parametrize(
        "hint",
        [
            [math.nan, 0.5, 0.5],
            [math.inf, 0.0, 0.0],
            [-math.inf, 0.5, 0.5],
            [0.0, 0.0, 0.0],
            [-0.2, -0.3, 0.0],
        ],
    )
    def test_unusable_hint_is_ignored_bit_for_bit(self, ex4, hint):
        plain = blahut_arimoto(ex4)
        seeded = blahut_arimoto(ex4, start=np.array(hint))
        assert seeded.capacity == plain.capacity
        assert seeded.gap == plain.gap
        assert seeded.iterations == plain.iterations
        assert np.array_equal(seeded.optimal_input, plain.optimal_input)

    @pytest.mark.parametrize(
        "hint",
        [[0.5, 0.5], [0.25] * 4, [[0.2, 0.3, 0.5]], 1.0, ["a", "b", "c"], [[0.5], [0.5, 0.0]]],
    )
    def test_wrong_shape_is_rejected(self, ex4, hint):
        with pytest.raises(InvalidPmf):
            blahut_arimoto(ex4, start=hint)

    @pytest.mark.parametrize(
        "m, unused",
        [(relay_miso(30, 0.14), 14), (relay_miso(8, 0.3), 4), (fixed_example("example-4"), 1)],
    )
    def test_point_mass_on_a_non_optimal_input_still_certifies(self, m, unused):
        assert blahut_arimoto(m).optimal_input[unused] < 1e-6
        self.assert_same_capacity(m, np.eye(m.n)[unused])

    @pytest.mark.parametrize("hint", [[0.4, 0.3, 0.2, 0.1]])
    def test_failed_solve_from_hint_restarts_from_uniform(self, hint, monkeypatch):
        # the Newton system of a rank-2 channel is singular on a full
        # support; with no face reduced, the solve from this hint fails, and
        # what follows is the unseeded run, later by the failed steps only
        # (reduced, the face certifies within the solve)
        monkeypatch.setattr("dmcbounds.reference._reduced_face", lambda *args: None)
        m = rank_two_channel()
        plain = blahut_arimoto(m)
        seeded = blahut_arimoto(m, start=np.array(hint))
        assert seeded.iterations > plain.iterations
        assert seeded.capacity == plain.capacity
        assert seeded.gap == plain.gap
        assert np.array_equal(seeded.optimal_input, plain.optimal_input)

    def test_failed_solve_from_a_closed_form_hint_restarts_from_uniform(self):
        # K_1 = 1.2e6, so q*_1 underflows and p*_0 = 0 exactly; output 1 is
        # reached only by row 0, so from p* it stays unreached, the opening
        # solve fails at an entering input of infinite D, and what follows
        # is the unseeded run, later by that one failed step
        m = validate_channel(
            [
                [0.9190400692581585, 3.321415916603533e-07, 0.08095959860024997],
                [0.9998641988958963, 0.0, 0.00013580110410371586],
                [0.0, 0.0, 1.0],
            ]
        )
        hint = capacity_upper_bound(m).p_star
        assert hint[0] == 0.0
        plain = blahut_arimoto(m)
        seeded = blahut_arimoto(m, start=hint)
        assert seeded.iterations == plain.iterations + 1
        assert seeded.capacity == plain.capacity
        assert seeded.gap == plain.gap
        assert np.array_equal(seeded.optimal_input, plain.optimal_input)

    def test_point_mass_hint_on_a_rank_two_channel_certifies_in_the_solve(self):
        # from [0, 0, 1, 0] an input joins early and the face reaches the
        # linearly independent {0, 1}, where the Newton system is regular
        m = rank_two_channel()
        plain = blahut_arimoto(m)
        seeded = blahut_arimoto(m, start=np.array([0.0, 0.0, 1.0, 0.0]))
        assert seeded.iterations < NEWTON_EVERY
        assert certified_bracket(m, seeded.optimal_input)[1] <= 1e-9 + 1e-12
        assert seeded.capacity == pytest.approx(plain.capacity, abs=1e-9)

    @pytest.mark.parametrize("n, steps, singular", [(30, 13, 5), (60, 25, 16)])
    def test_pseudo_inverse_hint_at_singular_cli_grid_points(self, n, steps, singular, monkeypatch):
        # both runs open with the Newton solve, and from uniform it often
        # certifies in fewer steps; what pinv's p* saves is linear solves:
        # from uniform, the first walk pins most inputs at one solve each
        # (on the recorded build, 77 solves seeded against 124 at n=30);
        # test_relay_cli_grids compares the capacities of the two runs
        points = [
            m for m in sweep_channels("relay-miso", n, 0.02, 0.50, steps)
            if refused_as_singular(m)
        ]
        assert len(points) == singular
        solves = spy(monkeypatch, "dmcbounds.reference._solve")
        for m in points:
            counts = []
            for start in (None, _pseudo_inverse_input(m)):
                solves.clear()
                blahut_arimoto(m, start=start)
                counts.append(len(solves))
            plain, seeded = counts
            if plain:  # alpha = 0.5 (rank 1) certifies at once either way
                assert seeded < plain, counts
            else:
                assert seeded == 0

    def test_cli_runs_never_reach_the_plain_update(self, monkeypatch):
        # from the start the CLI gives it, every run of the golden corpus's
        # sweeps and analyze matrices certifies at its start (no solve) or
        # within its opening Newton solve, on every build
        calls = spy(monkeypatch, "dmcbounds.reference._newton_on_support")
        runs = [
            (m, sweep_start(m)) for grid in CORPUS_SWEEPS.values() for m in sweep_channels(*grid)
        ]
        runs += [(m, sweep_start(m)) for _, m in corpus_matrices()]
        assert len(runs) == 130 + 14
        failed = []
        for index, (m, start) in enumerate(runs):
            calls.clear()
            est = blahut_arimoto(m, start=start)
            solves = [(solved is not None, steps) for *_, (solved, steps) in calls]
            if solves != ([(True, est.iterations)] if est.iterations else []):
                failed.append((index, solves, est.iterations))
        assert not failed, failed

    def test_pseudo_inverse_input_is_p_star_when_a_inverts(self, ex1):
        expected = capacity_upper_bound(ex1).p_star
        assert _pseudo_inverse_input(ex1) == pytest.approx(expected, abs=1e-12)

    def test_pinv_failure_gives_no_hint(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        m = relay_miso(30, 0.38)
        monkeypatch.setattr(np.linalg, "pinv", no_convergence)
        hint = _pseudo_inverse_input(m)
        assert hint is None
        plain = blahut_arimoto(m)
        seeded = blahut_arimoto(m, start=hint)
        assert seeded.capacity == plain.capacity
        assert seeded.gap == plain.gap
        assert seeded.iterations == plain.iterations
        assert np.array_equal(seeded.optimal_input, plain.optimal_input)

    @pytest.mark.parametrize("n", [3, 30])
    def test_capacity_of_a_rank_one_channel_is_never_negative(self, n):
        # every row of relay_miso(n, 0.5) is the same, so C = 0; from some of
        # these hints the bracket's lower end rounds to a few ulps below 0
        m = relay_miso(n, 0.5)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            hint = rng.random(n + 1)
            for tol, max_iter in ((1e-9, 100_000), (1e-300, 3)):
                try:
                    est = blahut_arimoto(m, tol, max_iter, start=hint)
                except NotConverged as err:
                    est = err.estimate
                    assert err.gap == est.gap
                assert math.copysign(1.0, est.capacity) == 1.0  # not -0.0 either
                p = est.optimal_input
                _, _, lower, gap = _evaluate(m, p)
                assert est.capacity == max(lower, 0.0)
                assert est.capacity + est.gap == max(lower + gap, 0.0)  # same top

    def test_hint_is_not_modified(self, ex4):
        hint = capacity_upper_bound(ex4).p_star.copy()
        before = hint.copy()
        blahut_arimoto(ex4, start=hint)
        assert np.array_equal(hint, before)


class TestGridOracle:
    def test_noiseless_binary(self):
        est = grid_oracle(validate_channel(np.eye(2)), 200)
        assert est.capacity == pytest.approx(1.0, abs=0)
        assert est.optimal_input == pytest.approx([0.5, 0.5], abs=0)

    def test_bsc_at_resolution_400(self, bsc01):
        est = grid_oracle(bsc01, 400)
        assert est.capacity == pytest.approx(0.5310, abs=2e-3)

    def test_reliable_example_at_resolution_300(self, ex1):
        est = grid_oracle(ex1, 300)
        assert est.capacity == pytest.approx(1.2715, abs=5e-3)
        assert est.iterations == 45451  # C(302, 2) lattice points

    def test_gap_certifies_the_bracket(self, ex4):
        est = grid_oracle(ex4, 200)
        truth = blahut_arimoto(ex4, 1e-10).capacity
        assert est.capacity <= truth + 1e-9
        assert truth <= est.capacity + est.gap + 1e-9

    def test_gap_is_never_negative_at_a_rank_1_channel(self):
        # every row of relay-miso(3, 0.5) is the same, so C = 0 and rounding
        # puts I(p) a few ulps above max_i D_i at the lattice maximizer
        m = relay_miso(3, 0.5)
        for resolution in (20, 60):
            est = grid_oracle(m, resolution)
            assert est.capacity == pytest.approx(0.0, abs=1e-15)
            assert est.gap >= 0.0, resolution

    def test_alphabet_size_limit(self):
        m = random_sdd_positive(5, 3.0, 1)
        with pytest.raises(InvalidParameter, match="^alphabet size 5 exceeds limit 4$"):
            grid_oracle(m, 50)

    def test_resolution_floor(self, bsc01):
        with pytest.raises(InvalidParameter):
            grid_oracle(bsc01, 9)

    @pytest.mark.parametrize("resolution", [12.0, 12.5])
    def test_rejects_non_integer_resolution(self, bsc01, resolution):
        with pytest.raises(InvalidParameter):
            grid_oracle(bsc01, resolution)
        assert grid_oracle(bsc01, np.int64(12)).iterations == 13


class TestArimotoUpperBound:
    def test_identity(self):
        for n in (2, 3, 5):
            m = validate_channel(np.eye(n))
            assert arimoto_upper_bound(m) == pytest.approx(math.log2(n), abs=1e-12)

    def test_bsc_reduces_to_capacity(self, bsc01):
        expected = 1.0 - entropy2([0.9, 0.1])
        assert arimoto_upper_bound(bsc01) == pytest.approx(expected, abs=1e-6)

    def test_correction_term_is_nonpositive(self, ex1, ex3, ex4):
        for m in (ex1, ex3, ex4):
            assert arimoto_upper_bound(m) <= math.log2(m.n) + 1e-12


class TestDualBound:
    def test_at_the_capacity_achieving_output_it_is_the_capacity(self, ex4):
        est = blahut_arimoto(ex4, 1e-12)
        q = ex4.entries.T @ est.optimal_input
        assert dual_bound(ex4, q) == pytest.approx(est.capacity, abs=1e-11)

    def test_output_that_q_misses_gives_inf(self, ex1):
        assert dual_bound(ex1, np.array([0.5, 0.5, 0.0])) == math.inf

    @pytest.mark.parametrize(
        "q",
        [[1.0, 1.0], [math.nan, 0.5], [1.5, -0.5], [0.2, 0.3, 0.5], "abc", [[0.5], [0.5, 0.0]]],
        ids=["sum-2", "nan", "negative", "length-3", "text", "ragged"],
    )
    def test_rejects_an_output_vector_that_is_not_a_pmf(self, bsc01, q):
        # [1, 1] would give 1 - H(0.1) - 1 = -0.469, below the capacity 0.531
        with pytest.raises(InvalidPmf):
            dual_bound(bsc01, q)

    def test_accepts_a_list(self, bsc01):
        expected = 1.0 - entropy2([0.9, 0.1])
        assert dual_bound(bsc01, [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8),
        ratio=st.sampled_from([1.5, 3.0, 10.0]),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_bounds_capacity_at_every_pmf(self, n, ratio, seed, data):
        m = random_sdd_positive(n, ratio, seed)
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        q = np.array(weights) + (0.0 if sum(weights) > 0.0 else 1.0)
        q /= q.sum()
        assert dual_bound(m, q) >= blahut_arimoto(m).capacity - 1e-9


class TestBoydChiangUpperBound:
    def test_unreliable_example_column_max(self, ex4):
        expected = math.log2(0.7 + 0.3 + 0.45)
        got = boyd_chiang_upper_bound(ex4)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.536, abs=1e-3)


class TestBoundOrdering:
    def test_capacity_below_every_bound(self, ex1, ex3, ex4, sdd_fixtures):
        matrices = [ex1, ex3, ex4] + [m for _, _, _, m in sdd_fixtures[::40]]
        for m in matrices:
            capacity = blahut_arimoto(m, 1e-9).capacity
            bounds = [
                capacity_upper_bound(m).upper_bound,
                arimoto_upper_bound(m),
                boyd_chiang_upper_bound(m),
            ]
            assert capacity <= min(bounds) + 1e-6
