import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmcbounds import (
    Condition,
    SingularMatrix,
    analyze_inverse,
    blahut_arimoto,
    capacity_upper_bound,
    mutual_information,
    random_sdd_positive,
    validate_channel,
)
from dmcbounds.families import beta_family, bsc, relay_miso
from conftest import cli_grid, divergences_by_loops, entropy2

Z_CHANNEL = validate_channel([[1.0, 0.0], [0.5, 0.5]])


@st.composite
def rows_with_zeros(draw):
    """Non-negative n x n rows, n = 2..6, entries 0 or in [0.01, 1], with a
    positive entry on each (i, perm_i) of a drawn permutation and a zero off
    them. Every invertible such matrix with a zero has that form, since a
    nonzero determinant has a nonzero permutation term; so no row sum is 0,
    and only singular draws are left to filter out."""
    n = draw(st.integers(2, 6))
    perm = np.array(draw(st.permutations(range(n))))
    rows = draw(
        arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    )
    rows[np.arange(n), perm] = draw(arrays(np.float64, n, elements=st.floats(0.01, 1.0)))
    i = draw(st.integers(0, n - 1))
    rows[i, (perm[i] + draw(st.integers(1, n - 1))) % n] = 0.0
    return rows


class TestInverseRowEntropies:
    def test_bsc_by_hand(self, bsc01):
        # inverse rows are (1.125, -0.125) and both channel rows have the
        # same entropy, so K_j collapses to H(0.1) itself
        k = capacity_upper_bound(bsc01).inverse_entropies
        assert k == pytest.approx([entropy2([0.9, 0.1])] * 2, abs=1e-12)
        assert k == pytest.approx([0.469, 0.469], abs=1e-3)

    def test_permutation_rows_give_equal_entries(self, ex3):
        k = capacity_upper_bound(ex3).inverse_entropies
        assert np.allclose(k, k[0], atol=1e-12)

    def test_symmetric_positive_definite_channel(self):
        # symmetric circulant, eigenvalues 0.7, 0.7, 1: positive definite;
        # equal row entropies collapse K to a constant vector
        m = validate_channel(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
        )
        k = capacity_upper_bound(m).inverse_entropies
        assert np.allclose(k, k[0], atol=1e-12)

    def test_zero_entry_channels(self):
        # deterministic rows have H = 0, so the identity's K vanishes; the Z
        # channel's rows have H = (0, 1), and inv(A) = [[1, 0], [-1, 2]]
        for n in range(2, 6):
            k = capacity_upper_bound(validate_channel(np.eye(n))).inverse_entropies
            assert np.array_equal(k, np.zeros(n))
        k = capacity_upper_bound(Z_CHANNEL).inverse_entropies
        assert k == pytest.approx([0.0, 2.0], abs=1e-15)


class TestOptimalOutputDistribution:
    """q* = softmax(-K), as ``capacity_upper_bound`` reports it."""

    def test_equal_entropies_give_uniform(self):
        # a doubly stochastic circulant's rows all have one entropy, and its
        # inverse's rows sum to 1, so K is constant
        m = validate_channel([np.roll([0.7, 0.2, 0.1, 0.0], i) for i in range(4)])
        q = capacity_upper_bound(m).q_star
        assert q == pytest.approx([0.25] * 4, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        a=arrays(np.float64, (4, 4), elements=st.floats(0.01, 1.0)),
        shift=st.floats(-30, 30, allow_nan=False),
    )
    def test_shift_invariance(self, a, shift):
        # q* is 2^(-K) normalized, whatever constant K is shifted by first;
        # the added diagonal makes A diagonally dominant, hence invertible
        a = a + 4.0 * np.eye(4)
        r = capacity_upper_bound(validate_channel(a / a.sum(axis=1, keepdims=True)))
        w = np.exp2(-(r.inverse_entropies + shift))
        assert np.allclose(r.q_star, w / w.sum(), atol=1e-12)
        assert r.q_star.min() > 0
        assert r.q_star.sum() == pytest.approx(1.0, abs=1e-12)


class TestBackProjectedInput:
    """p* = inv(A)^T q*, as ``capacity_upper_bound`` reports it."""

    def test_symmetric_matrix_uniform_q_gives_uniform_p(self):
        m = validate_channel(
            [[0.8, 0.15, 0.05], [0.15, 0.7, 0.15], [0.05, 0.15, 0.8]]
        )
        p = analyze_inverse(m).inverse.T @ np.full(3, 1 / 3)
        assert p == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_sums_to_one_even_when_infeasible(self, ex4):
        p = capacity_upper_bound(ex4).p_star
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
        assert p.min() < 0  # the unreliable channel back-projects outside the simplex


class TestCapacityUpperBound:
    def test_zero_entry_channels(self):
        # the bound needs only an invertible A; the conditions still need a
        # positive one
        for n in range(2, 6):
            r = capacity_upper_bound(validate_channel(np.eye(n)))
            assert r.upper_bound == pytest.approx(math.log2(n), rel=1e-15, abs=0)
            assert r.p_star_feasible
            assert r.spectral_condition is Condition.PRECONDITION_NOT_MET
        r = capacity_upper_bound(Z_CHANNEL)
        assert r.upper_bound == pytest.approx(math.log2(5 / 4), rel=1e-15, abs=0)
        assert r.p_star == pytest.approx([0.6, 0.4], abs=1e-15)
        est = blahut_arimoto(Z_CHANNEL, 1e-9)
        assert est.capacity <= r.upper_bound <= est.capacity + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(rows=rows_with_zeros())
    def test_bounds_invertible_channels_with_zeros(self, rows):
        m = validate_channel(rows / rows.sum(axis=1, keepdims=True))
        try:
            r = capacity_upper_bound(m)
        except SingularMatrix:
            assume(False)
        est = blahut_arimoto(m, 1e-9)
        assert r.upper_bound == math.inf or r.upper_bound >= est.capacity - 1e-9

    def test_report_invariants(self, ex1, ex3, ex4):
        for m in (ex1, ex3, ex4):
            r = capacity_upper_bound(m)
            assert r.q_star.min() > 0
            assert r.q_star.sum() == pytest.approx(1.0, abs=1e-10)
            assert r.p_star.sum() == pytest.approx(1.0, abs=1e-8)
            assert 0.0 <= r.upper_bound <= math.log2(m.n)
            if r.p_star_feasible:
                mi = mutual_information(m, r.p_star)
                assert r.upper_bound == pytest.approx(mi, abs=1e-9)

    def test_stationarity_of_q_star(self, ex1):
        # no simplex direction of size 1e-4 from q* may gain more than 1e-8
        r = capacity_upper_bound(ex1)
        a = r.analysis

        def objective(q):
            return entropy2(q) + float((a.inverse.T @ q) @ ex1.neg_entropies)

        base = objective(r.q_star)
        rng = np.random.default_rng(11)
        for _ in range(200):
            step = rng.normal(size=3)
            step -= step.mean()
            step *= 1e-4 / np.abs(step).sum()
            q = r.q_star + step
            if q.min() <= 0:
                continue
            assert objective(q) <= base + 1e-8


class TestUpperBoundIsTheDualAtQStar:
    """The printed bound is U(q*) = max_i D(A_i || q*) at the q* the inverse
    produced, so it stays a valid bound where the inverse has lost its digits."""

    @pytest.mark.parametrize(
        "n, steps, i",
        [(30, 13, 6), (30, 13, 7), (60, 25, 6), (60, 25, 8)],
        ids=["n30-0.26", "n30-0.30", "n60-0.14", "n60-0.18"],
    )
    def test_ill_conditioned_relay_sweep_points(self, n, steps, i):
        m = relay_miso(n, cli_grid(0.02, 0.50, steps)[i])
        report = capacity_upper_bound(m)
        expected = divergences_by_loops(m, report.q_star).max()
        if math.isinf(expected):
            assert report.upper_bound == math.inf
        else:
            assert report.upper_bound == pytest.approx(expected, rel=1e-12, abs=0)
        capacity = blahut_arimoto(m, 1e-9, start=report.p_star).capacity
        assert report.upper_bound >= capacity - 1e-9


class TestFeasibilityCondition:
    def test_bsc_by_hand(self, bsc01):
        # inverse column ratios are 1.125/0.125 = 9, the spread of K is zero,
        # so the threshold is (n-1) * 2^0 = 1
        assert capacity_upper_bound(bsc01).feasibility_condition is Condition.HOLDS


class TestSpectralCondition:
    def test_reliable_example_holds(self, ex1):
        r = capacity_upper_bound(ex1)
        assert r.spectral_condition is Condition.HOLDS
        assert r.root_exponent == pytest.approx(19.0 / 18.0, abs=1e-12)

    def test_relay_midrange_fails_and_edge_holds(self):
        # dominance holds at alpha=0.2 but the inequality does not; very
        # reliable uplinks (alpha=0.01) satisfy it outright
        assert capacity_upper_bound(relay_miso(3, 0.2)).spectral_condition is Condition.FAILS
        assert capacity_upper_bound(relay_miso(3, 0.01)).spectral_condition is Condition.HOLDS


class TestCoarseCondition:
    def test_near_noiseless_binary_holds(self):
        eps = 1e-6
        m = validate_channel([[1 - eps, eps], [eps, 1 - eps]])
        assert capacity_upper_bound(m).coarse_condition is Condition.HOLDS


class TestGershgorinRadii:
    """c_min sums each row's off-diagonal entries themselves: the row sum less
    A_ii rounds an off-diagonal mass below about eps/2 of the row to 0."""

    @pytest.mark.parametrize(
        "m", [bsc(1e-20), random_sdd_positive(4, 1e16, 3)], ids=["bsc-1e-20", "sdd-n4-r1e16"]
    )
    def test_tiny_off_diagonal_mass_keeps_c_min_and_every_condition(self, m):
        a = m.entries
        by_loop = min(
            a[i, i] / sum(a[i, j] for j in range(m.n) if j != i) for i in range(m.n)
        )
        r = capacity_upper_bound(m)
        assert r.analysis.c_min == pytest.approx(by_loop, rel=1e-12, abs=0)
        verdicts = {r.feasibility_condition, r.spectral_condition, r.coarse_condition,
                    r.gershgorin_condition}
        assert verdicts == {Condition.HOLDS}

    def test_subnormal_off_diagonal_mass_gives_inf_without_a_warning(self):
        # 1 / 5e-324 overflows; tier-1 turns a RuntimeWarning into an error
        assert capacity_upper_bound(bsc(5e-324)).analysis.c_min == math.inf

    def test_infinite_c_min_takes_the_ladders_limits(self):
        # A is the identity to the last bit: V = 1, sigma* = 1, H*_max = 0, every
        # condition holds, and each value is bsc(1e-300)'s (approx fails on NaN)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = capacity_upper_bound(bsc(5e-324))
        near = capacity_upper_bound(bsc(1e-300))
        verdicts = {r.feasibility_condition, r.spectral_condition, r.coarse_condition,
                    r.gershgorin_condition}
        assert verdicts == {Condition.HOLDS}
        fields = ("sigma_star", "h_max_star", "root_exponent")
        assert [getattr(r, f) for f in fields] == pytest.approx(
            [getattr(near, f) for f in fields], rel=0, abs=1e-12
        )


class TestSpectralSurrogates:
    def test_arithmetic_identity(self, ex1):
        # c_min = 19, n = 3: (19 - 1.5) / 20
        r = capacity_upper_bound(ex1)
        assert r.sigma_star == (r.analysis.c_min - 1.5) / (r.analysis.c_min + 1.0)


class TestGershgorinCondition:
    def test_small_ratio_hits_sigma_star_guard(self):
        m = beta_family(0.4)  # c_min = 1.5 <= n/2 = 2, sigma* <= 0
        assert capacity_upper_bound(m).gershgorin_condition is Condition.PRECONDITION_NOT_MET


class TestPropertySuite:
    def test_entropy_spread_bound(self, sdd_fixtures):
        for _, _, seed, m in sdd_fixtures[::5]:
            r = capacity_upper_bound(m)
            a, k = r.analysis, r.inverse_entropies
            v = a.c_min / (a.c_min - 1.0)
            limit = m.n * a.h_max * v / a.sigma_min + 1e-8
            assert k.max() - k.min() <= limit, seed

    def test_bound_dominates_iterative_capacity(self, sdd_fixtures):
        for _, _, seed, m in sdd_fixtures[::10]:
            r = capacity_upper_bound(m)
            est = blahut_arimoto(m, 1e-9)
            assert r.upper_bound >= est.capacity - 1e-6, seed
            assert 0.0 <= r.upper_bound <= math.log2(m.n) + 1e-12, seed

    def test_larger_alphabets(self):
        # the structural inverse properties hold beyond the acceptance sizes
        for n in (7, 8):
            for seed in range(301, 305):
                m = random_sdd_positive(n, 2.0, seed)
                a = analyze_inverse(m)
                inv = a.inverse
                assert np.abs(inv.sum(axis=1) - 1.0).max() <= 1e-8
                assert inv.max() <= 1.0 / a.sigma_min + 1e-8
                for i in range(n):
                    assert inv[i, i] > 0
                    assert (inv[i, i] >= np.abs(inv[:, i]) - 1e-15).all()
