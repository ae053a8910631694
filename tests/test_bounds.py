import math

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
    relay_miso,
    validate_channel,
)
from conftest import cli_grid, divergences_by_loops, entropy2

Z_CHANNEL = validate_channel([[1.0, 0.0], [0.5, 0.5]])


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

    def test_reported_output_vector(self, ex1):
        q = capacity_upper_bound(ex1).q_star
        assert q == pytest.approx([0.33087, 0.32806, 0.34107], abs=1e-4)

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

    def test_reliable_example(self, ex1):
        p = capacity_upper_bound(ex1).p_star
        assert p == pytest.approx([0.33067, 0.33480, 0.33453], abs=1e-4)

    def test_permutation_row_example(self, ex3):
        p = capacity_upper_bound(ex3).p_star
        assert p == pytest.approx([0.32959, 0.33337, 0.33704], abs=1e-4)

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
    def test_reliable_example(self, ex1):
        r = capacity_upper_bound(ex1)
        assert r.upper_bound == pytest.approx(1.2715, abs=1e-3)
        assert r.p_star_feasible

    def test_unreliable_example(self, ex4):
        r = capacity_upper_bound(ex4)
        assert r.upper_bound == pytest.approx(0.19282, abs=1e-3)
        assert not r.p_star_feasible

    def test_permutation_row_example_closed_form(self, ex3):
        r = capacity_upper_bound(ex3)
        assert r.upper_bound == pytest.approx(1.1501, abs=1e-3)
        expected = math.log2(3) - entropy2([0.93, 0.04, 0.03])
        assert r.upper_bound == pytest.approx(expected, abs=1e-9)

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
    @given(
        rows=st.integers(2, 6).flatmap(
            lambda n: arrays(
                np.float64,
                (n, n),
                elements=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
            )
        )
    )
    def test_bounds_invertible_channels_with_zeros(self, rows):
        sums = rows.sum(axis=1, keepdims=True)
        assume((sums > 0).all() and (rows == 0).any())
        m = validate_channel(rows / sums)
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
    def test_reliable_example_holds(self, ex1):
        assert capacity_upper_bound(ex1).feasibility_condition is Condition.HOLDS

    def test_unreliable_example_precondition(self, ex4):
        assert (
            capacity_upper_bound(ex4).feasibility_condition
            is Condition.PRECONDITION_NOT_MET
        )

    def test_bsc_by_hand(self, bsc01):
        # inverse column ratios are 1.125/0.125 = 9, the spread of K is zero,
        # so the threshold is (n-1) * 2^0 = 1
        assert capacity_upper_bound(bsc01).feasibility_condition is Condition.HOLDS


class TestSpectralCondition:
    def test_reliable_example_holds(self, ex1):
        r = capacity_upper_bound(ex1)
        assert r.spectral_condition is Condition.HOLDS
        assert r.root_exponent == pytest.approx(19.0 / 18.0, abs=1e-12)

    def test_unreliable_example_precondition(self, ex4):
        r = capacity_upper_bound(ex4)
        assert r.spectral_condition is Condition.PRECONDITION_NOT_MET
        assert math.isnan(r.root_exponent)

    def test_relay_midrange_fails_and_edge_holds(self):
        # dominance holds at alpha=0.2 but the inequality does not; very
        # reliable uplinks (alpha=0.01) satisfy it outright
        assert capacity_upper_bound(relay_miso(3, 0.2)).spectral_condition is Condition.FAILS
        assert capacity_upper_bound(relay_miso(3, 0.01)).spectral_condition is Condition.HOLDS


class TestCoarseCondition:
    def test_reliable_example_fails(self, ex1):
        # (c_min-1)/(n-1)^2 = 4.5 while the right side is 2^(6 log2 3 / 0.924)
        assert capacity_upper_bound(ex1).coarse_condition is Condition.FAILS

    def test_unreliable_example_precondition(self, ex4):
        assert capacity_upper_bound(ex4).coarse_condition is Condition.PRECONDITION_NOT_MET

    def test_near_noiseless_binary_holds(self):
        eps = 1e-6
        m = validate_channel([[1 - eps, eps], [eps, 1 - eps]])
        assert capacity_upper_bound(m).coarse_condition is Condition.HOLDS


class TestSpectralSurrogates:
    def test_reliable_example(self, ex1):
        r = capacity_upper_bound(ex1)
        assert r.sigma_star == pytest.approx(0.875, abs=1e-9)
        assert r.h_max_star == pytest.approx(0.3364, abs=1e-3)

    def test_permutation_row_example(self, ex3):
        r = capacity_upper_bound(ex3)
        assert r.sigma_star == pytest.approx(0.825, abs=1e-3)
        assert r.h_max_star == pytest.approx(0.43592, abs=1e-3)

    def test_arithmetic_identity(self, ex1):
        # c_min = 19, n = 3: (19 - 1.5) / 20
        r = capacity_upper_bound(ex1)
        assert r.sigma_star == (r.analysis.c_min - 1.5) / (r.analysis.c_min + 1.0)

    def test_requires_dominance(self, ex4):
        r = capacity_upper_bound(ex4)
        assert math.isnan(r.sigma_star) and math.isnan(r.h_max_star)


class TestGershgorinCondition:
    def test_reliable_example_holds(self, ex1):
        assert capacity_upper_bound(ex1).gershgorin_condition is Condition.HOLDS

    def test_permutation_row_example_fails(self, ex3):
        # the surrogate substitution costs too much here: the true-spectrum
        # test holds with margin 1.4971 vs 1.4673, but n*H*_max/sigma* rises
        # to 1.5852 and the inequality flips
        r = capacity_upper_bound(ex3)
        assert r.gershgorin_condition is Condition.FAILS
        assert r.spectral_condition is Condition.HOLDS

    def test_small_ratio_hits_sigma_star_guard(self):
        from dmcbounds import beta_family

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
        from dmcbounds import random_sdd_positive

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
