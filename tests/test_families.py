import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcbounds import (
    Condition,
    InvalidParameter,
    analyze_inverse,
    build_family,
    capacity_upper_bound,
    fixed_example,
    random_sdd_positive,
    validate_channel,
)
from dmcbounds.families import (
    SplitMix64,
    _relay_entries,
    _relay_table,
    beta_family,
    bsc,
    gamma_family,
    relay_miso,
)
from conftest import cli_grid, entropy2


def relay_comb_products(n):
    """The exact int products comb(n+1-i, j-i+s) * comb(i-1, s) of the scalar
    loop with their powers of alpha and of 1-alpha, per 0-indexed entry:
    [(row, col, [(product, flips, n - flips), ...]), ...]."""
    terms = []
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            by_s = []
            for s in range(max(i - j, 0), min(n + 1 - j, i - 1) + 1):
                flips = j - i + 2 * s
                comb = math.comb(n + 1 - i, j - i + s) * math.comb(i - 1, s)
                by_s.append((comb, flips, n - flips))
            terms.append((i - 1, j - 1, by_s))
    return terms


def relay_entries_by_loops(n, alpha, products):
    """The scalar triple loop that the binomial table replaced: entry (i, j),
    1-indexed, sums over s, the number of ones flipped to zero. ``products``
    is ``relay_comb_products(n)``. The powers are the ones the loop computed,
    so every int * float product and every sum is the same as in the loop."""
    apow = [alpha**k for k in range(n + 1)]
    bpow = [(1.0 - alpha) ** k for k in range(n + 1)]
    a = np.zeros((n + 1, n + 1))
    for row, col, by_s in products:
        total = 0.0
        for comb, flips, rest in by_s:
            total += comb * apow[flips] * bpow[rest]
        a[row, col] = total
    return a


class TestSplitMix64:
    def test_reference_vectors(self):
        # first outputs of the canonical C splitmix64 for these seeds
        g = SplitMix64(0)
        assert g.next_uint64() == 0xE220A8397B1DCDAF
        g = SplitMix64(1234567)
        assert [g.next_uint64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint64(2**63 + 5)], ids=["int64", "uint64"])
    def test_numpy_integer_seed_draws_the_python_int_stream(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = SplitMix64(seed)
            draws = [g.next_uint64() for _ in range(3)] + [g.next_float()]
        expected = SplitMix64(int(seed))
        assert draws == [expected.next_uint64() for _ in range(3)] + [expected.next_float()]

    def test_float_seed_is_refused(self):
        with pytest.raises(InvalidParameter):
            SplitMix64(1.5)

    @pytest.mark.parametrize("seed", [True, False, 2.5])
    def test_seed_refused_like_random_sdd_positive(self, seed):
        # a bool is not a seed: True used to run as seed 1
        with pytest.raises(InvalidParameter):
            SplitMix64(seed)
        with pytest.raises(InvalidParameter):
            random_sdd_positive(4, 3.0, seed)

    def test_floats_are_in_unit_interval(self):
        g = SplitMix64(99)
        xs = [g.next_float() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)


class TestFixedExamples:
    def test_reliable_example_rows(self):
        m = fixed_example("example-1")
        assert list(m.entries[0]) == [0.95, 0.01, 0.04]

    def test_permutation_example_rows(self):
        m = fixed_example("example-3")
        assert list(m.entries[2]) == [0.04, 0.03, 0.93]

    def test_unreliable_example_rows(self):
        m = fixed_example("example-4")
        assert list(m.entries[2]) == [0.5, 0.05, 0.45]

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameter):
            fixed_example("example-9")


class TestRelayMiso:
    def test_error_free_uplinks_give_identity(self):
        m = relay_miso(3, 0.0)
        assert np.array_equal(m.entries, np.eye(4))

    def test_explicit_entries_at_alpha_03(self):
        m = relay_miso(3, 0.3)
        assert m.entries[0, 0] == pytest.approx(0.7**3, abs=1e-15)
        assert m.entries[1, 1] == pytest.approx(
            2 * 0.09 * 0.7 + 0.7**3, abs=1e-15
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        alpha=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_rows_are_stochastic_for_any_size(self, n, alpha):
        m = relay_miso(n, alpha)
        assert m.entries.shape == (n + 1, n + 1)
        assert np.abs(m.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_flip_symmetry_reverses_columns(self):
        for alpha in (0.1, 0.3, 0.45):
            left = np.asarray(relay_miso(3, alpha).entries)
            right = np.asarray(relay_miso(3, 1.0 - alpha).entries)[:, ::-1]
            assert np.abs(left - right).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 61))
    def test_table_matches_scalar_loop_bit_for_bit(self, n):
        alphas = [0.0, 1.0, 0.5, 0.17, 0.83]
        alphas += cli_grid(0.02, 0.50, 13) + cli_grid(0.02, 0.98, 49)
        products = relay_comb_products(n)
        for alpha in alphas:
            expected = relay_entries_by_loops(n, alpha, products)
            assert np.array_equal(_relay_entries(n, alpha), expected), alpha

    def test_cached_table_is_read_only_and_results_are_fresh(self):
        first = relay_miso(30, 0.2).entries
        second = relay_miso(30, 0.2).entries
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        assert not np.shares_memory(_relay_entries(30, 0.2), _relay_entries(30, 0.2))
        for table in _relay_table(30):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            relay_miso(0, 0.5)
        with pytest.raises(InvalidParameter):
            relay_miso(3, 1.5)
        with pytest.raises(InvalidParameter):
            relay_miso(61, 0.5)
        with pytest.raises(InvalidParameter):
            relay_miso(2, "x")


class TestGammaFamily:
    def test_half_gamma_entry_values(self):
        m = gamma_family(0.5)
        assert set(np.round(np.asarray(m.entries).ravel(), 12)) == {0.125, 0.375}
        assert sorted(m.entries[0]) == [0.125, 0.125, 0.375, 0.375]

    def test_rows_are_permutations_of_each_other(self):
        for g in (0.05, 0.2, 0.7, 0.95):
            m = gamma_family(g)
            first = np.sort(m.entries[0])
            for row in m.entries[1:]:
                assert np.allclose(np.sort(row), first, atol=0)

    def test_equal_row_entropies(self):
        m = gamma_family(0.23)
        ents = [entropy2(row) for row in m.entries]
        assert max(ents) - min(ents) <= 1e-15

    def test_reliable_gamma_bound_is_log_n_minus_row_entropy(self):
        m = gamma_family(0.01)
        report = capacity_upper_bound(m)
        assert report.gershgorin_condition is Condition.HOLDS
        expected = 2.0 - entropy2(m.entries[0])
        assert report.upper_bound == pytest.approx(expected, abs=1e-9)

    def test_domain_is_open(self):
        with pytest.raises(InvalidParameter):
            gamma_family(0.0)
        with pytest.raises(InvalidParameter):
            gamma_family(1.0)
        with pytest.raises(InvalidParameter):
            gamma_family(None)


class TestBetaFamily:
    def test_zero_beta_is_identity(self):
        assert np.array_equal(beta_family(0.0).entries, np.eye(4))

    def test_entry_four_three_at_half(self):
        assert beta_family(0.5).entries[3, 2] == pytest.approx(0.35, abs=1e-15)

    def test_dominance_boundary_at_half(self):
        assert analyze_inverse(beta_family(0.49)).is_sdd
        assert not analyze_inverse(beta_family(0.5)).is_sdd
        assert not analyze_inverse(beta_family(0.51)).is_sdd

    def test_rows_stochastic_everywhere(self):
        for b in np.linspace(0.0, 1.0, 21):
            m = beta_family(b)
            assert np.abs(m.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_non_real_parameter_is_refused(self):
        with pytest.raises(InvalidParameter):
            beta_family(None)


class TestBsc:
    def test_structure(self):
        m = bsc(0.1)
        assert np.array_equal(m.entries, [[0.9, 0.1], [0.1, 0.9]])

    def test_domain(self):
        with pytest.raises(InvalidParameter):
            bsc(1.2)
        with pytest.raises(InvalidParameter):
            bsc("x")


class TestRandomSddPositive:
    def test_ratio_floor_is_respected(self):
        m = random_sdd_positive(3, 20.0, 42)
        a = analyze_inverse(m)
        assert a.c_min >= 20.0
        assert a.is_positive and a.is_sdd

    def test_same_seed_reproduces_bits(self):
        a = random_sdd_positive(4, 3.0, 7)
        b = random_sdd_positive(4, 3.0, 7)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seeds_differ(self):
        a = random_sdd_positive(4, 3.0, 7)
        b = random_sdd_positive(4, 3.0, 8)
        assert not np.array_equal(a.entries, b.entries)

    def test_dominance_at_small_ratio(self):
        m = random_sdd_positive(5, 2.0, 7)
        a = analyze_inverse(m)
        assert a.is_sdd
        diag = np.diag(m.entries)
        off = m.entries.sum(axis=1) - diag
        assert (diag > off).all()

    def test_every_fixture_validates(self, sdd_fixtures):
        for n, min_ratio, seed, m in sdd_fixtures[::9]:
            validate_channel(np.asarray(m.entries))
            assert analyze_inverse(m).c_min >= min_ratio

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            random_sdd_positive(1, 2.0, 0)
        with pytest.raises(InvalidParameter):
            random_sdd_positive(3, 1.0, 0)
        with pytest.raises(InvalidParameter):
            random_sdd_positive(3, "x", 1)
        # a row ratio min_ratio*(1+u) that overflows to inf makes its row a unit vector
        for min_ratio in (math.inf, 1e308):
            with pytest.raises(InvalidParameter):
                random_sdd_positive(3, min_ratio, 1)
        assert random_sdd_positive(3, 1e307, 1).entries.min() > 0.0

    @pytest.mark.parametrize(
        "n, seed", [(4.0, 1), (4, 1.5), (4, "1")], ids=["float-n", "float-seed", "str-seed"]
    )
    def test_rejects_non_integer_n_or_seed(self, n, seed):
        with pytest.raises(InvalidParameter):
            random_sdd_positive(n, 3.0, seed)

    def test_accepts_numpy_integers(self):
        a = random_sdd_positive(np.int64(4), 3.0, np.int64(7))
        assert np.array_equal(a.entries, random_sdd_positive(4, 3.0, 7).entries)


class TestBuildFamily:
    def test_fixed_examples_ignore_params(self):
        m = build_family("example-3")
        assert np.array_equal(m.entries, fixed_example("example-3").entries)

    def test_relay_requires_n(self):
        with pytest.raises(InvalidParameter):
            build_family("relay-miso", parameter=0.3)

    def test_missing_parameter_rejected(self):
        with pytest.raises(InvalidParameter):
            build_family("beta")

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameter):
            build_family("quaternary-erasure", parameter=0.1)

    def test_random_family_uses_seed(self):
        a = build_family("random-sdd", n=3, parameter=2.0, seed=5)
        b = random_sdd_positive(3, 2.0, 5)
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize(
        "family, n, x",
        [("bsc", None, 0.1), ("gamma", None, 0.3), ("beta", None, 0.2),
         ("relay-miso", 3, 0.2), ("random-sdd", 3, 2.0)],
    )
    def test_numpy_float_parameter_builds_as_its_value(self, family, n, x, dtype):
        # under NEP 50 (numpy >= 2) 1.0 - np.float32(x) stays float32, and its
        # rows would miss a sum of 1 by more than 1e-9
        a = build_family(family, n=n, parameter=dtype(x))
        b = build_family(family, n=n, parameter=float(dtype(x)))
        assert a.entries.tobytes() == b.entries.tobytes()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: build_family("example-1", parameter=0.5),
         "family 'example-1' takes no parameter"),
        (lambda: build_family("bsc", n=7, parameter=0.1, seed=3), "family 'bsc' takes no n"),
        (lambda: build_family("relay-miso", n=3, parameter=0.1, seed=3),
         "family 'relay-miso' takes no seed"),
        (lambda: build_family("beta"), "beta must be in [0, 1], got None"),
        (lambda: build_family("relay-miso", parameter=0.3),
         "n must be a positive integer, got None"),
        (lambda: build_family("random-sdd", parameter=2.0),
         "n must be an integer of at least 2, got None"),
        (lambda: build_family("quaternary-erasure"), "unknown family 'quaternary-erasure'"),
        (lambda: build_family([], parameter=0.5), "family name must be a string, got []"),
        (lambda: fixed_example([]), "unknown fixed example []"),
        (lambda: build_family("gamma", parameter=1.5), "gamma must be in (0, 1), got 1.5"),
        (lambda: build_family("beta", parameter=1.5), "beta must be in [0, 1], got 1.5"),
    ],
    ids=[
        "no-parameter", "no-n", "no-seed", "requires-parameter", "relay-requires-n",
        "sdd-requires-n", "unknown",
        "family-not-a-string", "fixed-example-not-a-string",
        "generator-domain", "closed-generator-domain",
    ],
)
def test_dispatch_contract(call, expected):
    """The message of each refusal: build_family checks the family name, then
    refuses a given argument the family does not take (n first, then parameter,
    then seed), and a generator its n and parameter, None included."""
    with pytest.raises(InvalidParameter, match=f"^{re.escape(expected)}$"):
        call()
