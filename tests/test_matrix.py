import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcbounds import (
    ConvergenceFailure,
    DmcError,
    InvalidPmf,
    MatrixFormatError,
    NegativeEntry,
    NotSquare,
    RowSumViolation,
    SingularMatrix,
    analyze_inverse,
    dump_matrix_csv,
    load_matrix_csv,
    mutual_information,
    random_sdd_positive,
    validate_channel,
)
from dmcbounds.families import relay_miso
from dmcbounds.matrix import gershgorin, invert, min_singular_value, row_entropies
from conftest import entropy2, spy

EPS = np.finfo(float).eps


def mp_singular_values(entries, dps=60):
    """Singular values of A in ``dps``-digit arithmetic, independent of LAPACK."""
    with mpmath.workdps(dps):
        sv = mpmath.svd_r(mpmath.matrix(np.asarray(entries).tolist()), compute_uv=False)
        return sorted(float(v) for v in sv)


def validate_by_loops(raw):
    """The row-major double loop that validate_channel's masks replaced:
    the clamped entries, or (error class, row[, col]) of the first fault.
    A row sum of NaN is a fault: the test is written so that NaN fails it."""
    entries = np.array(raw, dtype=float)
    n = entries.shape[0]
    for i in range(n):
        for j in range(n):
            if entries[i, j] < 0.0:
                if entries[i, j] < -1e-12:
                    return (NegativeEntry, i, j)
                entries[i, j] = 0.0
    sums = entries.sum(axis=1)
    for i in range(n):
        if not abs(sums[i] - 1.0) <= 1e-9:
            return (RowSumViolation, i)
    return entries


def outcome(load, source):
    """The entries' shape and bytes (bit-for-bit, -0.0 included), or the
    error's type and message."""
    try:
        entries = load(source).entries
    except DmcError as exc:
        return type(exc), str(exc)
    return entries.shape, entries.tobytes()


def assert_backward_stable_sigma_min(m, sv_ref):
    """|sigma - sigma_ref| <= 4 n eps sigma_max, the accuracy of a backward
    stable SVD of A (the eigenvalues of A^T A only reach it for sigma_max^2)."""
    got = analyze_inverse(m).sigma_min
    assert abs(got - sv_ref[0]) <= 4 * m.n * EPS * sv_ref[-1], (got, sv_ref[0])


class TestValidate:
    def test_example_matrix_is_valid(self, ex1):
        assert ex1.entries[0, 0] == 0.95
        assert ex1.entries[2, 2] == 0.96

    def test_row_sum_violation_reports_row_and_sum(self):
        with pytest.raises(RowSumViolation) as err:
            validate_channel([[0.5, 0.4], [0.5, 0.5]])
        assert err.value.row == 0
        assert err.value.total == pytest.approx(0.9)
        assert str(err.value) == "row 1 sums to 0.9, expected 1 within 1e-9"

    @pytest.mark.parametrize(
        "raw", [[["a", "b"], ["c", "d"]], [[1.0], [0.5, 0.5]]], ids=["non-numeric", "ragged"]
    )
    def test_non_numeric_or_ragged_rejected(self, raw):
        with pytest.raises(NotSquare, match="^expected a square numeric matrix: "):
            validate_channel(raw)

    def test_first_negative_entry_in_row_major_order_reported(self):
        raw = [[0.5, 0.5, 0.0], [0.7, 0.5, -0.2], [1.2, -0.1, -0.1]]
        with pytest.raises(NegativeEntry) as err:
            validate_channel(raw)
        assert (err.value.row, err.value.col, err.value.value) == (1, 2, -0.2)
        assert type(err.value.value) is float  # repr -0.2, not np.float64(-0.2)
        assert str(err.value) == "row 2, column 3: -0.2 is negative"

    def test_negative_entry_reported_before_nan_row(self):
        with pytest.raises(NegativeEntry) as err:
            validate_channel([[math.nan, 0.5], [1.5, -0.5]])
        assert (err.value.row, err.value.col) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 5), data=st.data())
    def test_matches_elementwise_reference(self, n, data):
        values = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1e-13, -2e-12, -0.25, math.nan])
        raw = [[data.draw(values) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            for row in raw:
                row[-1] = 1.0 - sum(row[:-1])
        expected = validate_by_loops(raw)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(validate_channel(raw).entries, expected)
        else:
            with pytest.raises(expected[0]) as err:
                validate_channel(raw)
            where = (err.value.row, err.value.col) if expected[0] is NegativeEntry else (err.value.row,)
            assert where == expected[1:]

    def test_entries_are_read_only(self, ex1):
        with pytest.raises(ValueError):
            ex1.entries[0, 0] = 0.5

    def test_neg_entropies_are_read_only(self, ex1):
        for row, neg in zip(ex1.entries, ex1.neg_entropies):
            assert neg == pytest.approx(-entropy2(row), abs=1e-15)
        with pytest.raises(ValueError):
            ex1.neg_entropies[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex1.neg_entropies = np.zeros(3)


class TestInvert:
    def test_identity(self):
        m = validate_channel(np.eye(3))
        assert np.allclose(analyze_inverse(m).inverse, np.eye(3), atol=0)

    def test_bsc_analytic_inverse(self, bsc01):
        # 2x2 inverse: 1/det * [[d,-b],[-c,a]] with det = 0.8
        expected = np.array([[1.125, -0.125], [-0.125, 1.125]])
        assert np.allclose(analyze_inverse(bsc01).inverse, expected, atol=1e-12)

    def test_rank_one_raises(self):
        m = validate_channel([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularMatrix) as err:
            analyze_inverse(m)
        assert err.value.cond >= 1e13
        assert "condition number" in str(err.value)
        # what needs no inverse still rides along
        analysis = err.value.analysis
        assert analysis.inverse is None and analysis.cond >= 1e13
        assert analysis.sigma_min == np.linalg.svd(m.entries, compute_uv=False)[-1]

    def test_cond_above_limit_raises(self):
        # relay n=60 alpha=0.20 has cond 3.2e13: every digit of its inverse is noise
        with pytest.raises(SingularMatrix) as err:
            analyze_inverse(relay_miso(60, 0.20))
        assert err.value.cond == pytest.approx(3.2e13, rel=0.05)

    def test_solve_failure_raises_singular_matrix(self, monkeypatch):
        # np.linalg.inv is LAPACK's gesv solve on the identity
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SingularMatrix):
            analyze_inverse(validate_channel([[0.9, 0.1], [0.2, 0.8]]))

    def test_residual_and_row_sums(self, ex1, ex4):
        for m in (ex1, ex4):
            inv = analyze_inverse(m).inverse
            assert np.abs(m.entries @ inv - np.eye(m.n)).max() <= 1e-8
            assert np.abs(inv.sum(axis=1) - 1.0).max() <= 1e-8


class TestGershgorin:
    def test_reliable_example(self, ex1):
        assert analyze_inverse(ex1).c_min == pytest.approx(19.0, abs=1e-9)

    def test_permutation_row_example(self, ex3):
        assert analyze_inverse(ex3).c_min == pytest.approx(0.93 / 0.07, abs=1e-9)

    def test_identity_gives_infinity(self):
        assert math.isinf(analyze_inverse(validate_channel(np.eye(3))).c_min)

    def test_mixed_zero_radius_rows(self):
        m = validate_channel([[1.0, 0.0], [0.1, 0.9]])
        assert analyze_inverse(m).c_min == pytest.approx(9.0)


class TestMinSingularValue:
    def test_identity(self):
        assert analyze_inverse(validate_channel(np.eye(4))).sigma_min == 1.0

    def test_matches_svd_oracle_on_random_fixtures(self, sdd_fixtures):
        for _, _, seed, m in sdd_fixtures[::7]:
            ref = mp_singular_values(m.entries, dps=30)
            assert_backward_stable_sigma_min(m, ref)

    def test_near_singular_circulant(self):
        # (1-eps) I + eps * shift is normal, so its singular values are the
        # moduli of its eigenvalues (1-eps) + eps w^k; w = -1 at n = 6 gives
        # sigma_min = |1 - 2 eps|, here |a - b| of the stored entries (exact)
        n, eps = 6, 0.5 - 1e-8
        m = validate_channel((1.0 - eps) * np.eye(n) + eps * np.roll(np.eye(n), 1, axis=1))
        a, b = m.entries[0, 0], m.entries[0, 1]
        exact = abs(a - b)
        assert exact == pytest.approx(2e-8, rel=1e-7)
        assert abs(analyze_inverse(m).sigma_min - exact) <= 4 * n * EPS * (a + b)

    @pytest.mark.parametrize(
        "alpha, published",
        [(0.20, 1.798e-7), (0.26, 2.057e-10), (0.30, 8.180e-13)],
    )
    def test_ill_conditioned_relay30(self, alpha, published):
        m = relay_miso(30, alpha)
        ref = mp_singular_values(m.entries)
        assert ref[0] == pytest.approx(published, rel=1e-3)
        assert_backward_stable_sigma_min(m, ref)
        # each singular value is within e = 4 n eps sigma_max of the exact one,
        # which brackets cond = sigma_max / sigma_min
        e = 4 * m.n * EPS * ref[-1]
        cond = analyze_inverse(m).cond
        assert (ref[-1] - e) / (ref[0] + e) <= cond <= (ref[-1] + e) / (ref[0] - e), cond

    def test_invariant_under_permutations(self, ex1):
        base = analyze_inverse(ex1).sigma_min
        perm = np.array([2, 0, 1])
        rows = validate_channel(np.asarray(ex1.entries)[perm, :])
        cols = validate_channel(np.asarray(ex1.entries)[:, perm])
        assert analyze_inverse(rows).sigma_min == pytest.approx(base, rel=1e-9)
        assert analyze_inverse(cols).sigma_min == pytest.approx(base, rel=1e-9)

    def test_svd_failure_raises_convergence_failure(self, monkeypatch):
        def no_convergence(a, compute_uv=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(ConvergenceFailure) as err:
            analyze_inverse(validate_channel([[0.9, 0.1], [0.2, 0.8]]))
        assert err.value.detail == "SVD did not converge"
        assert "singular value decomposition" in str(err.value)


class TestRowEntropies:
    def test_identity_rows_have_zero_entropy(self):
        m = validate_channel(np.eye(2))
        h_max = analyze_inverse(m).h_max
        assert np.array_equal(m.neg_entropies, np.zeros(2))
        assert h_max == 0.0
        # +0, not -0: a deterministic row's entropy prints as 0
        h = [h_max, *m.neg_entropies, mutual_information(m, [1.0, 0.0])]
        assert not np.signbit(h).any()

    def test_permutation_row_example_h_max(self, ex3):
        assert analyze_inverse(ex3).h_max == pytest.approx(0.43489, abs=1e-4)
        # rows are permutations of one another, so entropies coincide
        assert np.allclose(ex3.neg_entropies, ex3.neg_entropies[0])


class TestAnalyzeInverse:
    def test_reliable_example_flags(self, ex1):
        a = analyze_inverse(ex1)
        assert a.is_positive and a.is_sdd

    def test_unreliable_example_not_dominant(self, ex4):
        a = analyze_inverse(ex4)
        assert a.is_positive and not a.is_sdd

    def test_identity_flags(self):
        a = analyze_inverse(validate_channel(np.eye(2)))
        assert not a.is_positive
        assert a.is_sdd

    def test_bundle_consistency(self, ex1, ex3, ex4, bsc01):
        # The only test of the four stage functions that perfbench times: they
        # agree with the bundle that analyze, compare and sweep run, whose own
        # fields every other test reads. The per-row ratios are checked here,
        # since only gershgorin returns them.
        identity = validate_channel(np.eye(3))
        mixed = validate_channel([[1.0, 0.0], [0.1, 0.9]])
        for m in (ex1, ex3, ex4, bsc01, identity, mixed, relay_miso(30, 0.30)):
            a = analyze_inverse(m)
            assert np.allclose(a.inverse, invert(m))
            assert a.c_min == gershgorin(m)[1]
            assert a.sigma_min == min_singular_value(m)
            ent, h_max = row_entropies(m)
            assert a.h_max == h_max
            assert np.array_equal(ent, -m.neg_entropies)
            assert not np.signbit(ent).any()
        assert gershgorin(ex1)[0][2] == pytest.approx(24.0, abs=1e-9)
        assert np.isinf(gershgorin(identity)[0]).all()
        assert math.isinf(gershgorin(mixed)[0][0])
        with pytest.raises(SingularMatrix) as err:
            invert(validate_channel([[0.5, 0.5], [0.5, 0.5]]))
        assert err.value.analysis.inverse is None
        assert err.value.cond >= 1e13

    def test_one_svd_per_call(self, ex3, monkeypatch):
        sv = np.linalg.svd(ex3.entries, compute_uv=False)
        calls = spy(monkeypatch, "numpy.linalg.svd")
        a = analyze_inverse(ex3)
        assert [args[0].shape for _, args, _, _ in calls] == [(3, 3)]
        assert (a.sigma_min, a.cond) == (sv[-1], sv[0] / sv[-1])


class TestMutualInformation:
    def test_noiseless_binary_uniform(self):
        m = validate_channel(np.eye(2))
        assert mutual_information(m, [0.5, 0.5]) == pytest.approx(1.0)

    def test_bsc_uniform_analytic(self, bsc01):
        expected = 1.0 - entropy2([0.9, 0.1])
        got = mutual_information(bsc01, [0.5, 0.5])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.53100, abs=1e-5)

    def test_reliable_example_at_reported_optimum(self, ex1):
        value = mutual_information(ex1, [0.33067, 0.33480, 0.33453])
        assert value == pytest.approx(1.2715, abs=1e-3)

    def test_rejects_bad_pmf(self, bsc01):
        with pytest.raises(InvalidPmf):
            mutual_information(bsc01, [0.7, 0.7])
        with pytest.raises(InvalidPmf):
            mutual_information(bsc01, [1.5, -0.5])
        with pytest.raises(InvalidPmf):
            mutual_information(bsc01, [1.0, 0.0, 0.0])
        with pytest.raises(InvalidPmf):
            mutual_information(bsc01, "ab")
        with pytest.raises(InvalidPmf):
            mutual_information(bsc01, [[0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("p", [[math.nan, math.nan], [math.nan, 1.0]])
    def test_rejects_nan_pmf(self, bsc01, p):
        # NaN compares false, so it slips past the sign and sum checks
        with pytest.raises(InvalidPmf):
            mutual_information(bsc01, p)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        pmf_seed=st.integers(0, 2**32 - 1),
    )
    def test_bounded_by_log_n(self, seed, n, pmf_seed):
        m = random_sdd_positive(n, 1.1 + (seed % 50) / 10.0, seed)
        rng = np.random.default_rng(pmf_seed)
        p = rng.dirichlet(np.ones(n))
        value = mutual_information(m, p)
        assert -1e-12 <= value <= math.log2(n) + 1e-12


def loaded(rows):
    """The outcome of a load that gives ``rows``."""
    entries = np.array(rows, dtype=float)
    return entries.shape, entries.tobytes()


I2 = loaded([[1.0, 0.0], [0.0, 1.0]])
BLANK_ROW_2 = (MatrixFormatError, "row 2, column 1: cannot parse ''")

# Edge texts for the loader, each with its outcome from a file holding its
# ASCII bytes. The texts marked "changed" had another outcome while a
# per-field float() walk could also accept a text; the rest keep theirs.
LOADER_EDGE_TEXTS = {
    # well formed, with the spellings and spacing every loader must keep
    "0.9,0.1\n0.2,0.8\n": loaded([[0.9, 0.1], [0.2, 0.8]]),
    "0.9,0.1\n0.2,0.8": loaded([[0.9, 0.1], [0.2, 0.8]]),
    " 0.9 ,\t0.1\n0.2,0.8 \n": loaded([[0.9, 0.1], [0.2, 0.8]]),
    "-0,1\n1,-0\n": loaded([[-0.0, 1.0], [1.0, -0.0]]),
    "-1e-13,1\n1,0\n": loaded([[0.0, 1.0], [1.0, 0.0]]),
    ".5,5e-1\n0.5E0,+0.5\n": loaded([[0.5, 0.5], [0.5, 0.5]]),
    "-0.5,1.5\n0,1\n": (NegativeEntry, "row 1, column 1: -0.5 is negative"),
    # blank lines: interior, whitespace-only, leading and trailing
    "1,0\n\n0,1\n": BLANK_ROW_2,
    "1,0\n  \n0,1\n": BLANK_ROW_2,
    "\n1,0\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse ''"),
    "1,0\n0,1\n\n\n": I2,
    "1,0\n0,1\n \t\n\r\n": I2,
    # comments, trailing commas and empty fields
    "#c\n1,0\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse '#c'"),
    "1,0 # c\n0,1\n": (MatrixFormatError, "row 1, column 2: cannot parse '0 # c'"),
    "1,0,\n0,1,\n": (MatrixFormatError, "row 1, column 3: cannot parse ''"),
    "1,\n0,1\n": (MatrixFormatError, "row 1, column 2: cannot parse ''"),
    # line ends: "\r\n" and a lone "\r" end a line
    "1,0\r\n0,1\r\n": I2,
    "1\r,0\n0,1\n": BLANK_ROW_2,
    "1,0\r\r\n0,1\n": BLANK_ROW_2,
    "\n1,0\r0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse ''"),
    "\n1\r0": (MatrixFormatError, "row 1, column 1: cannot parse ''"),
    # ASCII control characters: loadtxt strips \v and \f from a field's ends
    "1,\x0b0\n0,1\n": I2,
    "1,0\x0c\n0,1\n": I2,
    # the separators 0x1c-0x1f are refused at their offset (changed: a field holding
    # one could not be parsed, and a line of one was a trailing blank line)
    "1,0\x1c\n0,1\n": (MatrixFormatError, "byte offset 3: 0x1c is an ASCII separator"),
    "\x1f1,0\n0,1\n": (MatrixFormatError, "byte offset 0: 0x1f is an ASCII separator"),
    "1,0\n0,1\n\x1c\n": (MatrixFormatError, "byte offset 8: 0x1c is an ASCII separator"),
    # spellings float() and np.loadtxt may judge differently
    "0x1,0\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse '0x1'"),
    "1d0,0\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse '1d0'"),
    # changed: float() read 10 and 0.25
    "1_0,0\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse '1_0'"),
    "0.2_5,0.7_5\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse '0.2_5'"),
    "--1,0\n0,1\n": (MatrixFormatError, "row 1, column 1: cannot parse '--1'"),
    '"1",0\n0,1\n': (MatrixFormatError, """row 1, column 1: cannot parse '"1"'"""),
    "1;0\n0;1\n": (MatrixFormatError, "row 1, column 1: cannot parse '1;0'"),
    "nan,0.5\n0.5,0.5\n": (RowSumViolation, "row 1 sums to nan, expected 1 within 1e-9"),
    "inf,0\n0,1\n": (RowSumViolation, "row 1 sums to inf, expected 1 within 1e-9"),
    "Infinity,0\n0,1\n": (RowSumViolation, "row 1 sums to inf, expected 1 within 1e-9"),
    "-inf,1\n0,1\n": (NegativeEntry, "row 1, column 1: -inf is negative"),
    "1e999,0\n0,1\n": (RowSumViolation, "row 1 sums to inf, expected 1 within 1e-9"),
    # shapes
    "1\n0\n": (NotSquare, "expected a square matrix, got shape (2, 1)"),
    "1\n": (NotSquare, "alphabet size must be at least 2, got 1"),
    "1": (NotSquare, "alphabet size must be at least 2, got 1"),
    "1,0\n0,0.5,0.5\n": (NotSquare, "row 2 has 3 fields, expected 2"),
    "1,0,0\n0,1,0\n": (NotSquare, "expected a square matrix, got shape (2, 3)"),
    "": (MatrixFormatError, "empty matrix file"),
    "\n\n": (MatrixFormatError, "empty matrix file"),
    "  \n": (MatrixFormatError, "empty matrix file"),
}
EDGE_TOKENS = [*"0123456789.,+-eE_# \t\r\n\x0b\x0c\x1c\x1f", "nan", "inf"]


@st.composite
def edge_texts(draw):
    """Edge tokens at random, or a matrix text with up to three of them inserted."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(EDGE_TOKENS), max_size=30)))
    bases = ["1,0\n0,1\n", "0.5,0.5\n0.25,0.75", " .9 ,\t0.1\r\n0.2,8e-1\n\n"]
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(EDGE_TOKENS)) + text[k:]
    return text


# A refusal after np.loadtxt refuses the lines, or skips one: it names the place.
LOCATED_REFUSAL = re.compile(
    r"row \d+, column \d+: cannot parse .*|row \d+ has \d+ fields, expected \d+"
)


def written(tmp_path, content):
    """A file under ``tmp_path`` holding ``content`` (a str is written as UTF-8)."""
    path = tmp_path / "m.csv"
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


class TestCsvFormat:
    def test_seventeen_digit_round_trip_of_generated_values(self, tmp_path):
        m = random_sdd_positive(4, 2.5, 99)
        again = load_matrix_csv(written(tmp_path, dump_matrix_csv(m)))
        assert np.array_equal(again.entries, m.entries)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0\x1c\n0,1\n", "byte offset 3: 0x1c is an ASCII separator"),
            ("1,0\n\x1f 0 ,1\n", "byte offset 4: 0x1f is an ASCII separator"),
            ("1,0\x1d\n0,1\u00e9\n", "byte offset 3: 0x1d is an ASCII separator"),
            ("1,0\u00e9\n0,1\x1e\n", "byte offset 3: 0xc3 is not ASCII"),
        ],
    )
    def test_first_refused_character_is_named_at_its_offset(self, text, message, tmp_path):
        with pytest.raises(MatrixFormatError) as err:
            load_matrix_csv(written(tmp_path, text))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"0.9,0.1\n0.2,0.8\xc3\xa9\n", "byte offset 15: 0xc3 is not ASCII"),
            # far into the file: the offset counts from its first byte
            (b"0." + b"0" * 20_000 + b"\xe9,1\n1,0\n", "byte offset 20002: 0xe9 is not ASCII"),
            # Arabic-Indic digits; U+2028 and U+0085, where str.splitlines would end a line
            ("١,٠\n٠,١\n".encode(), "byte offset 0: 0xd9 is not ASCII"),
            ("0.9,0.1\n0.2,0.8\u2028\n".encode(), "byte offset 15: 0xe2 is not ASCII"),
            ("1,0\x85\n0,1\n".encode(), "byte offset 3: 0xc2 is not ASCII"),
        ],
    )
    def test_non_ascii_byte_is_a_format_error_at_its_offset(self, tmp_path, content, message):
        with pytest.raises(MatrixFormatError) as err:
            load_matrix_csv(written(tmp_path, content))
        assert str(err.value) == message

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("ratio", [1.5, 3.0, 10.0])
    def test_round_trip_at_benchmark_sizes_takes_the_fast_path(self, n, ratio, tmp_path):
        m = random_sdd_positive(n, ratio, 1000 * n + int(10 * ratio))
        path = tmp_path / "m.csv"
        dump_matrix_csv(m, path)
        assert load_matrix_csv(path).entries.tobytes() == m.entries.tobytes()

    def test_loader_holds_the_text_once(self, tmp_path):
        """The heap peak stays below 3x the file: np.loadtxt reads the bytes
        lines, the one copy of the text, after the file's bytes are dropped."""
        path = tmp_path / "m.csv"
        dump_matrix_csv(random_sdd_positive(128, 3.0, 128_030), path)
        tracemalloc.start()
        try:
            load_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size


@pytest.fixture(scope="class")
def loader_dir(tmp_path_factory):
    """One directory for every example of a hypothesis test: hypothesis runs
    all of a test's examples inside one call of a function-scoped fixture."""
    return tmp_path_factory.mktemp("loader")


class TestLoaderMatchesWalk:
    """The loader's outcome on each edge text held in a file: the entries'
    bytes, or the error's type and message. These are the outcomes of the
    per-field float() walk that once decided every text, but for the texts
    marked "changed" in LOADER_EDGE_TEXTS."""

    @pytest.mark.parametrize("text", LOADER_EDGE_TEXTS)
    def test_file(self, text, tmp_path):
        path = written(tmp_path, text.encode("ascii"))
        assert outcome(load_matrix_csv, path) == LOADER_EDGE_TEXTS[text]

    @settings(max_examples=300, deadline=None)
    @given(edge_texts())
    def test_random_texts(self, loader_dir, text):
        """Every text loads to exactly what np.loadtxt reads from its lines, or
        raises a DmcError that names the place; none reaches a fall-through."""
        got = outcome(load_matrix_csv, written(loader_dir, text.encode("ascii")))
        sep = next((k for k, c in enumerate(text) if c in "\x1c\x1f"), None)
        lines = text.replace("\r\n", "\n").replace("\r", "\n").rstrip().split("\n")
        if sep is not None:
            message = f"byte offset {sep}: {ord(text[sep]):#04x} is an ASCII separator"
            assert got == (MatrixFormatError, message)
        elif lines == [""]:
            assert got == (MatrixFormatError, "empty matrix file")
        else:
            try:
                read = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
            except ValueError:
                read = np.empty((0, 0))
            if read.shape[0] == len(lines):
                assert got == outcome(validate_channel, read)
            else:  # loadtxt refused the lines, or skipped a blank one
                assert got[0] in (MatrixFormatError, NotSquare), got
                assert LOCATED_REFUSAL.fullmatch(got[1]), got
