import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from dmcbounds import (
    CapacityEstimate,
    Condition,
    ConvergenceFailure,
    InvalidParameter,
    InvalidRange,
    SingularMatrix,
    blahut_arimoto,
    build_family,
    capacity_upper_bound,
    dump_matrix_csv,
    fixed_example,
    grid_oracle,
    load_matrix_csv,
    random_sdd_positive,
    validate_channel,
)
from dmcbounds.bounds import _pseudo_inverse_input
from dmcbounds.cli import BOUNDS, _evaluate, main, run_sweep, sweep_csv, sweep_record
from dmcbounds.families import beta_family, bsc, gamma_family, relay_miso
from dmcbounds.formatting import fmt
from conftest import cli_grid, spy

CONDITIONS = ("feasibility", "spectral", "coarse", "gershgorin")
SWEEP_HEADER = (
    "parameter,upper_bound,ba_capacity,arimoto,"
    "boyd_chiang_col,boyd_chiang_row,prop3,cor2,feasible"
)


@pytest.fixture()
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.csv"
    dump_matrix_csv(ex1, path)
    return str(path)


class TestAnalyze:
    def test_non_ascii_byte_exits_2_without_a_traceback(self, tmp_path):
        path = tmp_path / "accent.csv"
        path.write_bytes(b"0.9,0.1\n0.2,0.8\xc3\xa9\n")
        for command in ("analyze", "compare"):
            proc = subprocess.run(
                [sys.executable, "-m", "dmcbounds", command, str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2
            assert proc.stderr == "error: byte offset 15: 0xc3 is not ASCII\n"


class TestGenerate:
    def test_fixed_example_round_trips(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["generate", "--family", "example-1", "--out", str(out)]) == 0
        again = load_matrix_csv(out)
        assert np.array_equal(again.entries, fixed_example("example-1").entries)

    def test_relay_at_zero_is_identity(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            ["generate", "--family", "relay-miso", "--n", "3", "--param", "0.0",
             "--out", str(out)]
        )
        assert code == 0
        assert np.array_equal(load_matrix_csv(out).entries, np.eye(4))

    def test_beta_round_trip_is_bit_exact(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["generate", "--family", "beta", "--param", "0.5",
                     "--out", str(out)]) == 0
        assert np.array_equal(load_matrix_csv(out).entries, beta_family(0.5).entries)

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["generate", "--family", "bsc", "--param", "0.1"]) == 0
        assert capsys.readouterr().out.startswith("0.9")

    @pytest.mark.parametrize("ratio", ["inf", "1e308"])
    def test_random_sdd_ratio_that_overflows_exits_2(self, ratio, capsys):
        args = ["generate", "--family", "random-sdd", "--n", "3", "--param", ratio,
                "--seed", "1"]
        assert main(args) == 2
        assert capsys.readouterr().out == ""


class TestSweep:
    def test_capacity_below_bounds_in_every_row(self):
        records = run_sweep("beta", None, 0.1, 0.9, 9)
        for r in records:
            assert r["ba_capacity"] is not None
            for column in BOUNDS:
                if r[column] is not None:
                    assert r["ba_capacity"] <= r[column] + 1e-6

    def test_singular_grid_point_turns_na(self):
        records = run_sweep("relay-miso", 3, 0.4, 0.6, 3)  # middle point is 0.5
        mid = records[1]
        assert mid["parameter"] == pytest.approx(0.5)
        assert mid["upper_bound"] is None
        assert mid["feasible"] is None
        assert mid["prop3"].value == "precondition-not-met"
        assert mid["ba_capacity"] is not None  # iterative capacity needs no inverse
        text = sweep_csv(records)
        assert text.split("\n")[0] == ",".join(mid) == SWEEP_HEADER  # the row's keys
        assert ",NA," in text.split("\n")[2]
        assert text.split("\n")[2].split(",")[2] == "0"  # C = 0: rank 1

    def test_nonpositive_endpoint_prints_its_bound(self):
        records = run_sweep("relay-miso", 3, 0.0, 0.2, 3)
        first = records[0]  # alpha = 0: identity channel
        assert first["upper_bound"] == 2.0
        assert first["feasible"] is True
        assert first["prop3"].value == "precondition-not-met"
        assert first["ba_capacity"] == pytest.approx(2.0, abs=1e-9)
        assert sweep_csv(records).split("\n")[1].split(",")[:3] == ["0", "2", "2"]

    def test_point_whose_ba_cannot_certify_turns_na(self):
        record = sweep_record(0.3, build_family("relay-miso", n=30, parameter=0.3), 1e-9, 0)
        assert record["ba_capacity"] is None
        cells = sweep_csv([record]).split("\n")[1].split(",")
        assert cells[2] == "NA"
        assert "NA" not in cells[:2] + cells[3:]  # every other column still prints

    def test_fixed_example_takes_no_parameter_range(self, capsys):
        assert main(["sweep", "--family", "example-1", "--range", "0:1", "--steps", "2"]) == 2
        assert "takes no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lo, hi, steps, message",
        [
            (0.1, 0.4, 2.5, "steps must be an integer, got 2.5"),
            ("a", 0.4, 3, "range ends must be real numbers, got 'a':0.4"),
            (0.1, "a", 3, "range ends must be real numbers, got 0.1:'a'"),
            # a grid over an infinite span would hand the generator a NaN point
            (0.1, math.inf, 3, "range must be finite, got 0.1:inf"),
            (-1e308, 1e308, 3, "range must be finite, got -1e+308:1e+308"),
            # an int end too large for a float, even where the int span is 1
            (0, 10**400, 3, f"range must be finite, got 0:{10**400}"),
            (-10**400, 0, 3, f"range must be finite, got {-10**400}:0"),
            (10**400 - 1, 10**400, 3, f"range must be finite, got {10**400 - 1}:{10**400}"),
            # an end holding an int too long for repr is shown by its type
            (0, 10**5000, 3, "range must be finite, got 0:<int too long for repr>"),
            (10**5000, 0, 3, "range must satisfy lo < hi, got <int too long for repr>:0"),
            (0, Fraction(10**5000, 3), 3, "range must be finite, got 0:<Fraction too long for repr>"),
        ],
        ids=["float-steps", "text-lo", "text-hi", "infinite-hi", "overflowing-span",
             "huge-int-hi", "huge-int-lo", "huge-int-ends", "long-int-hi", "long-int-lo",
             "long-fraction-hi"],
    )
    def test_run_sweep_refuses_a_non_integer_step_count_or_non_real_range(
        self, lo, hi, steps, message
    ):
        with pytest.raises(InvalidRange, match=f"^{re.escape(message)}$"):
            run_sweep("bsc", None, lo, hi, steps)

    def test_tolerance_that_cannot_certify_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        # the gamma and relay ranges' last points, 1 and 1.02, are refused by
        # the generator itself, and before any grid point is evaluated
        out = tmp_path / "sweep.csv"
        evaluated = spy(monkeypatch, "dmcbounds.cli._evaluate")
        for argv in (["--family", "gamma", "--range", "0.5:1", "--steps", "3"],
                     ["--family", "relay-miso", "--n", "3", "--range", "0.02:1.02",
                      "--steps", "11"]):
            assert main(["sweep", *argv, "--out", str(out)]) == 2
            assert not out.exists()
        assert evaluated == []
        # BA refuses this tolerance inside the first point's evaluation
        argv =["--family", "bsc", "--range", "0.1:0.4", "--steps", "3", "--tol", "inf"]
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_svg_is_well_formed_with_one_polyline_per_series(self, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        for args in (
            ["--family", "relay-miso", "--n", "3", "--range", "0.3:0.7", "--steps", "5"],
            # an x span of 4.9e-324 and every plotted value 1: both axes are widened
            ["--family", "bsc", "--range", "0:5e-324", "--steps", "2"],
        ):
            assert main(["sweep", *args, "--out", str(out), "--svg", str(svg)]) == 0
            root = ET.parse(svg).getroot()  # raises on malformed XML
            polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
            # the capacity and every bound, each with at least one defined point
            assert len(polylines) == len(BOUNDS) + 1 == 4

    def test_relay30_chart_plots_only_finite_values(self, tmp_path):
        # the closed form is inf at alpha = 0.30, and NA where A is singular
        svg = tmp_path / "s.svg"
        args = ["sweep", "--family", "relay-miso", "--n", "30", "--range", "0.02:0.50",
                "--steps", "13", "--out", str(tmp_path / "s.csv"), "--svg", str(svg)]
        assert main(args) == 0
        numbers = []
        for element in ET.parse(svg).getroot().iter():
            attrib = element.attrib
            numbers += [attrib[k] for k in ("x", "y", "x1", "y1", "x2", "y2") if k in attrib]
            numbers += attrib.get("points", "").replace(",", " ").split()
            try:  # a tick label; a title, an axis label or a series name is a word
                float(element.text or "")
            except ValueError:
                continue
            numbers.append(element.text)
        assert len(numbers) > 100
        assert all(math.isfinite(float(v)) for v in numbers), numbers

    def test_relay3_midrange_capacity_is_rounded_correctly(self, capsys):
        # the 50-digit capacity at alpha = 0.48 and 0.52 is
        # 0.0034578579582157203; BA seeded with p* certifies a lower end that
        # prints as its correctly rounded 9 digits
        args = ["sweep", "--family", "relay-miso", "--n", "3", "--range", "0.02:0.98"]
        assert main(args + ["--steps", "49"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        ba = {row[0]: row[2] for row in rows}
        assert ba["0.48"] == "0.00345785796"
        assert ba["0.52"] == "0.00345785796"


class TestEvaluatorStart:
    """The start hint the one evaluator behind every command gives
    ``blahut_arimoto``, and the NA cells it leaves where a stage fails."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        return spy(monkeypatch, "dmcbounds.cli.blahut_arimoto")

    @pytest.fixture()
    def failing_svd(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)

    def test_singular_point_starts_from_pseudo_inverse_input(self, calls):
        matrix = build_family("relay-miso", n=30, parameter=cli_grid(0.02, 0.50, 13)[9])
        record, errors = _evaluate(matrix, 1e-9, 100_000)  # alpha = 0.38
        _, _, kwargs, _ = calls[0]
        assert np.array_equal(kwargs["start"], _pseudo_inverse_input(matrix))
        assert [type(e) for e in errors] == [SingularMatrix]
        assert record["upper_bound"] is None  # the hint is not a bound
        conditions = [record[f"{name}_condition"] for name in CONDITIONS]
        assert conditions == [Condition.PRECONDITION_NOT_MET] * 4
        assert record["ba_capacity"] == pytest.approx(0.683040186, abs=1e-9)

    def test_non_positive_point_starts_from_p_star(self, calls):
        matrix = build_family("relay-miso", n=3, parameter=0.0)
        assert _evaluate(matrix, 1e-9, 100_000)[1] == []
        _, _, kwargs, _ = calls[0]
        assert np.array_equal(kwargs["start"], capacity_upper_bound(matrix).p_star)

    def test_failed_svd_turns_the_closed_form_na_and_starts_from_uniform(
        self, calls, failing_svd
    ):
        matrix = build_family("relay-miso", n=3, parameter=0.3)
        record, errors = _evaluate(matrix, 1e-9, 100_000)
        _, _, kwargs, _ = calls[0]
        assert kwargs["start"] is None
        assert [type(e) for e in errors] == [ConvergenceFailure]
        for name in ("upper_bound", "feasible", "sigma_min", "p_star"):
            assert record[name] is None
        assert [record[f"{name}_condition"] for name in CONDITIONS] == [None] * 4
        assert fmt(record["ba_capacity"]) == "0.30532577"

    def test_analyze_prints_na_and_a_note_where_the_svd_fails(
        self, failing_svd, ex1_file, capsys
    ):
        assert main(["analyze", ex1_file]) == 0
        out, err = capsys.readouterr()
        lines = dict(line.split(": ", 1) for line in out.strip().split("\n"))
        assert [lines[k] for k in ("upper_bound", "spectral_condition", "p_star")] == ["NA"] * 3
        assert lines["ba_capacity"] == "1.2715467"
        assert err == "note: singular value decomposition did not converge: SVD did not converge\n"


class TestRowEntropiesComputedOnce:
    """validate_channel computes a matrix's row entropies; nothing else does."""

    @staticmethod
    def square_shapes(calls):
        return [x.shape for _, (x,), _, _ in calls if x.ndim == 2 and x.shape[0] == x.shape[1]]

    def test_once_per_point_of_a_relay_sweep(self, monkeypatch, tmp_path):
        calls = spy(monkeypatch, "dmcbounds.matrix._entropies")
        args = ["sweep", "--family", "relay-miso", "--n", "30", "--range", "0.02:0.50",
                "--steps", "13", "--out", str(tmp_path / "s.csv")]
        assert main(args) == 0
        assert self.square_shapes(calls) == [(31, 31)] * 13

    def test_once_per_analyze(self, monkeypatch, ex1_file, capsys):
        calls = spy(monkeypatch, "dmcbounds.matrix._entropies")
        assert main(["analyze", ex1_file]) == 0
        assert self.square_shapes(calls) == [(3, 3)]


def block_channels(draws):
    """Channels with noiseless inputs 0..k-1, an input k spread over the other
    outputs, and the rest near uniform; the row maxima of about half of them
    sum below 2^C."""
    rng = np.random.default_rng(11)
    for _ in range(draws):
        n = rng.integers(4, 9)
        k = rng.integers(1, n - 2)
        a = rng.dirichlet(np.full(n, 20), size=n)
        a[:k] = np.eye(n)[:k]
        a[k, :k] = 0
        a[k, k:] = rng.dirichlet(np.full(n - k, 20))
        yield validate_channel(a)


class TestCompare:
    def test_every_bound_holds_on_the_block_family(self):
        for m in block_channels(200):
            row = sweep_record(None, m, 1e-9, 100_000)
            for column in BOUNDS:
                assert row[column] is None or row[column] >= row["ba_capacity"] - 1e-9

    def test_z_channel_tightest_is_closed_form_at_capacity(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        path.write_text("1,0\n0.5,0.5\n")
        assert main(["compare", str(path)]) == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert cells[:2] == ["0.321928095", "0.321928095"]  # log2(5/4) = C
        assert cells[-1] == "closed-form"

    def test_near_noiseless_channel_all_bounds_near_log_n(self, tmp_path, capsys):
        eps = 1e-6
        m = validate_channel(
            [
                [1 - 2 * eps, eps, eps],
                [eps, 1 - 2 * eps, eps],
                [eps, eps, 1 - 2 * eps],
            ]
        )
        path = tmp_path / "m.csv"
        dump_matrix_csv(m, path)
        assert main(["compare", str(path)]) == 0
        values = capsys.readouterr().out.strip().split("\n")[1].split(",")[:5]
        for v in values:
            assert float(v) == pytest.approx(math.log2(3), abs=1e-3)

    def test_agrees_with_the_sweep_row_at_every_relay30_corpus_point(self, tmp_path, capsys):
        # one evaluator prints both, NA where A is singular (alpha >= 0.34) included
        grid = ["--range", "0.02:0.50", "--steps", "13"]
        assert main(["sweep", "--family", "relay-miso", "--n", "30", *grid]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.split("\n")[1:-1]]
        path = str(tmp_path / "m.csv")
        for alpha, row in zip(cli_grid(0.02, 0.50, 13), rows, strict=True):
            generate = ["generate", "--family", "relay-miso", "--n", "30", "--param", repr(alpha)]
            assert main([*generate, "--out", path]) == 0
            assert main(["compare", path]) == 0
            assert capsys.readouterr().out.split("\n")[1].split(",")[:5] == row[1:6], alpha


class TestConsoleScript:
    def test_module_invocation(self, ex1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dmcbounds", "analyze", ex1_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "upper_bound: 1.2715467" in proc.stdout

    @pytest.mark.parametrize(
        "family", [["example-1"], ["relay-miso", "--n", "60", "--param", "0.1"]],
        ids=["fails-in-the-flush", "fails-in-the-write"],  # 3 lines fit the buffer, 61 do not
    )
    def test_reader_that_closed_stdout_exits_1_quietly(self, family):
        # the read end is closed before the child starts, so its first write fails
        read, write = os.pipe()
        os.close(read)
        argv = [sys.executable, "-m", "dmcbounds", "generate", "--family", *family]
        proc = subprocess.Popen(argv, stdout=write, stderr=subprocess.PIPE)
        os.close(write)
        _, err = proc.communicate()
        assert (proc.returncode, err) == (1, b"")

    @pytest.fixture(scope="module")
    def imported(self):
        """Every module one fresh interpreter holds after ``import dmcbounds.cli``."""
        code = "import sys, dmcbounds.cli\nprint(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_loads_no_scipy_xml_sax_or_urllib_request(self, imported):
        # each of these costs start-up time on every CLI call and none is used
        heavy = ("scipy", "xml.sax", "urllib.request")
        assert [m for m in imported if m.startswith(heavy)] == []

    def test_import_loads_no_svg_writer(self, imported):
        # only ``sweep --svg`` draws, so the other commands skip svg and html
        assert [m for m in imported if m.split(".")[0] == "html" or m == "dmcbounds.svg"] == []

    def test_import_loads_no_json_encoder(self, imported):
        # only ``analyze --json`` encodes, so the other commands skip json
        assert [m for m in imported if m.split(".")[0] == "json"] == []


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: blahut_arimoto(bsc(0.1), tol=True), InvalidParameter,
         "tolerance must be positive and finite, got True"),
        (lambda: blahut_arimoto(bsc(0.1), max_iter=False), InvalidParameter,
         "max_iter must be an integer, got False"),
        (lambda: grid_oracle(bsc(0.1), True), InvalidParameter,
         "resolution must be an integer, got True"),
        (lambda: run_sweep("beta", None, 0.1, 0.3, True), InvalidRange,
         "steps must be an integer, got True"),
        (lambda: run_sweep("beta", None, False, True, 3), InvalidRange,
         "range ends must be real numbers, got False:True"),
        (lambda: relay_miso(True, 0.1), InvalidParameter,
         "n must be a positive integer, got True"),
        (lambda: build_family("relay-miso", n=True, parameter=0.1),
         InvalidParameter, "n must be a positive integer, got True"),
        (lambda: random_sdd_positive(True, 2.0, 1), InvalidParameter,
         "n must be an integer of at least 2, got True"),
        (lambda: random_sdd_positive(3, 2.0, True), InvalidParameter,
         "seed must be an integer, got True"),
        (lambda: build_family("random-sdd", n=3, parameter=2.0, seed=False),
         InvalidParameter, "seed must be an integer, got False"),
        (lambda: random_sdd_positive(3, True, 1), InvalidParameter,
         "min_ratio must exceed 1, got True"),
        (lambda: relay_miso(30, True), InvalidParameter, "alpha must be in [0, 1], got True"),
        (lambda: bsc(True), InvalidParameter, "crossover must be in [0, 1], got True"),
        (lambda: gamma_family(True), InvalidParameter, "gamma must be in (0, 1), got True"),
        (lambda: beta_family(False), InvalidParameter, "beta must be in [0, 1], got False"),
    ],
    ids=[
        "tol", "max_iter", "resolution", "steps", "lo-hi", "relay-n", "family-relay-n",
        "sdd-n", "sdd-seed", "family-sdd-seed", "min_ratio", "alpha", "crossover", "gamma", "beta",
    ],
)
def test_a_bool_is_not_a_number(call, error, message):
    """bool subclasses int, so isinstance alone lets True through as 1; every
    integer or real argument refuses a flag with its usual message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


HUGE = 10**5000  # more digits than sys.get_int_max_str_digits() lets repr print
SHOWN = "<int too long for repr>"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_family("bsc", parameter=HUGE), InvalidParameter,
         f"crossover must be in [0, 1], got {SHOWN}"),
        (lambda: build_family("gamma", parameter=HUGE), InvalidParameter,
         f"gamma must be in (0, 1), got {SHOWN}"),
        (lambda: build_family("relay-miso", n=3, parameter=HUGE), InvalidParameter,
         f"alpha must be in [0, 1], got {SHOWN}"),
        (lambda: build_family("beta", parameter=-HUGE), InvalidParameter,
         f"beta must be in [0, 1], got {SHOWN}"),
        (lambda: build_family(HUGE), InvalidParameter,
         f"family name must be a string, got {SHOWN}"),
        (lambda: fixed_example(HUGE), InvalidParameter, f"unknown fixed example {SHOWN}"),
        (lambda: relay_miso(HUGE, 0.1), InvalidParameter, f"n must be at most 60, got {SHOWN}"),
        (lambda: relay_miso(-HUGE, 0.1), InvalidParameter,
         f"n must be a positive integer, got {SHOWN}"),
        (lambda: random_sdd_positive(-HUGE, 2.0, 1), InvalidParameter,
         f"n must be an integer of at least 2, got {SHOWN}"),
        (lambda: random_sdd_positive(3, -HUGE, 1), InvalidParameter,
         f"min_ratio must exceed 1, got {SHOWN}"),
        (lambda: blahut_arimoto(bsc(0.1), tol=-HUGE), InvalidParameter,
         f"tolerance must be positive and finite, got {SHOWN}"),
        (lambda: blahut_arimoto(bsc(0.1), max_iter=-HUGE), InvalidParameter,
         f"max_iter must be at least 0, got {SHOWN}"),
        (lambda: grid_oracle(bsc(0.1), -HUGE), InvalidParameter,
         f"resolution must be at least 10, got {SHOWN}"),
        (lambda: run_sweep("bsc", None, 0.1, 0.4, -HUGE), InvalidRange,
         f"steps must be at least 2, got {SHOWN}"),
    ],
    ids=[
        "bsc", "gamma", "relay-alpha", "beta", "family-name", "fixed-example", "relay-n-high",
        "relay-n-low", "sdd-n", "min_ratio", "tol", "max_iter", "resolution", "steps",
    ],
)
def test_a_refused_int_too_long_for_repr_is_shown_by_its_type(call, error, message):
    """Python refuses to print an int past its digit limit, so a refusal that
    showed it with repr raised ValueError instead; it shows the type."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestInfiniteGap:
    """A bracket whose top is +inf (an output the input pmf never reaches)
    must still print: as ``inf`` where the gap is shown, and nowhere else."""

    @pytest.fixture(autouse=True)
    def infinite_gap(self, monkeypatch):
        def uncertified(matrix, tol, max_iter, **kwargs):
            est = blahut_arimoto(matrix, tol, max_iter, **kwargs)
            return CapacityEstimate(est.capacity, est.optimal_input, est.iterations, math.inf)

        monkeypatch.setattr("dmcbounds.cli.blahut_arimoto", uncertified)

    def test_analyze_text(self, ex1_file, capsys):
        assert main(["analyze", ex1_file]) == 0
        assert "ba_gap: inf\n" in capsys.readouterr().out

    def test_analyze_json(self, ex1_file, capsys):
        assert main(["analyze", ex1_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ba_gap"] == "inf"
        assert doc["ba_capacity"] == pytest.approx(1.2715, abs=1e-3)

    def test_compare(self, ex1_file, capsys):
        assert main(["compare", ex1_file]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert len(row) == 6
        assert float(row[1]) == pytest.approx(1.2715, abs=1e-3)

    def test_sweep(self, capsys):
        args = ["sweep", "--family", "relay-miso", "--n", "3", "--range", "0.1:0.3"]
        assert main(args + ["--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert all(row.split(",")[2] != "NA" for row in lines[1:])
