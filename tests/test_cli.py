import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dmcbounds import (
    CapacityEstimate,
    FamilySpec,
    blahut_arimoto,
    build_family,
    dump_matrix_csv,
    fixed_example,
    load_matrix_csv,
    pseudo_inverse_input,
    validate_channel,
)
import dmcbounds.matrix
from dmcbounds.cli import main, run_sweep, sweep_csv, sweep_record

SWEEP_HEADER = (
    "parameter,upper_bound,ba_capacity,arimoto,"
    "boyd_chiang_col,boyd_chiang_row,prop3,cor2,feasible"
)


@pytest.fixture()
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.csv"
    dump_matrix_csv(ex1, path)
    return str(path)


@pytest.fixture()
def ex4_file(tmp_path, ex4):
    path = tmp_path / "ex4.csv"
    dump_matrix_csv(ex4, path)
    return str(path)


class TestAnalyze:
    def test_reliable_example_report(self, ex1_file, capsys):
        assert main(["analyze", ex1_file]) == 0
        out = capsys.readouterr().out
        assert "upper_bound: 1.2715467" in out
        assert "spectral_condition: holds" in out
        assert "gershgorin_condition: holds" in out
        assert "c_min: 19" in out

    def test_unreliable_example_report(self, ex4_file, capsys):
        assert main(["analyze", ex4_file]) == 0
        out = capsys.readouterr().out
        assert "upper_bound: 0.192824621" in out
        assert "arimoto_bound: 0.17083328" in out
        assert "spectral_condition: precondition-not-met" in out

    def test_json_document(self, ex1_file, capsys):
        assert main(["analyze", ex1_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3
        assert doc["upper_bound"] == pytest.approx(1.2715, abs=1e-3)
        assert doc["ba_capacity"] == pytest.approx(doc["upper_bound"], abs=1e-6)
        assert doc["q_star"] == pytest.approx([0.33087, 0.32806, 0.34107], abs=1e-4)
        assert doc["feasible"] is True

    def test_json_closed_form_input_certifies_at_iteration_0(self, ex1_file, capsys):
        # p* is the optimal input of example-1, so BA seeded with it
        # certifies before a single update
        assert main(["analyze", ex1_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ba_iterations"] == 0
        assert doc["ba_gap"] <= 1e-9

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.4\n0.5,0.5\n")
        assert main(["analyze", str(path)]) == 2
        assert "row 1 sums to" in capsys.readouterr().err

    def test_unparseable_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,oops\n")
        assert main(["analyze", str(path)]) == 2
        assert "row 2, column 2" in capsys.readouterr().err

    def test_nan_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("nan,0.5\n0.5,0.5\n")
        for command in ("analyze", "compare"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: row 1 sums to nan")

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

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "inf"], ["--tol", "nan"], ["--tol=-inf"], ["--tol", "0"],
         ["--max-iter", "-3"]],
    )
    def test_tolerance_or_cap_that_cannot_certify_exits_2(self, ex4_file, capsys, flags):
        for command in ("analyze", "compare"):
            assert main([command, ex4_file, *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 2

    def test_non_positive_matrix_exits_3(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        dump_matrix_csv(validate_channel(np.eye(3)), path)
        assert main(["analyze", str(path)]) == 3
        assert "positive" in capsys.readouterr().err

    def test_singular_matrix_exits_3(self, tmp_path):
        path = tmp_path / "sing.csv"
        path.write_text("0.2,0.3,0.5\n0.2,0.3,0.5\n0.5,0.3,0.2\n")
        assert main(["analyze", str(path)]) == 3


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
        from dmcbounds import beta_family

        out = tmp_path / "m.csv"
        assert main(["generate", "--family", "beta", "--param", "0.5",
                     "--out", str(out)]) == 0
        assert np.array_equal(load_matrix_csv(out).entries, beta_family(0.5).entries)

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["generate", "--family", "bsc", "--param", "0.1"]) == 0
        assert capsys.readouterr().out.startswith("0.9")

    def test_bad_parameter_exits_2(self):
        assert main(["generate", "--family", "gamma", "--param", "1.5"]) == 2

    @pytest.mark.parametrize("ratio", ["inf", "1e308"])
    def test_random_sdd_ratio_that_overflows_exits_2(self, ratio, capsys):
        args = ["generate", "--family", "random-sdd", "--n", "3", "--param", ratio,
                "--seed", "1"]
        assert main(args) == 2
        assert capsys.readouterr().out == ""


class TestSweep:
    def test_header_and_monotone_parameters(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--family", "bsc", "--range", "0.05:0.45", "--steps", "5",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        params = [float(line.split(",")[0]) for line in lines[1:]]
        assert params == sorted(params)
        assert len(params) == 5

    def test_capacity_below_bounds_in_every_row(self):
        records = run_sweep("beta", None, 0.1, 0.9, 9)
        for r in records:
            assert r["ba_capacity"] is not None
            for bound in (r["upper_bound"], r["arimoto"],
                          r["boyd_chiang_col"], r["boyd_chiang_row"]):
                if bound is not None:
                    assert r["ba_capacity"] <= bound + 1e-6

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

    def test_nonpositive_endpoint_turns_na(self):
        records = run_sweep("relay-miso", 3, 0.0, 0.2, 3)
        first = records[0]  # alpha = 0: identity channel
        assert first["upper_bound"] is None
        assert first["ba_capacity"] == pytest.approx(2.0, abs=1e-9)

    def test_point_whose_ba_cannot_certify_turns_na(self):
        record = sweep_record(FamilySpec("relay-miso", 30, 0.3, None), 1e-9, 0)
        assert record["ba_capacity"] is None
        cells = sweep_csv([record]).split("\n")[1].split(",")
        assert cells[2] == "NA"
        assert "NA" not in cells[:2] + cells[3:]  # every other column still prints

    def test_gamma_range_must_stay_inside_open_domain(self):
        assert main(["sweep", "--family", "gamma", "--range", "0:0.5",
                     "--steps", "3"]) == 2

    def test_fixed_example_takes_no_parameter_range(self, capsys):
        assert main(["sweep", "--family", "example-1", "--range", "0:1", "--steps", "2"]) == 2
        assert "takes no parameter" in capsys.readouterr().err

    def test_step_and_range_validation(self):
        assert main(["sweep", "--family", "bsc", "--range", "0.1:0.4",
                     "--steps", "1"]) == 2
        assert main(["sweep", "--family", "bsc", "--range", "0.4:0.1",
                     "--steps", "3"]) == 2
        assert main(["sweep", "--family", "bsc", "--range", "nope",
                     "--steps", "3"]) == 2

    def test_tolerance_that_cannot_certify_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "bsc", "--range", "0.1:0.4", "--steps", "3",
                     "--tol", "inf", "--out", str(out)]) == 2
        assert not out.exists()

    def test_svg_is_well_formed_with_one_polyline_per_series(self, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        code = main(
            ["sweep", "--family", "relay-miso", "--n", "3", "--range", "0.3:0.7",
             "--steps", "5", "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        root = ET.parse(svg).getroot()  # raises on malformed XML
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 5  # every series has at least one defined point

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

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["sweep", "--family", "beta", "--range", "0.05:0.95", "--steps", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepRecordStart:
    """The start hint ``sweep_record`` gives ``blahut_arimoto``."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []

        def recording(matrix, tol, max_iter, **kwargs):
            calls.append(kwargs)
            return blahut_arimoto(matrix, tol, max_iter, **kwargs)

        monkeypatch.setattr("dmcbounds.cli.blahut_arimoto", recording)
        return calls

    def test_singular_point_starts_from_pseudo_inverse_input(self, calls):
        alpha = 0.02 + 9 * (0.50 - 0.02) / 12  # alpha = 0.38 on the n=30/13 grid
        spec = FamilySpec("relay-miso", 30, alpha, None)
        record = sweep_record(spec, 1e-9, 100_000)
        assert np.array_equal(calls[0]["start"], pseudo_inverse_input(build_family(spec)))
        assert record["upper_bound"] is None  # the hint is not a bound
        assert sweep_csv([record]).split("\n")[1].split(",")[1] == "NA"
        assert record["ba_capacity"] == pytest.approx(0.683040186, abs=1e-9)

    def test_non_positive_point_starts_from_uniform(self, calls):
        sweep_record(FamilySpec("relay-miso", 3, 0.0, None), 1e-9, 100_000)
        assert calls[0]["start"] is None

    def test_failed_svd_turns_the_closed_form_na_and_starts_from_uniform(
        self, calls, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        record = sweep_record(FamilySpec("relay-miso", 3, 0.3, None), 1e-9, 100_000)
        assert calls[0]["start"] is None
        for name in ("upper_bound", "prop3", "cor2", "feasible"):
            assert record[name] is None
        cells = sweep_csv([record]).split("\n")[1].split(",")
        assert [cells[i] for i in (1, 6, 7, 8)] == ["NA"] * 4
        assert cells[2] == "0.30532577"


class TestRowEntropiesComputedOnce:
    """validate_channel computes a matrix's row entropies; nothing else does."""

    @staticmethod
    def count_square_entropies(monkeypatch):
        shapes = []
        entropies = dmcbounds.matrix._entropies

        def counted(x):
            if x.ndim == 2 and x.shape[0] == x.shape[1]:
                shapes.append(x.shape)
            return entropies(x)

        monkeypatch.setattr(dmcbounds.matrix, "_entropies", counted)
        return shapes

    def test_once_per_point_of_a_relay_sweep(self, monkeypatch, tmp_path):
        shapes = self.count_square_entropies(monkeypatch)
        args = ["sweep", "--family", "relay-miso", "--n", "30", "--range", "0.02:0.50",
                "--steps", "13", "--out", str(tmp_path / "s.csv")]
        assert main(args) == 0
        assert shapes == [(31, 31)] * 13

    def test_once_per_analyze(self, monkeypatch, ex1_file, capsys):
        shapes = self.count_square_entropies(monkeypatch)
        assert main(["analyze", ex1_file]) == 0
        assert shapes == [(3, 3)]


class TestCompare:
    def test_unreliable_example_tightest_is_arimoto(self, ex4_file, capsys):
        assert main(["compare", ex4_file]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].endswith("tightest")
        assert out[1].split(",")[-1] == "arimoto"

    def test_reliable_example_tightest_is_closed_form(self, ex1_file, capsys):
        assert main(["compare", ex1_file]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[1].split(",")[-1] == "closed-form"

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


class TestConsoleScript:
    def test_module_invocation(self, ex1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dmcbounds", "analyze", ex1_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "upper_bound: 1.2715467" in proc.stdout

    def test_exit_code_for_bad_input(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dmcbounds", "analyze", str(tmp_path / "x.csv")],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_import_loads_no_scipy_xml_sax_or_urllib_request(self):
        # each of these costs start-up time on every CLI call and none is used
        code = (
            "import sys, dmcbounds.cli\n"
            "heavy = ('scipy', 'xml.sax', 'urllib.request')\n"
            "print(sorted(m for m in sys.modules if m.startswith(heavy)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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
