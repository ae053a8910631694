"""Golden corpus: the CLI's printed outputs on fixed inputs, regenerated and
compared with the copies committed under ``tests/golden/``.

The corpus holds the sweep CSVs and SVG charts of the README and acceptance
runs, ``analyze`` (text and ``--json``) and ``compare`` on the three fixed
examples, the 3x3 identity, a 5x5 channel with two noiseless inputs, nine
seeded random-sdd matrices and a singular matrix (fifteen matrices in all),
and the exit code and stderr of the CLI's error paths. A change that
moves an output on purpose rewrites the corpus, so its diff shows every moved
cell:

    PYTHONPATH=src python tests/test_golden.py

On the build that wrote the corpus (``BUILD.json``: numpy version, BLAS and
the CPU features that pick numpy's SIMD loops and OpenBLAS's kernel) every
byte must match, and a failure names the first moved line of each file that
moved. On any other build, every non-numeric token must match and
every number must agree to within two units in its 9th significant digit,
or 1e-12 absolute for values at rounding level such as a rank-1 channel's
capacity of 0. Three kinds of value get more room there, each for a stated
reason:

- ``ba_capacity`` may move by the certified bracket width, 1e-9: BA's start
  comes from the inverse or the pseudo-inverse, and a different start may
  end anywhere in a bracket that contains the capacity;
- a listed ill-conditioned ``upper_bound`` cell (cond(A) >= 1e5, where the
  inverse has lost five or more digits) must be ``inf`` or at least the
  regenerated ``ba_capacity`` less 1e-9;
- the chart of a sweep with such a cell compares its labels and structure
  only: the cell sets the y axis, so every coordinate moves with it.

The test is never skipped: it compares bytes or tolerances, whichever applies.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
BUILD_FILE = "BUILD.json"
TOL = 1e-9  # the CLI's default --tol, which every corpus run uses

# Printed parameters of the sweep points with cond(A) >= 1e5 that A still
# inverts (cond < 1e13): their closed form depends on the LAPACK build.
ILL_CONDITIONED = {
    "sweep-relay-n30": {"0.18", "0.22", "0.26", "0.3"},
    "sweep-relay-n60": {"0.1", "0.12", "0.14", "0.16", "0.18"},
}

# Input files of the error paths, and the commands run on them (cwd: their dir);
# singular.csv is the corpus's singular matrix.
ERROR_INPUTS = {
    "rowsum.csv": b"0.5,0.4\n0.5,0.5\n",
    "oops.csv": b"0.5,0.5\n0.5,oops\n",
    "nan.csv": b"nan,0.5\n0.5,0.5\n",
    "negative.csv": b"1.5,-0.5\n0.5,0.5\n",
    "separator.csv": b"1,0\x1c\n0,1\n",
    "underscore.csv": b"1_0,0\n0,1\n",
    "accent.csv": b"0.9,0.1\n0.2,0.8\xc3\xa9\n",
    "ex4.csv": b"0.6,0.3,0.1\n0.7,0.1,0.2\n0.5,0.05,0.45\n",
    "singular.csv": b"0.2,0.3,0.5\n0.2,0.3,0.5\n0.5,0.3,0.2\n",
}
ERROR_COMMANDS = [
    ["analyze", "rowsum.csv"],
    ["analyze", "oops.csv"],
    ["analyze", "nan.csv"],
    ["compare", "nan.csv"],
    ["analyze", "negative.csv"],
    ["analyze", "separator.csv"],
    ["analyze", "underscore.csv"],
    ["analyze", "accent.csv"],
    ["compare", "accent.csv"],
    *([command, "ex4.csv", *flags]
      for flags in (["--tol", "inf"], ["--tol", "nan"], ["--tol=-inf"], ["--tol", "0"],
                    ["--max-iter", "-3"], ["--max-iter", "0"])
      for command in ("analyze", "compare")),
    ["analyze", "nope.csv"],
    ["generate", "--family", "gamma", "--param", "1.5"],
    ["generate", "--family", "example-1", "--param", "0.3"],
    ["sweep", "--family", "gamma", "--range", "0:0.5", "--steps", "3"],
    ["sweep", "--family", "bsc", "--range", "0.1:0.4", "--steps", "1"],
    ["sweep", "--family", "bsc", "--range", "0.4:0.1", "--steps", "3"],
    ["sweep", "--family", "bsc", "--range", "nope", "--steps", "3"],
    ["sweep", "--family", "bsc", "--range", "0.1:0.4", "--steps", "3", "--tol", "inf",
     "--out", "sweep.csv"],
    ["generate", "--family", "bsc", "--param", "0.1", "--n", "7", "--seed", "3"],
    ["generate", "--family", "example-1", "--n", "7"],
    ["sweep", "--family", "gamma", "--n", "4", "--range", "0.1:0.5", "--steps", "3"],
    ["sweep", "--family", "bsc", "--range", "0.1:inf", "--steps", "3"],
    ["generate", "--family", "beta-reliability", "--param", "0.3"],
    ["generate", "--family", "relay-miso", "--n", "61", "--param", "0.1"],
]


def _run(argv) -> tuple[int, str, str]:
    from dmcbounds.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def generate() -> dict[str, str]:
    """Every corpus file name -> its text, from a fresh run of the CLI."""
    from conftest import CORPUS_SWEEPS, corpus_matrices
    from dmcbounds import dump_matrix_csv

    files = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, (family, n, lo, hi, steps) in CORPUS_SWEEPS.items():
                args = ["--family", family, "--range", f"{lo}:{hi}", "--steps", str(steps)]
                args += ["--n", str(n)] if n else []
                code, _, err = _run(["sweep", *args, "--out", "s.csv", "--svg", "s.svg"])
                assert code == 0, err
                files[f"{name}.csv"] = Path("s.csv").read_text(encoding="ascii")
                files[f"{name}.svg"] = Path("s.svg").read_text(encoding="ascii")
            inputs = [(name, dump_matrix_csv(m).encode("ascii")) for name, m in corpus_matrices()]
            # a singular A has no closed form, but its BA bracket and competitors print
            inputs.append(("singular", ERROR_INPUTS["singular.csv"]))
            for name, content in inputs:
                Path("m.csv").write_bytes(content)
                for command, suffix in ((["analyze"], "analyze.txt"),
                                        (["analyze", "--json"], "analyze.json"),
                                        (["compare"], "compare.csv")):
                    code, out, err = _run([*command, "m.csv"])
                    assert code == 0, err
                    files[f"{name}.{suffix}"] = out
            for name, content in ERROR_INPUTS.items():
                Path(name).write_bytes(content)
            log = []
            for argv in ERROR_COMMANDS:
                code, out, err = _run(argv)
                log += [f"$ dmcbounds {' '.join(argv)}", f"exit {code}"]
                # split at "\n" only: str.splitlines also splits at 0x1c-0x1f
                log += [f"stdout: {line!r}" for line in out.split("\n")[:-1]]
                log += [f"stderr: {line!r}" for line in err.split("\n")[:-1]]
            files["errors.txt"] = "\n".join(log) + "\n"
        finally:
            os.chdir(cwd)
    return files


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _within(want: str, got: str, slack: float = 0.0) -> bool:
    """Two units in the 9th significant digit of ``want``, 1e-12 absolute,
    or ``slack``, whichever is largest."""
    a, b = float(want), float(got)
    digit = 10.0 ** (np.floor(np.log10(abs(a))) - 8) if a else 0.0
    return abs(a - b) <= max(2.0 * digit, 1e-12, slack)


def _printed_unit(token: str) -> float:
    """One unit in the last printed decimal place (a chart coordinate's rounding)."""
    mantissa, _, exponent = token.lower().partition("e")
    places = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - places)


def _tokens_differ(want: str, got: str, slack: float = 0.0, chart: bool = False) -> str | None:
    """The first mismatch between two texts, numbers compared by ``_within``
    (a chart's also within one unit of their last printed place)."""
    w, g = NUMBER.split(want), NUMBER.split(got)
    if w != g:
        return next((f"text {a!r} != {b!r}" for a, b in zip(w, g) if a != b), "token count")
    for a, b in zip(NUMBER.findall(want), NUMBER.findall(got)):
        if not _within(a, b, _printed_unit(a) if chart else slack):
            return f"number {a} != {b}"
    return None


def _csv_differs(name: str, want: str, got: str) -> str | None:
    """Cell by cell; ``ba_capacity`` gets the bracket width, and a listed
    ill-conditioned ``upper_bound`` cell need only be a valid bound."""
    want_rows = [line.split(",") for line in want.splitlines()]
    got_rows = [line.split(",") for line in got.splitlines()]
    if len(want_rows) != len(got_rows) or want_rows[0] != got_rows[0]:
        return "header or row count"
    header = want_rows[0]
    for want_row, got_row in zip(want_rows[1:], got_rows[1:]):
        if len(want_row) != len(got_row):
            return f"row {want_row[0]}: field count"
        cells = dict(zip(header, got_row))
        for column, a, b in zip(header, want_row, got_row):
            where = f"{name} {column} at {want_row[0]}"
            if column == "upper_bound" and want_row[0] in ILL_CONDITIONED.get(name, ()):
                if not (b == "inf" or float(b) >= float(cells["ba_capacity"]) - TOL):
                    return f"{where}: {b} is not a bound"
            elif _tokens_differ(a, b, TOL if column == "ba_capacity" else 0.0):
                return f"{where}: {a} != {b}"
    return None


def _json_differs(want, got, key="") -> str | None:
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return next(filter(None, (_json_differs(a, b, key) for a, b in zip(want, got))), None)
    if type(want) in (int, float) and type(got) is type(want):
        slack = TOL if key == "ba_capacity" else 0.0
        return None if _within(repr(want), repr(got), slack) else f"{key}: {want!r} != {got!r}"
    if isinstance(want, dict) and isinstance(got, dict) and list(want) == list(got):
        return next(filter(None, (_json_differs(want[k], got[k], k) for k in want)), None)
    return None if want == got else f"{key}: {want!r} != {got!r}"


def _analyze_text_differs(want: str, got: str) -> str | None:
    """Line by line; ``ba_capacity`` gets the bracket width."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return "line count"
    for a, b in zip(want_lines, got_lines):
        key = a.split(":", 1)[0]
        why = _tokens_differ(a, b, TOL if key == "ba_capacity" else 0.0)
        if why:
            return f"{key}: {why}"
    return None


def tolerant_difference(name: str, want: str, got: str) -> str | None:
    """Why ``got`` is not ``want`` on another build, or None if it matches."""
    stem, suffix = name.rsplit(".", 1)
    if suffix == "svg" and stem in ILL_CONDITIONED:
        return _tokens_differ(NUMBER.sub("#", re.sub(r'points="[^"]*"', "", want)),
                              NUMBER.sub("#", re.sub(r'points="[^"]*"', "", got)))
    if suffix == "svg":
        return _tokens_differ(want, got, chart=True)
    if suffix == "json":
        return _json_differs(json.loads(want), json.loads(got))
    if name.endswith(".analyze.txt"):
        return _analyze_text_differs(want, got)
    if suffix == "csv":
        return _csv_differs(stem, want, got)
    return _tokens_differ(want, got)


def first_moved_line(want: str, got: str) -> str | None:
    """The first line where ``got`` differs from ``want``: its number, the
    committed text and the new text (None past the end of a file)."""
    # split at "\n" only, as generate() does
    lines = itertools.zip_longest(want.split("\n"), got.split("\n"))
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"line {number}: committed {a!r}, new {b!r}"
    return None


def committed_corpus() -> dict[str, str]:
    return {
        p.name: p.read_text(encoding="ascii")
        for p in sorted(GOLDEN.iterdir())
        if p.name != BUILD_FILE
    }


def test_corpus_matches_the_committed_outputs():
    from conftest import build_key, recorded_build

    committed = committed_corpus()
    fresh = generate()
    assert sorted(fresh) == sorted(committed)
    if build_key() == recorded_build():
        moved = {
            name: first_moved_line(committed[name], fresh[name])
            for name in committed
            if fresh[name] != committed[name]
        }
        assert not moved, f"outputs differ byte for byte: {moved}"
    else:
        problems = {}
        for name, want in committed.items():
            why = tolerant_difference(name, want, fresh[name])
            if why:
                problems[name] = why
        assert not problems, problems


def test_tolerant_comparison_catches_a_moved_digit():
    # the cross-build comparison must still see a change in the 8th digit
    csv = "parameter,upper_bound,ba_capacity\n0.5,1.23456789,1.2\n"
    assert tolerant_difference("sweep-x.csv", csv, csv) is None
    assert tolerant_difference("sweep-x.csv", csv, csv.replace("1.23456789", "1.23456799"))
    assert tolerant_difference("sweep-x.csv", csv, csv.replace("1.23456789", "1.23456790")) is None
    text = "upper_bound: 0.192824621\nfeasible: false\n"
    assert tolerant_difference("a.analyze.txt", text, text.replace("false", "true"))
    assert tolerant_difference("a.analyze.txt", text, text.replace("621", "651"))


def test_byte_mismatch_names_the_first_moved_line():
    want = "parameter,ba_capacity\n0.05,0.71\n0.15,0.39\n"
    assert first_moved_line(want, want.replace("0.39", "0.38")) == (
        "line 3: committed '0.15,0.39', new '0.15,0.38'"
    )
    assert first_moved_line(want, want + "0.25,0.18\n") == "line 4: committed '', new '0.25,0.18'"
    assert first_moved_line(want, want[:-1]) == "line 4: committed '', new None"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from conftest import build_key

    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, text in generate().items():
        (GOLDEN / name).write_text(text, encoding="ascii", newline="")
    (GOLDEN / BUILD_FILE).write_text(json.dumps(build_key(), indent=2) + "\n", encoding="ascii")
