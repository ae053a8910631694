"""Command-line front end.

Subcommands:

- ``analyze``  closed-form bound report, reference capacity and competing
               bounds for a matrix file (``--json`` for machine output);
- ``generate`` write a family matrix in the shared CSV format;
- ``sweep``    evaluate bound and capacity across a parameter grid, emitting
               a CSV (and optionally an SVG line chart);
- ``compare``  one CSV line naming the tightest bound in ``BOUNDS`` for a
               matrix file. ``boyd_chiang_row`` (log2 sum_i max_j A_ij)
               prints but bounds nothing: never named, never drawn.

Exit codes: 0 success, 1 when the reader closes stdout before the output
ends, 2 input/validation error, 3 when Blahut-Arimoto cannot certify the
capacity within ``--max-iter``. Any other numeric failure prints NA cells,
which ``analyze`` and ``compare`` explain on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bounds import Condition, _pseudo_inverse_input, capacity_upper_bound
from .errors import ConvergenceFailure, InputError, InvalidRange, NotConverged
from .errors import NumericError, SingularMatrix
from .families import build_family
from .formatting import fmt
from .matrix import ChannelMatrix, _is_integer, _is_real, dump_matrix_csv, load_matrix_csv
from .reference import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    arimoto_upper_bound,
    blahut_arimoto,
    boyd_chiang_upper_bound,
)


def _csv(rows: list[dict]) -> str:
    """The first row's keys as the header, then one line per row."""
    lines = [",".join(rows[0])] + [",".join(map(fmt, r.values())) for r in rows]
    return "\n".join(lines) + "\n"


COLUMNS = {  # sweep column -> record key; the first five are the numbers compare prints
    "upper_bound": "upper_bound", "ba_capacity": "ba_capacity", "arimoto": "arimoto_bound",
    "boyd_chiang_col": "boyd_chiang_col", "boyd_chiang_row": "boyd_chiang_row",
    "prop3": "spectral_condition", "cor2": "gershgorin_condition", "feasible": "feasible",
}

BOUNDS = {  # sweep column -> its name in compare's tightest; only these bound C
    "upper_bound": "closed-form", "arimoto": "arimoto", "boyd_chiang_col": "boyd-chiang-col",
}


def _evaluate(matrix: ChannelMatrix, tol: float, max_iter: int) -> tuple[dict, list]:
    """Every value ``analyze`` prints, in its order, and the numeric errors
    behind its NA (None) cells: a singular A leaves the closed form NA, though
    not A's own diagnostics, and starts BA from pinv's input; a failed SVD
    also leaves the conditions and diagnostics NA, and a BA run that cannot
    certify the ba_* cells."""
    def field(owner, name: str, missing=None):  # owner is None where its stage failed
        return missing if owner is None else getattr(owner, name)

    errors, report, analysis, start, condition, est = [], None, None, None, None, None
    try:
        report = capacity_upper_bound(matrix)
        analysis, start = report.analysis, report.p_star
    except SingularMatrix as exc:
        errors.append(exc)
        analysis = exc.analysis
        # dominance implies invertibility, so the conditions cannot hold here
        condition = Condition.PRECONDITION_NOT_MET
        start = _pseudo_inverse_input(matrix)  # a start for BA, not a bound
    except ConvergenceFailure as exc:
        errors.append(exc)
    try:
        est = blahut_arimoto(matrix, tol, max_iter, start=start)
    except NotConverged as exc:
        errors.append(exc)
    record = {
        "n": matrix.n,
        "upper_bound": field(report, "upper_bound"),
        "feasible": field(report, "p_star_feasible"),
        "feasibility_condition": field(report, "feasibility_condition", condition),
        "spectral_condition": field(report, "spectral_condition", condition),
        "coarse_condition": field(report, "coarse_condition", condition),
        "gershgorin_condition": field(report, "gershgorin_condition", condition),
        "c_min": field(analysis, "c_min"),
        "sigma_min": field(analysis, "sigma_min"),
        "sigma_star": field(report, "sigma_star"),
        "h_max": field(analysis, "h_max"),
        "h_max_star": field(report, "h_max_star"),
        "root_exponent": field(report, "root_exponent"),
        "inverse_entropies": field(report, "inverse_entropies"),
        "q_star": field(report, "q_star"),
        "p_star": field(report, "p_star"),
        "ba_capacity": field(est, "capacity"),
        "ba_iterations": field(est, "iterations"),
        "ba_gap": field(est, "gap"),
        "arimoto_bound": arimoto_upper_bound(matrix),
        "boyd_chiang_col": boyd_chiang_upper_bound(matrix),
        "boyd_chiang_row": float(np.log2(matrix.entries.max(axis=1).sum())),  # bounds nothing
    }
    return record, errors


def _checked_record(args) -> dict:
    """``args.matrix``'s record, each of its errors but BA's as a note on stderr."""
    record, errors = _evaluate(load_matrix_csv(args.matrix), args.tol, args.max_iter)
    if errors and isinstance(errors[-1], NotConverged):  # BA's, always the last
        raise errors[-1]  # a failure must not look like a number
    for exc in errors:
        print(f"note: {exc}", file=sys.stderr)
    return record


def _json_value(value):
    """Ints, bools and finite floats as themselves; NA, NaN, inf, a condition as printed."""
    if isinstance(value, np.ndarray):  # Python floats encode faster than numpy's
        return [_json_value(v) for v in value.tolist()]
    if isinstance(value, int) or isinstance(value, float) and math.isfinite(value):
        return value
    return fmt(value)


def _write(text: str, path) -> None:
    """``text`` to the file at ``path``, or to stdout where no path is given."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    record = _checked_record(args)
    if args.json:
        import json  # only this output encodes JSON

        print(json.dumps({k: _json_value(v) for k, v in record.items()}, indent=2))
    else:
        print("\n".join(f"{k}: {fmt(v)}" for k, v in record.items()))
    return 0


def cmd_generate(args) -> int:
    matrix = build_family(args.family, n=args.n, parameter=args.param, seed=args.seed)
    _write(dump_matrix_csv(matrix), args.out)
    return 0


def sweep_record(parameter: float, matrix: ChannelMatrix, tol: float, max_iter: int) -> dict:
    """Evaluate one grid point as its sweep CSV row: header name -> value, in
    column order; numeric failures turn into NA (None) cells."""
    record, _ = _evaluate(matrix, tol, max_iter)
    return {"parameter": parameter, **{c: record[k] for c, k in COLUMNS.items()}}


def _shown(end) -> str:
    """A range end's repr, or its type where an int in it is too long for
    repr (``sys.get_int_max_str_digits()``)."""
    try:
        return repr(end)
    except ValueError:
        return f"<{type(end).__name__} too long for repr>"


def run_sweep(
    family: str,
    n: int | None,
    lo: float,
    hi: float,
    steps: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int | None = None,
) -> list[dict]:
    if not _is_integer(steps):
        raise InvalidRange(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise InvalidRange(f"steps must be at least 2, got {steps}")
    if not (_is_real(lo) and _is_real(hi)):
        raise InvalidRange(f"range ends must be real numbers, got {_shown(lo)}:{_shown(hi)}")
    if not lo < hi:
        raise InvalidRange(f"range must satisfy lo < hi, got {_shown(lo)}:{_shown(hi)}")
    try:
        span = float(hi) - float(lo)
    except OverflowError:  # an int end too large for a float
        span = math.inf
    if not math.isfinite(span):
        raise InvalidRange(f"range must be finite, got {_shown(lo)}:{_shown(hi)}")
    grid = [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]
    # every point is built before any is evaluated, so a refused one costs no BA run
    matrices = [build_family(family, n=n, parameter=x, seed=seed) for x in grid]
    return [sweep_record(x, m, tol, max_iter) for x, m in zip(grid, matrices)]


def sweep_csv(records: list[dict]) -> str:
    """The sweep CSV; the benchmark's trace times this name as formatting."""
    return _csv(records)


def sweep_svg(records: list[dict], family: str) -> str:
    from .svg import render_line_chart  # only this command draws

    def points(name):  # NA and inf have no place on the chart
        values = ((r["parameter"], r[name]) for r in records)
        return [(x, y) for x, y in values if y is not None and math.isfinite(y)]

    # the capacity and the bounds, in column order so that each keeps its colour
    series = [(c, points(c)) for c in COLUMNS if c == "ba_capacity" or c in BOUNDS]
    return render_line_chart(series, f"capacity and upper bounds ({family})")


def cmd_sweep(args) -> int:
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise InvalidRange(f"--range must be lo:hi, got {args.range!r}") from None
    records = run_sweep(
        args.family, args.n, lo, hi, args.steps, args.tol, args.max_iter, args.seed
    )
    _write(sweep_csv(records), args.out)
    if args.svg:
        _write(sweep_svg(records, args.family), args.svg)
    return 0


def cmd_compare(args) -> int:
    record = _checked_record(args)
    row = {column: record[COLUMNS[column]] for column in list(COLUMNS)[:5]}
    # ranked as printed, so that of bounds that print equal the first is named
    printed = {name: fmt(row[name]) for name in BOUNDS if fmt(row[name]) != "NA"}
    row["tightest"] = BOUNDS[min(printed, key=lambda name: float(printed[name]))]
    sys.stdout.write(_csv([row]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmcbounds",
        description="closed-form capacity bounds for discrete memoryless channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p_an = sub.add_parser("analyze", help="report bounds and capacity for a matrix file")
    p_an.add_argument("matrix", help="matrix CSV path")
    p_an.add_argument("--json", action="store_true")
    add_solver_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write a family matrix as CSV")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--param", type=float)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    p_sw = sub.add_parser("sweep", help="sweep a family parameter, emit CSV/SVG")
    p_sw.add_argument("--family", required=True)
    p_sw.add_argument("--n", type=int)
    p_sw.add_argument("--range", required=True, help="lo:hi")
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--seed", type=int)
    p_sw.add_argument("--out")
    p_sw.add_argument("--svg")
    add_solver_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="one-line CSV of all bounds for a matrix file")
    p_cmp.add_argument("matrix", help="matrix CSV path")
    add_solver_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout fails here, not at exit
        return status
    except BrokenPipeError:  # the reader wants no more output: not an input error
        devnull = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit cannot fail again
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
