"""Command-line front end.

Subcommands:

- ``analyze``  closed-form bound report, reference capacity and competing
               bounds for a matrix file (``--json`` for machine output);
- ``generate`` write a family matrix in the shared CSV format;
- ``sweep``    evaluate bound and capacity across a parameter grid, emitting
               a CSV (and optionally an SVG line chart);
- ``compare``  one CSV line naming the tightest bound for a matrix file.

Exit codes: 0 success, 2 input/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import Condition, capacity_upper_bound, pseudo_inverse_input
from .errors import (
    ConvergenceFailure,
    InputError,
    InvalidRange,
    NotPositive,
    NumericError,
    SingularMatrix,
)
from .families import FamilySpec, build_family, canonical_family, parameter_domain
from .formatting import fmt
from .matrix import ChannelMatrix, dump_matrix_csv, load_matrix_csv
from .reference import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    arimoto_upper_bound,
    blahut_arimoto,
    boyd_chiang_upper_bound,
)
from .svg import render_line_chart


def _cell(value) -> str:
    """How every command prints one value: None is NA, a list its values
    comma-joined, a float or bool goes through ``fmt``, and anything else (an
    int, a Condition, a name) through ``str``."""
    if value is None:
        return "NA"
    if isinstance(value, list):
        return ",".join(map(_cell, value))
    if isinstance(value, (float, bool)):
        return fmt(value)
    return str(value)


def _csv(rows: list[dict]) -> str:
    """The first row's keys as the header, then one line per row."""
    lines = [",".join(rows[0])] + [",".join(map(_cell, r.values())) for r in rows]
    return "\n".join(lines) + "\n"


def _analyze_document(matrix: ChannelMatrix, tol: float, max_iter: int) -> dict:
    report = capacity_upper_bound(matrix)
    est = blahut_arimoto(matrix, tol, max_iter, start=report.p_star)
    return {
        "n": matrix.n,
        "upper_bound": report.upper_bound,
        "feasible": report.p_star_feasible,
        "feasibility_condition": report.feasibility_condition.value,
        "spectral_condition": report.spectral_condition.value,
        "coarse_condition": report.coarse_condition.value,
        "gershgorin_condition": report.gershgorin_condition.value,
        "c_min": report.analysis.c_min,
        "sigma_min": report.analysis.sigma_min,
        "sigma_star": report.sigma_star,
        "h_max": report.analysis.h_max,
        "h_max_star": report.h_max_star,
        "root_exponent": report.root_exponent,
        "inverse_entropies": [float(x) for x in report.inverse_entropies],
        "q_star": [float(x) for x in report.q_star],
        "p_star": [float(x) for x in report.p_star],
        "ba_capacity": est.capacity,
        "ba_iterations": est.iterations,
        "ba_gap": est.gap,
        "arimoto_bound": arimoto_upper_bound(matrix),
        "boyd_chiang_col": boyd_chiang_upper_bound(matrix, "column-max"),
        "boyd_chiang_row": boyd_chiang_upper_bound(matrix, "row-max"),
    }


def _json_value(value):
    """JSON has no NaN or inf: only those floats become strings, as ``fmt``
    prints them."""
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return fmt(value)
    return value


def cmd_analyze(args) -> int:
    matrix = load_matrix_csv(args.matrix)
    doc = _analyze_document(matrix, args.tol, args.max_iter)
    if args.json:
        print(json.dumps({k: _json_value(v) for k, v in doc.items()}, indent=2))
    else:
        print("\n".join(f"{k}: {_cell(v)}" for k, v in doc.items()))
    return 0


def cmd_generate(args) -> int:
    spec = FamilySpec(
        family=args.family, n=args.n, parameter=args.param, seed=args.seed
    )
    matrix = build_family(spec)
    if args.out:
        dump_matrix_csv(matrix, args.out)
    else:
        sys.stdout.write(dump_matrix_csv(matrix))
    return 0


def sweep_record(spec: FamilySpec, tol: float, max_iter: int) -> dict:
    """Evaluate one grid point as its sweep CSV row: header name -> value, in
    column order; numeric failures turn into NA (None) cells."""
    matrix = build_family(spec)
    upper = feasible = start = None
    spectral = gershgorin = None
    try:
        report = capacity_upper_bound(matrix)
        upper = report.upper_bound
        feasible = report.p_star_feasible
        spectral = report.spectral_condition
        gershgorin = report.gershgorin_condition
        start = report.p_star
    except (SingularMatrix, NotPositive) as exc:
        # dominance implies invertibility and the conditions assume a
        # positive matrix, so the hypotheses cannot hold here
        spectral = Condition.PRECONDITION_NOT_MET
        gershgorin = Condition.PRECONDITION_NOT_MET
        if isinstance(exc, SingularMatrix):  # a start for BA, not a bound
            start = pseudo_inverse_input(matrix)
    except ConvergenceFailure:
        pass
    try:
        ba = blahut_arimoto(matrix, tol, max_iter, start=start).capacity
    except NumericError:
        ba = None
    return {
        "parameter": spec.parameter,
        "upper_bound": upper,
        "ba_capacity": ba,
        "arimoto": arimoto_upper_bound(matrix),
        "boyd_chiang_col": boyd_chiang_upper_bound(matrix, "column-max"),
        "boyd_chiang_row": boyd_chiang_upper_bound(matrix, "row-max"),
        "prop3": spectral,
        "cor2": gershgorin,
        "feasible": feasible,
    }


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
    family = canonical_family(family)
    if steps < 2:
        raise InvalidRange(f"steps must be at least 2, got {steps}")
    if not lo < hi:
        raise InvalidRange(f"range must satisfy lo < hi, got {lo!r}:{hi!r}")
    dom_lo, dom_hi, closed = parameter_domain(family)
    inside = (dom_lo <= lo and hi <= dom_hi) if closed else (dom_lo < lo and hi < dom_hi)
    if not inside:
        raise InvalidRange(
            f"range [{lo}, {hi}] outside the {family} parameter domain"
        )
    records = []
    for i in range(steps):
        x = hi if i == steps - 1 else lo + i * (hi - lo) / (steps - 1)
        spec = FamilySpec(family=family, n=n, parameter=x, seed=seed)
        records.append(sweep_record(spec, tol, max_iter))
    return records


def sweep_csv(records: list[dict]) -> str:
    """The sweep CSV; the benchmark's trace times this name as formatting."""
    return _csv(records)


def sweep_svg(records: list[dict], family: str) -> str:
    def points(name):  # NA and inf have no place on the chart
        values = ((r["parameter"], r[name]) for r in records)
        return [(x, y) for x, y in values if y is not None and math.isfinite(y)]

    names = ("upper_bound", "ba_capacity", "arimoto", "boyd_chiang_col", "boyd_chiang_row")
    series = [(name, points(name)) for name in names]
    return render_line_chart(
        series, "parameter", "bits", f"capacity and upper bounds ({family})"
    )


def cmd_sweep(args) -> int:
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise InvalidRange(f"--range must be lo:hi, got {args.range!r}") from None
    records = run_sweep(
        args.family, args.n, lo, hi, args.steps, args.tol, args.max_iter, args.seed
    )
    text = sweep_csv(records)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        with open(args.svg, "w", encoding="ascii") as fh:
            fh.write(sweep_svg(records, canonical_family(args.family)))
    return 0


def cmd_compare(args) -> int:
    doc = _analyze_document(load_matrix_csv(args.matrix), args.tol, args.max_iter)
    row = {
        "upper_bound": doc["upper_bound"],
        "ba_capacity": doc["ba_capacity"],
        "arimoto": doc["arimoto_bound"],
        "boyd_chiang_col": doc["boyd_chiang_col"],
        "boyd_chiang_row": doc["boyd_chiang_row"],
    }
    names = {"upper_bound": "closed-form", "arimoto": "arimoto",
             "boyd_chiang_col": "boyd-chiang-col", "boyd_chiang_row": "boyd-chiang-row"}
    row["tightest"] = names[min(names, key=row.get)]  # the first of equal bounds
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
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
