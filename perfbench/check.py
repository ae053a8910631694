"""Output checks, run after each timed pass on what the operations wrote.

Every output is a point with one status:

- ``ok``: certified and consistent;
- ``unsolved``: the program answered honestly but without a certified result,
  such as an NA ``ba_capacity`` (BA hit its iteration cap) or a closed form
  that is NA for a reason other than a singular or non-positive matrix;
- ``wrong``: a check failed, for example a printed upper bound below the
  certified BA capacity;
- ``error``: the command exited non-zero or wrote no readable output.

Values printed at 9 significant digits carry a rounding slack of half a unit
in their last digit; every comparison allows for it on both sides.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from decimal import Decimal

from workloads import TOL

SWEEP_HEADER = (
    "parameter,upper_bound,ba_capacity,arimoto,"
    "boyd_chiang_col,boyd_chiang_row,prop3,cor2,feasible"
)
COMPARE_HEADER = "upper_bound,ba_capacity,arimoto,boyd_chiang_col,boyd_chiang_row,tightest"
COMPARE_NAMES = ("closed-form", "arimoto", "boyd-chiang-col", "boyd-chiang-row")
FEASIBLE_MATCH = 1e-6  # closed form vs BA where p* is a valid pmf
OVERLAP_SLACK = 1e-12  # rounding allowance between two certified brackets
NA_CONDITION = "precondition-not-met"  # singular or non-positive matrix


@dataclass
class Point:
    label: str
    status: str  # "ok", "unsolved", "wrong" or "error"
    reason: str = ""
    closed_form_na: bool = False
    vacuous: bool = False  # closed form above log2 n
    feasible: bool = False


@dataclass
class Printed:
    """A number read back from program output, with its rounding slack."""

    value: float
    slack: float = 0.0


def parse_printed(text: str) -> Printed | None:
    """Parse a value as ``formatting.fmt`` prints it; ``NA`` gives None."""
    text = text.strip()
    if text == "NA":
        return None
    value = float(text)  # ValueError for anything that is not a number
    if not math.isfinite(value):
        return Printed(value)
    return Printed(value, 0.5 * 10.0 ** Decimal(text).as_tuple().exponent)


def _json_number(value) -> Printed | None:
    """``analyze --json`` writes full-precision floats, or NA/inf as strings."""
    if isinstance(value, str):
        return parse_printed(value)
    return Printed(float(value))


def _bounds_problems(bounds: dict, ba: Printed) -> list[str]:
    problems = []
    for name, bound in bounds.items():
        if bound is None:
            continue
        if bound.value < ba.value - TOL - bound.slack - ba.slack:
            problems.append(f"{name} {bound.value!r} below BA capacity {ba.value!r}")
    return problems


def _closed_form_point(label, upper, ba, feasible, alphabet, na_ok, bounds) -> Point:
    """Shared verdict for one closed-form row against a certified BA capacity."""
    if upper is None:
        if not na_ok:
            return Point(label, "unsolved", "closed form NA without a singular matrix")
        point = Point(label, "ok", closed_form_na=True)
    else:
        point = Point(label, "ok", vacuous=upper.value > math.log2(alphabet),
                      feasible=feasible)
    if ba is None:
        point.status, point.reason = "unsolved", "BA capacity NA (not certified)"
        return point
    problems = _bounds_problems(bounds, ba)
    if feasible and upper is not None:
        slack = FEASIBLE_MATCH + upper.slack + ba.slack
        if abs(upper.value - ba.value) > slack:
            problems.append(f"feasible closed form {upper.value!r} != BA {ba.value!r}")
    if problems:
        point.status, point.reason = "wrong", "; ".join(problems)
    return point


def check_sweep_csv(label: str, text: str, grid, alphabet: int) -> list[Point]:
    """One point per expected grid row of a ``sweep`` CSV."""
    lo, hi, steps = grid
    lines = text.rstrip("\n").split("\n")
    if lines[0] != SWEEP_HEADER:
        return [Point(label, "error", f"unexpected header {lines[0]!r}")] * steps
    rows = lines[1:]
    points = []
    for i in range(steps):
        name = f"{label}[{i}]"
        if i >= len(rows):
            points.append(Point(name, "error", "row missing"))
            continue
        fields = rows[i].split(",")
        if len(fields) != 9:
            points.append(Point(name, "error", f"{len(fields)} fields"))
            continue
        try:
            param, upper, ba, arimoto, col, row = (parse_printed(f) for f in fields[:6])
        except ValueError as exc:
            points.append(Point(name, "error", str(exc)))
            continue
        x = hi if i == steps - 1 else lo + i * (hi - lo) / (steps - 1)
        if param is None or abs(param.value - x) > param.slack:
            points.append(Point(name, "wrong", f"parameter {fields[0]} is not {x!r}"))
            continue
        bounds = {"upper_bound": upper, "arimoto": arimoto,
                  "boyd_chiang_col": col, "boyd_chiang_row": row}
        points.append(_closed_form_point(
            name, upper, ba, fields[8] == "true", alphabet,
            na_ok=fields[6] == NA_CONDITION, bounds=bounds))
    if len(rows) > steps:
        points.append(Point(f"{label} extra rows", "wrong", f"{len(rows)} rows"))
    return points


def check_svg(label: str, text: str) -> Point:
    """The chart parses as XML and draws at least one series."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return Point(label, "wrong", f"SVG does not parse: {exc}")
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if not lines:
        return Point(label, "wrong", "SVG has no series")
    return Point(label, "ok")


def check_analyze_json(label: str, text: str, alphabet: int) -> tuple[Point, dict | None]:
    """Verdict for one ``analyze --json`` document, and the document itself."""
    try:
        doc = json.loads(text)
        upper = _json_number(doc["upper_bound"])
        ba = _json_number(doc["ba_capacity"])
        gap = _json_number(doc["ba_gap"])
        bounds = {"upper_bound": upper, "arimoto_bound": _json_number(doc["arimoto_bound"]),
                  "boyd_chiang_col": _json_number(doc["boyd_chiang_col"]),
                  "boyd_chiang_row": _json_number(doc["boyd_chiang_row"])}
    except (ValueError, KeyError, TypeError) as exc:
        return Point(label, "error", f"unreadable analyze output: {exc!r}"), None
    if doc.get("n") != alphabet:
        return Point(label, "wrong", f"n={doc.get('n')!r}, expected {alphabet}"), doc
    if gap is None or not gap.value <= TOL:
        ba = None  # BA's bracket is not certified at the requested tolerance
    point = _closed_form_point(label, upper, ba, doc["feasible"] is True, alphabet,
                               na_ok=False, bounds=bounds)
    return point, doc


def check_compare_csv(label: str, text: str) -> Point:
    """Every bound of a ``compare`` row lies above BA, and ``tightest`` is the least."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) != 2 or lines[0] != COMPARE_HEADER:
        return Point(label, "error", f"unexpected compare output {text!r}")
    fields = lines[1].split(",")
    try:
        values = [parse_printed(f) for f in fields[:5]]
    except ValueError as exc:
        return Point(label, "error", str(exc))
    if None in values:
        return Point(label, "unsolved", "NA in compare row")
    ba = values[1]
    bounds = dict(zip(COMPARE_NAMES, values[:1] + values[2:]))
    problems = _bounds_problems(bounds, ba)
    tightest = bounds.get(fields[5])
    least = min(b.value + b.slack for b in bounds.values())
    if tightest is None or tightest.value - tightest.slack > least:
        problems.append(f"tightest {fields[5]!r} is not the least bound")
    if problems:
        return Point(label, "wrong", "; ".join(problems))
    return Point(label, "ok")


def check_oracle(label: str, capacity: float, gap: float, doc: dict | None) -> Point:
    """The grid_oracle bracket overlaps BA's bracket from ``analyze`` on the same file."""
    if doc is None:
        return Point(label, "error", "no analyze document for the same matrix")
    ba, ba_gap = doc["ba_capacity"], doc["ba_gap"]
    if not (capacity <= ba + ba_gap + OVERLAP_SLACK and ba <= capacity + gap + OVERLAP_SLACK):
        return Point(label, "wrong",
                     f"grid bracket [{capacity!r}, +{gap!r}] misses BA [{ba!r}, +{ba_gap!r}]")
    return Point(label, "ok")


def check_pass(ops, outcomes) -> list[Point]:
    """Check everything one pass wrote; reads the sweep files from disk."""
    analyzed = {
        i: check_analyze_json(op.label, res.stdout, op.alphabet)
        for i, (op, res) in enumerate(zip(ops, outcomes))
        if op.kind == "analyze" and res.code == 0
    }
    docs = {ops[i].matrix: doc for i, (_, doc) in analyzed.items()}
    points: list[Point] = []
    for i, (op, res) in enumerate(zip(ops, outcomes)):
        if res.code != 0:
            count = op.grid[2] + bool(op.svg) if op.kind == "sweep" else 1
            reason = f"exit code {res.code}: {res.stderr.strip()[:200]}"
            points += [Point(op.label, "error", reason)] * count
        elif op.kind == "sweep":
            with open(op.out, encoding="ascii") as fh:
                points += check_sweep_csv(op.label, fh.read(), op.grid, op.alphabet)
            if op.svg:
                with open(op.svg, encoding="ascii") as fh:
                    points.append(check_svg(f"{op.label} svg", fh.read()))
        elif op.kind == "analyze":
            points.append(analyzed[i][0])
        elif op.kind == "compare":
            points.append(check_compare_csv(op.label, res.stdout))
        else:
            points.append(check_oracle(op.label, res.capacity, res.gap, docs.get(op.matrix)))
    return points
