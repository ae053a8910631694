"""In-memory spans around every call into a layer's public function.

Layers are the package's modules. ``Tracer.install`` wraps each public
function defined in a layer module and rebinds it in every module of the
package that holds it, so calls between modules are traced too. Nothing is
traced inside a function: a span starts and ends at the call boundary.

A span records name, start, end and parent (the span that was open when it
started), plus a point id: every grid point of a sweep, and every other
operation of a pass, has its own. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from dataclasses import dataclass

LAYERS = ("families", "matrix", "bounds", "reference", "cli", "formatting", "svg")
POINT_SPAN = "cli.sweep_record"  # one sweep grid point
CAPTURE = "matrix.analyze_inverse"  # its matrices are re-timed stage by stage
FORMAT_SPANS = ("cli.sweep_csv",)  # cli functions that only format output


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index in the same pass, -1 for a root
    point: int
    iterations: int | None = None  # BA iterations or grid_oracle lattice points
    raised: str | None = None  # exception type name

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.passes: list[list[Span]] = []
        self.spans: list[Span] = []
        self.captured: list = []  # arguments of CAPTURE calls in the first pass
        self._stack: list[int] = []
        self._point = 0
        self._next_point = 0
        self._restore: list[tuple[object, str, object]] = []

    def new_pass(self) -> None:
        self.spans = []
        self.passes.append(self.spans)

    def new_point(self) -> None:
        self._next_point += 1
        self._point = self._next_point

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self._point)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_point = self._point
            if name == POINT_SPAN:
                self.new_point()
            if name == CAPTURE and len(self.passes) == 1:
                self.captured.append(args[0])
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.raised = type(exc).__name__
                span.iterations = getattr(exc, "iterations", None)
                raise
            else:
                span.end = time.perf_counter()
                span.iterations = getattr(result, "iterations", None)
                return result
            finally:
                self._stack.pop()
                self._point = outer_point

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one of its operations."""
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every public function of each layer, wherever it is bound."""
        modules = [importlib.import_module(f"dmcbounds.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules + [importlib.import_module("dmcbounds")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore = []

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for index, spans in enumerate(self.passes):
                for i, s in enumerate(spans):
                    fh.write(json.dumps({
                        "pass": index, "id": i, "parent": s.parent, "point": s.point,
                        "name": s.name, "start": s.start, "end": s.end,
                        "iterations": s.iterations, "raised": s.raised,
                    }) + "\n")


def span_cost(reps: int = 5, calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""

    def noop():
        return None

    tracer = Tracer()
    tracer.new_pass()
    traced = tracer.wrap("calibration.noop", noop)
    costs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def outermost(spans: list[Span], match) -> list[Span]:
    """Spans satisfying ``match`` with no ancestor that also satisfies it."""
    inside = [False] * len(spans)
    found = []
    for i, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            inside[i] = inside[s.parent] or match(p)
        if match(s) and not inside[i]:
            found.append(s)
    return found


def covered(spans: list[Span], match) -> float:
    """Wall time covered by spans satisfying ``match``, nesting counted once."""
    return sum(s.duration for s in outermost(spans, match))


def self_time(spans: list[Span], match) -> float:
    """Time inside spans satisfying ``match`` minus the time of their children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return sum(s.duration - child[i] for i, s in enumerate(spans) if match(s))


def _named(*names):
    return lambda s: s.name in names


def _is_format(s: Span) -> bool:
    return s.layer == "formatting" or s.name in FORMAT_SPANS


def layer_metrics(spans: list[Span], wall: float, cost: float) -> dict[str, float]:
    """Per-layer figures of one traced pass of ``wall`` seconds."""
    ba = outermost(spans, _named("reference.blahut_arimoto"))
    ba_s = sum(s.duration for s in ba)
    iterations = sum(s.iterations or 0 for s in ba)
    oracle = outermost(spans, _named("reference.grid_oracle"))
    program = [s for s in spans if not s.name.startswith("bench.")]
    layer_spans = covered(spans, lambda s: s.layer not in ("cli", "bench") or _is_format(s))
    return {
        "families.build_s": covered(spans, lambda s: s.layer == "families"),
        "families.build_calls": len(outermost(spans, lambda s: s.layer == "families")),
        "matrix.load_csv_s": covered(spans, _named("matrix.load_matrix_csv")),
        "matrix.validate_s": covered(spans, _named("matrix.validate_channel")),
        "matrix.analyze_inverse_s": covered(spans, _named("matrix.analyze_inverse")),
        "bounds.closed_form_s": self_time(spans, lambda s: s.layer == "bounds"),
        "reference.ba_s": ba_s,
        "reference.ba_iterations": iterations,
        "reference.ba_capped_points": sum(s.raised == "NotConverged" for s in ba),
        "reference.ba_us_per_iter": ba_s / iterations * 1e6 if iterations else 0.0,
        "reference.grid_oracle_s": sum(s.duration for s in oracle),
        "reference.grid_lattice_points": sum(s.iterations or 0 for s in oracle),
        "reference.competing_s": covered(spans, _named(
            "reference.arimoto_upper_bound", "reference.boyd_chiang_upper_bound")),
        "cli.format_s": covered(spans, _is_format),
        "svg.render_s": covered(spans, lambda s: s.layer == "svg"),
        "cli.other_s": wall - layer_spans,
        "trace.wall_s": wall,
        "trace.spans": len(program),
        "trace.overhead_share": len(program) * cost / wall,
    }
