"""The three benchmark workloads: seeded inputs and the operations of one pass.

``prepare`` writes every input file before timing starts and returns the
operations of one pass; ``execute`` runs one operation through the package's
public entry points, ``dmcbounds.cli.main`` or a library function exported
from ``dmcbounds``. Both are looked up on the package at call time, so the
traced run sees the wrappers installed by ``spans.py``.

Why each workload exists, and which layer it stresses or bypasses:

- ``relay30-sweep``: the paper's relay-miso sweep at n=30 over three regions
  of alpha: Blahut-Arimoto (BA) hits its iteration cap (0.10, 0.14), the
  matrix is ill-conditioned but invertible (0.22-0.30), and it is singular
  (>= 0.34). ``reference`` (BA) does about 97% of the work. The grid is fixed
  and the seed does not move it: a 0.001 shift of alpha near the cap moves
  BA's iteration count by 40%, which would measure the grid, not the code.
- ``sdd-analyze``: ``analyze --json`` on seeded random strictly diagonally
  dominant positive matrices, n in {16, 64, 128} and min_ratio in
  {1.5, 3, 10}. ``matrix`` (the minimum
  singular value inside ``analyze_inverse``) does about 97% of the work and
  BA needs at most ~80 iterations, so ``reference`` is nearly bypassed.
- ``paper-sweeps``: the README and acceptance runs, many calls at n <= 4
  where per-call overhead outweighs floating-point work. The seed shuffles
  the order of the operations; the inputs themselves are the paper's. It is
  measured and checked like the others but is not listed in
  ``BENCHMARK.json``: its CPU time per pass swung by up to 2x within minutes
  on a shared machine (an IQR/median of 0.21 over ten runs), too wide for
  any regression bound.

``relay30-sweep`` also writes the SVG chart, so that the ``svg`` layer is
measured by a listed workload.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import dmcbounds
import dmcbounds.cli

TOL = 1e-9
WORKLOADS = ("relay30-sweep", "sdd-analyze", "paper-sweeps")
EXAMPLES = ("example-1", "example-3", "example-4")


@dataclass(frozen=True)
class Op:
    """One call of a pass: a CLI invocation or a ``grid_oracle`` call."""

    kind: str  # "sweep", "analyze", "compare" or "oracle"
    label: str
    argv: tuple[str, ...] = ()
    matrix: str | None = None  # input matrix file
    out: str | None = None  # sweep CSV written by the program
    svg: str | None = None  # sweep chart written by the program
    grid: tuple[float, float, int] | None = None  # sweep lo, hi, steps
    alphabet: int = 0  # n of the channel matrix
    resolution: int = 0  # grid_oracle lattice resolution


@dataclass
class Outcome:
    code: int
    stdout: str = ""
    stderr: str = ""
    capacity: float = 0.0  # grid_oracle lattice maximum
    gap: float = 0.0  # grid_oracle certified gap


def _sweep(label, family, n, alphabet, lo, hi, steps, work: Path, svg=False) -> Op:
    out = str(work / f"{label}.csv")
    argv = ["sweep", "--family", family, "--range", f"{lo}:{hi}", "--steps", str(steps),
            "--tol", repr(TOL), "--out", out]
    if n is not None:
        argv[3:3] = ["--n", str(n)]
    chart = str(work / f"{label}.svg") if svg else None
    if chart:
        argv += ["--svg", chart]
    return Op("sweep", label, tuple(argv), out=out, svg=chart, grid=(lo, hi, steps),
              alphabet=alphabet)


def _matrix_ops(label, path: str, alphabet: int, resolution: int) -> list[Op]:
    return [
        Op("analyze", f"analyze {label}", ("analyze", path, "--json", "--tol", repr(TOL)),
           matrix=path, alphabet=alphabet),
        Op("compare", f"compare {label}", ("compare", path, "--tol", repr(TOL)),
           matrix=path, alphabet=alphabet),
        Op("oracle", f"grid_oracle {label}", matrix=path, alphabet=alphabet,
           resolution=resolution),
    ]


def prepare(workload: str, work: Path, seed: int, tiny: bool = False) -> list[Op]:
    """Write the workload's inputs under ``work`` and return one pass's operations.

    ``tiny`` shrinks every size so that the smoke test runs each code path
    in well under a second.
    """
    rng = random.Random(seed)
    if workload == "relay30-sweep":
        n = 4 if tiny else 30
        return [_sweep("relay30", "relay-miso", n, n + 1, 0.02, 0.50, 3 if tiny else 13, work,
                       svg=True)]
    if workload == "sdd-analyze":
        ops = []
        for n in (4, 6) if tiny else (16, 64, 128):
            for ratio in (1.5, 3.0, 10.0):
                path = str(work / f"sdd-n{n}-r{ratio}.csv")
                matrix = dmcbounds.random_sdd_positive(n, ratio, rng.getrandbits(63))
                dmcbounds.dump_matrix_csv(matrix, path)
                ops.append(Op("analyze", f"analyze sdd n={n} ratio={ratio}",
                              ("analyze", path, "--json", "--tol", repr(TOL)),
                              matrix=path, alphabet=n))
        return ops
    if workload == "paper-sweeps":
        ops = [
            _sweep("relay3", "relay-miso", 3, 4, 0.02, 0.98, 5 if tiny else 49, work, svg=True),
            _sweep("beta", "beta", None, 4, 0.05, 0.95, 3 if tiny else 19, work),
        ]
        for name in EXAMPLES:
            path = str(work / f"{name}.csv")
            dmcbounds.dump_matrix_csv(dmcbounds.fixed_example(name), path)
            ops += _matrix_ops(name, path, 3, 30 if tiny else 300)
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def execute(op: Op) -> Outcome:
    """Run one operation; the CLI's printed output is captured, not shown."""
    if op.kind == "oracle":
        try:
            est = dmcbounds.grid_oracle(dmcbounds.load_matrix_csv(op.matrix), op.resolution)
        except dmcbounds.DmcError as exc:
            return Outcome(1, stderr=f"{type(exc).__name__}: {exc}")
        return Outcome(0, capacity=est.capacity, gap=est.gap)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dmcbounds.cli.main(list(op.argv))
    return Outcome(code, out.getvalue(), err.getvalue())
