"""One fresh benchmark process: measures set-up, or runs one workload.

``run.py`` starts this script with the package's ``src`` directory on
``PYTHONPATH`` and the BLAS thread count fixed. Usage::

    worker.py setup WORKDIR
    worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR [--tiny]

``setup`` prints the CPU and wall seconds from the first import of the
package to the end of a first ``generate`` and ``compare`` call, and the CPU
time in reference seconds (see ``calib.py``). ``run`` prepares the
workload's inputs, repeats timed passes until the next one would overrun
SECONDS (at least one pass), checks every pass's outputs outside the timed
region and prints one JSON line of results.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter(), time.process_time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(work: Path) -> dict:
    import dmcbounds.cli

    matrix = str(work / "setup-example-1.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [dmcbounds.cli.main(["generate", "--family", "example-1", "--out", matrix]),
                 dmcbounds.cli.main(["compare", matrix])]
    wall, cpu = time.perf_counter() - SETUP_START[0], time.process_time() - SETUP_START[1]
    if codes != [0, 0]:
        raise SystemExit(f"set-up calls exited {codes}")
    from calib import loop_cpu_s, reference_seconds

    return {"setup_wall_s": wall, "setup_cpu_s": cpu,
            "setup_s": reference_seconds(cpu, loop_cpu_s())}


def environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def stage_split(matrices) -> dict[str, float]:
    """Time the stages of ``analyze_inverse`` on the matrices it received,
    untraced, in the order and with the early exit that it has."""
    from dmcbounds import SingularMatrix, matrix

    stages = {"matrix.invert_s": 0.0, "matrix.sigma_min_s": 0.0,
              "matrix.row_entropies_s": 0.0, "matrix.gershgorin_s": 0.0}
    seen = set()
    for m in matrices:
        if id(m) in seen:
            continue
        seen.add(id(m))
        for key, fn in (("matrix.gershgorin_s", matrix.gershgorin),
                        ("matrix.row_entropies_s", matrix.row_entropies),
                        ("matrix.invert_s", matrix.invert),
                        ("matrix.sigma_min_s", matrix.min_singular_value)):
            t0 = time.perf_counter()
            try:
                fn(m)
            except SingularMatrix:
                stages[key] += time.perf_counter() - t0
                break
            stages[key] += time.perf_counter() - t0
    return stages


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path, tiny: bool) -> dict:
    import dmcbounds

    if not Path(dmcbounds.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {dmcbounds.__file__}, not the package under {SRC}")
    import check
    import workloads
    from calib import loop_cpu_s, reference_seconds
    from spans import Tracer, layer_metrics, span_cost

    ops = workloads.prepare(workload, work, seed, tiny)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    walls, cpus, refs, statuses, point_flags = [], [], [], {}, None
    start = time.perf_counter()
    loop_before = loop_cpu_s()
    while True:
        if tracer:
            tracer.new_pass()
        t0, c0 = time.perf_counter(), time.process_time()
        outcomes = []
        for op in ops:
            if tracer:
                tracer.new_point()
                with tracer.span(f"bench.{op.kind}"):
                    outcomes.append(workloads.execute(op))
            else:
                outcomes.append(workloads.execute(op))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        loop_after = loop_cpu_s()
        refs.append(reference_seconds(cpus[-1], (loop_before + loop_after) / 2))
        loop_before = loop_after
        points = check.check_pass(ops, outcomes)
        for p in points:
            statuses.setdefault(p.status, []).append(f"{p.label}: {p.reason}")
        if point_flags is None:
            point_flags = {
                "bounds.na_points": sum(p.closed_form_na for p in points),
                "bounds.vacuous_points": sum(p.vacuous for p in points),
                "bounds.feasible_points": sum(p.feasible for p in points),
            }
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    result = {
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "ref_cpu_s": statistics.median(refs),
        "points_per_pass": len(points),
        "attempted": sum(len(v) for v in statuses.values()),
        "statuses": {k: len(v) for k, v in statuses.items()},
        "problems": sorted(set(statuses.get("wrong", []) + statuses.get("error", [])
                               + statuses.get("unsolved", [])))[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        tracer.uninstall()
        cost = span_cost()
        per_pass = [layer_metrics(spans, wall, cost) for spans, wall in zip(tracer.passes, walls)]
        layers = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
        layers.update(point_flags)
        layers.update(stage_split(tracer.captured))
        result["per_layer"] = layers
        trace_dir = work.parent / "trace"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{workload}-seed{seed}.jsonl"
        tracer.write(trace_file, {"workload": workload, "seed": seed, "walls": walls,
                                  "span_cost_s": cost, "env": result["env"]})
        result["trace_file"] = str(trace_file)
    return result


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        print(json.dumps(setup(Path(argv[1]))))
    elif argv[0] == "run":
        workload, seed, seconds, traced, work = argv[1:6]
        result = run(workload, int(seed), float(seconds), traced == "1", Path(work),
                     "--tiny" in argv[6:])
        print(json.dumps(result))
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
