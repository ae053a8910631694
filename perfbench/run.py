"""Benchmark of the dmcbounds package: three workloads, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload relay30-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

It is a single-process, closed-loop benchmark: each workload runs in one fresh
Python process, one call at a time, with the package imported from ``src/``
and BLAS held at one thread. The workloads, why they were chosen and why
``paper-sweeps`` is run but not listed in ``BENCHMARK.json`` are described
in ``workloads.py``.

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of the CPU time to import the
  package and finish a first ``generate`` + ``compare`` call;
- ``ref_cpu_s``: median CPU time of one pass of the workload at tol=1e-9,
  the time to solution of this single-threaded closed loop;
- ``solved_share``: share of attempted points that were certified and passed
  every output check (1 - failed_share; failed_share itself is printed too,
  but a metric that is 0 on most workloads cannot carry a relative bound);
- ``peak_rss_mb``: peak resident memory of the measuring process.

Both times are in reference seconds (see ``calib.py``): CPU seconds scaled
by a calibration loop timed in the same process next to them. On a shared
virtual machine wall time also counts time the CPU was taken away, and even
CPU time swung by 1.4x over tens of minutes; two sets of runs of the same
code moved the raw medians by over 20%. The raw wall and CPU figures are
printed on a comment line but carry no bound.

With ``--trace 1`` the same passes run with a span around every call into a
layer's public function, and the per-layer metrics are reported instead.
The spans are written under ``.perfbench_work/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
points whose output is wrong or whose command failed; points the program
leaves honestly uncertified (BA at its iteration cap) lower
``solved_share`` instead. The exit code is 0 once a result is printed, and
non-zero with no result when the checkout has no ``src/dmcbounds``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("relay30-sweep", "sdd-analyze", "paper-sweeps")  # BENCHMARK.json lists the first two
SETUP_RUNS = 5
TIMEOUT_S = 170  # a run must end within 180 s


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and the metrics with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = deadline - time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=max(timeout, 1.0), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, traced: bool, tiny: bool) -> dict:
    """Set-up probes, then the measuring process; inputs live in a scratch dir."""
    deadline = time.monotonic() + TIMEOUT_S
    work = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [worker(["setup", str(work)], deadline) for _ in range(SETUP_RUNS)]
        args = ["run", workload, str(seed), str(seconds), str(int(traced)), str(work)]
        result = worker(args + (["--tiny"] if tiny else []), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key in ("setup_s", "setup_cpu_s", "setup_wall_s"):
        result[key] = statistics.median(probe[key] for probe in setups)
    return result


def report(workload: str, seed: int, traced: bool, result: dict, spec: dict) -> dict:
    """Print the human-readable lines and return the contract's JSON object."""
    statuses = result["statuses"]
    attempted = result["attempted"]
    failed = statuses.get("wrong", 0) + statuses.get("error", 0)
    unsolved = statuses.get("unsolved", 0)
    failed_share = (failed + unsolved) / attempted
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"# {workload} seed={seed} trace={int(traced)} passes={result['passes']} "
          f"points/pass={result['points_per_pass']}")
    print(f"# env {env}")
    print(f"# failed_share={failed_share:.6f} ({unsolved} unsolved, {failed} wrong or "
          f"errored, of {attempted} attempted)")
    print(f"# raw, not bounded: wall_s={result['wall_s']:.6g} s cpu_s={result['cpu_s']:.6g} s "
          f"setup_wall_s={result['setup_wall_s']:.6g} s "
          f"setup_cpu_s={result['setup_cpu_s']:.6g} s")
    for problem in result["problems"]:
        print(f"#   {problem}")
    if traced:
        values = result["per_layer"]
        print(f"# trace written to {result['trace_file']}")
    else:
        values = {"setup_s": result["setup_s"], "ref_cpu_s": result["ref_cpu_s"],
                  "solved_share": 1.0 - failed_share, "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if traced else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dmcbounds" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dmcbounds'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            results.append(report(name, args.seed, bool(args.trace), result, spec))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
