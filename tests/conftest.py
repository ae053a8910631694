import contextlib
import importlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dmcbounds import fixed_example, random_sdd_positive, validate_channel


@pytest.fixture(scope="session")
def ex1():
    return fixed_example("example-1")


@pytest.fixture(scope="session")
def ex3():
    return fixed_example("example-3")


@pytest.fixture(scope="session")
def ex4():
    return fixed_example("example-4")


@pytest.fixture(scope="session")
def bsc01():
    return validate_channel([[0.9, 0.1], [0.1, 0.9]])


def relay_miso_explicit3(alpha: float) -> np.ndarray:
    """The 4x4 relay summation matrix for three uplinks, written out term by
    term. Ground truth for the general generator's index convention."""
    a = alpha
    b = 1.0 - alpha
    return np.array(
        [
            [b**3, 3 * b * b * a, 3 * b * a * a, a**3],
            [a * b * b, 2 * a * a * b + b**3, 2 * b * b * a + a**3, b * a * a],
            [b * a * a, 2 * b * b * a + a**3, 2 * a * a * b + b**3, a * b * b],
            [a**3, 3 * b * a * a, 3 * b * b * a, b**3],
        ]
    )


def sdd_fixture_params():
    """The 200 deterministic SDD-positive property fixtures: every
    (n, min_ratio) combination over n in 2..6 and four ratios, 10 seeds each."""
    params = []
    seed = 0
    for n in range(2, 7):
        for min_ratio in (1.5, 3.0, 10.0, 50.0):
            for _ in range(10):
                params.append((n, min_ratio, seed))
                seed += 1
    return params


@pytest.fixture(scope="session")
def sdd_fixtures():
    return [
        (n, r, s, random_sdd_positive(n, r, s)) for n, r, s in sdd_fixture_params()
    ]


def corpus_matrices():
    """(name, matrix): the three fixed examples, the 3x3 identity, a 5x5
    channel with two noiseless inputs, and the nine random-sdd matrices n in
    {4, 16, 64} x min_ratio in {1.5, 3, 10}, seed 100 n + floor(ratio)."""
    named = [(name, fixed_example(name)) for name in ("example-1", "example-3", "example-4")]
    named.append(("identity-3", validate_channel(np.eye(3))))
    # inputs 1-3 are told apart without error, so C >= log2 3, yet the row
    # maxima sum to 2.9: log2 sum_i max_j A_ij is no bound
    block = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, .4, .35, .25],
             [.1, .1, .3, .3, .2], [.2] * 5]
    named.append(("noiseless-block", validate_channel(np.array(block, dtype=float))))
    for n in (4, 16, 64):
        for ratio in (1.5, 3.0, 10.0):
            named.append((f"sdd-n{n}-r{ratio:g}", random_sdd_positive(n, ratio, 100 * n + int(ratio))))
    return named


# (family, n, lo, hi, steps) of the golden corpus's sweeps
CORPUS_SWEEPS = {
    "sweep-relay-n3": ("relay-miso", 3, 0.02, 0.98, 49),
    "sweep-relay-n30": ("relay-miso", 30, 0.02, 0.50, 13),
    "sweep-relay-n60": ("relay-miso", 60, 0.02, 0.50, 25),
    "sweep-beta": ("beta", None, 0.05, 0.95, 19),
    "sweep-gamma": ("gamma", None, 0.05, 0.95, 19),
    "sweep-bsc": ("bsc", None, 0.05, 0.45, 5),
}


def cli_grid(lo, hi, steps):
    """The parameter points of ``dmcbounds sweep --range lo:hi --steps steps``,
    written out here so that tests check the CLI's grid, not read it."""
    return [hi if i == steps - 1 else lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def spy(monkeypatch, target, log=None):
    """Record each call of ``target``, a dotted name such as
    ``"dmcbounds.reference._solve"``, as ``(name, args, kwargs, result)`` in
    ``log`` (a new list if None), which is returned.

    Array arguments are copied at the call, since the solver rewrites some
    of them afterwards. A record is appended when its call returns, so a
    nested call comes before its caller, and a log shared by two targets
    interleaves their calls."""
    module, name = target.rsplit(".", 1)
    module = importlib.import_module(module)
    original = getattr(module, name)
    log = [] if log is None else log

    def copied(value):
        return value.copy() if isinstance(value, np.ndarray) else value

    def recording(*args, **kwargs):
        record = (name, tuple(map(copied, args)), {k: copied(v) for k, v in kwargs.items()})
        result = original(*args, **kwargs)
        log.append((*record, result))
        return result

    monkeypatch.setattr(module, name, recording)
    return log


def divergences_by_loops(matrix, q) -> np.ndarray:
    """Independent D_i = D(A_i || q) in bits, entry by entry: +inf where row i
    reaches an output that q misses."""
    d = np.zeros(matrix.n)
    for i, row in enumerate(matrix.entries):
        for aij, qj in zip(row, q):
            if aij > 0.0:
                d[i] += math.inf if qj == 0.0 else aij * math.log2(aij / qj)
    return d


def entropy2(values) -> float:
    """Independent base-2 entropy helper for expected values in tests."""
    v = np.asarray(values, dtype=float)
    v = v[v > 0]
    return float(-(v * np.log2(v)).sum())


def build_key() -> dict:
    """What fixes the last bits of a floating-point result: numpy, its BLAS,
    and the CPU features that pick numpy's SIMD loops and OpenBLAS's
    DYNAMIC_ARCH kernel (which the OPENBLAS_CORETYPE variable can override)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except TypeError:  # numpy < 1.26 prints its configuration only
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        blas = " ".join(re.findall(r"OpenBLAS \S+|openblas\S*|mkl\S*", text.getvalue())[:2])
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
    }


def recorded_build() -> dict:
    """The build key of the build that wrote the golden corpus."""
    path = Path(__file__).resolve().parent / "golden" / "BUILD.json"
    return json.loads(path.read_text(encoding="ascii"))
