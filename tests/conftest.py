import contextlib
import io
import json
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
