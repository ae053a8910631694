"""Deterministic channel-matrix generators.

Fixed 3x3 study matrices, three parametric 4x4/(n+1)-ary families (relay
summation channel, permutation-row family, reliability family), the binary
symmetric channel, and a seeded generator of strictly diagonally dominant
positive matrices for property testing.

The random generator uses splitmix64 so fixtures are reproducible bit-for-bit
from the seed alone, in any language with 64-bit integers.

``build_family(family, *, n=None, parameter=None, seed=None)`` dispatches
through one table, ``_FAMILIES``, of fixed and parametric families alike. Its
eight keys are the only family names; any other is refused. Each entry's
parameter list names the only arguments its family takes, and any other given
argument is refused. A missing one reaches the generator as None, which
refuses it with its own message (random-sdd's seed defaults to 0).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import InvalidParameter
from .matrix import ChannelMatrix, _is_integer, _is_real, validate_channel

RELAY_MAX_N = 60

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, golden-gamma increment, two xor-shift mixes."""

    def __init__(self, seed: int):
        if not _is_integer(seed):
            raise InvalidParameter(f"seed must be an integer, got {seed!r}")
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


# The three fixed 3x3 study matrices: a reliable channel, a permutation-row
# channel with unequal column sums, and an unreliable one.
_FIXED = {
    "example-1": [
        [0.95, 0.01, 0.04],
        [0.03, 0.95, 0.02],
        [0.02, 0.02, 0.96],
    ],
    "example-3": [
        [0.93, 0.04, 0.03],
        [0.04, 0.93, 0.03],
        [0.04, 0.03, 0.93],
    ],
    "example-4": [
        [0.6, 0.3, 0.1],
        [0.7, 0.1, 0.2],
        [0.5, 0.05, 0.45],
    ],
}


def fixed_example(which: str) -> ChannelMatrix:
    """One of the fixed study matrices of ``_FIXED``, by name."""
    if not isinstance(which, str) or which not in _FIXED:
        raise InvalidParameter(f"unknown fixed example {which!r}")
    return validate_channel(_FIXED[which])


def bsc(crossover: float) -> ChannelMatrix:
    """Binary symmetric channel with the given crossover probability."""
    if not (_is_real(crossover) and 0.0 <= crossover <= 1.0):
        raise InvalidParameter(f"crossover must be in [0, 1], got {crossover!r}")
    p = float(crossover)  # a numpy float32 would keep 1 - p in float32
    return validate_channel([[1.0 - p, p], [p, 1.0 - p]])


@lru_cache(maxsize=2)
def _relay_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Row r (0-indexed) means r of the n binary uplinks carry a one; each
    # uplink flips independently with probability alpha; the receiver outputs
    # the count c. So row r is the convolution of Bin(r, 1-alpha) (the ones
    # that survive) with Bin(n-r, alpha) (the zeros that flip up), and term s
    # of entry (r, c) has s ones flipped down and c-r+s zeros flipped up.
    # The table lists only the terms where both binomials are nonzero (5,456
    # of the 31^3 (s, r, c) triples at n = 30), ordered by output cell, then
    # by ascending s; term k has
    #   cell[k]  = r*(n+1) + c, the entry's index in the flattened matrix,
    #   coef[k]  = C(n-r, c-r+s) * C(r, s), rounded once to a double,
    #   flips[k] = c-r+2s.
    # The table is alpha-free, so one build serves a whole sweep at this n;
    # it is read-only because it is shared.
    m = n + 1
    r, c, s = np.ogrid[:m, :m, :m]
    up = c - r + s
    r, c, s = np.nonzero((up >= 0) & (up <= n - r) & (s <= r))
    pascal = np.array([[comb(a, b) for b in range(m)] for a in range(m)], dtype=object)
    cell = r * m + c
    coef = (pascal[n - r, c - r + s] * pascal[r, s]).astype(float)
    flips = c - r + 2 * s
    for table in (cell, coef, flips):
        table.setflags(write=False)
    return cell, coef, flips


def _relay_entries(n: int, alpha: float) -> np.ndarray:
    cell, coef, flips = _relay_table(n)
    apow = np.array([alpha**k for k in range(n + 1)])
    bpow = np.array([(1.0 - alpha) ** k for k in range(n + 1)])
    # bincount adds each cell's terms one by one in input order, from 0.0, so
    # every entry rounds as the scalar sum over ascending s does; the terms
    # the table leaves out only add exact zeros to that sum.
    terms = coef * apow[flips] * bpow[n - flips]
    return np.bincount(cell, terms, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)


def relay_miso(n: int, alpha: float) -> ChannelMatrix:
    """(n+1)-ary channel of n binary uplinks with flip probability alpha,
    summed at the receiver."""
    if not _is_integer(n) or n < 1:
        raise InvalidParameter(f"n must be a positive integer, got {n!r}")
    if n > RELAY_MAX_N:
        raise InvalidParameter(f"n must be at most {RELAY_MAX_N}, got {n}")
    if not (_is_real(alpha) and 0.0 <= alpha <= 1.0):
        raise InvalidParameter(f"alpha must be in [0, 1], got {alpha!r}")
    return validate_channel(_relay_entries(int(n), float(alpha)))


def gamma_family(gamma: float) -> ChannelMatrix:
    """4x4 family whose rows are permutations of the binomial weights
    ((1-g)^3, 3(1-g)^2 g, 3(1-g)g^2, g^3) but whose column sums differ."""
    if not (_is_real(gamma) and 0.0 < gamma < 1.0):
        raise InvalidParameter(f"gamma must be in (0, 1), got {gamma!r}")
    g = float(gamma)
    w3 = (1.0 - g) ** 3
    w2 = 3.0 * (1.0 - g) ** 2 * g
    w1 = 3.0 * (1.0 - g) * g * g
    w0 = g**3
    return validate_channel(
        [
            [w3, w2, w1, w0],
            [w2, w3, w0, w1],
            [w0, w1, w3, w2],
            [w0, w1, w2, w3],
        ]
    )


def beta_family(beta: float) -> ChannelMatrix:
    """4x4 reliability family: diagonal 1-b, fixed off-diagonal weights
    scaled by b. Strictly diagonally dominant exactly for b < 0.5."""
    if not (_is_real(beta) and 0.0 <= beta <= 1.0):
        raise InvalidParameter(f"beta must be in [0, 1], got {beta!r}")
    b = float(beta)
    return validate_channel(
        [
            [1.0 - b, 0.3 * b, 0.4 * b, 0.3 * b],
            [0.4 * b, 1.0 - b, 0.3 * b, 0.3 * b],
            [0.5 * b, 0.4 * b, 1.0 - b, 0.1 * b],
            [0.1 * b, 0.2 * b, 0.7 * b, 1.0 - b],
        ]
    )


def random_sdd_positive(n: int, min_ratio: float, seed: int) -> ChannelMatrix:
    """Seeded strictly diagonally dominant positive matrix with every row's
    diagonal-to-radius ratio at least ``min_ratio``.

    Draw order per row i (splitmix64 stream): one uniform u giving the row
    ratio r_i = min_ratio*(1+u), then n-1 uniforms giving off-diagonal
    weights 0.1+u in column order. Off-diagonal mass is normalized to
    1/(1+r_i) and the diagonal takes the remainder, so the realized ratio is
    exactly r_i and c_min >= min_ratio by construction. A ``min_ratio`` that
    makes some r_i overflow to inf is refused with InvalidParameter.
    """
    if not _is_integer(n) or n < 2:
        raise InvalidParameter(f"n must be an integer of at least 2, got {n!r}")
    if not (_is_real(min_ratio) and min_ratio > 1.0):
        raise InvalidParameter(f"min_ratio must exceed 1, got {min_ratio!r}")
    min_ratio = float(min_ratio)
    rng = SplitMix64(seed)
    a = np.zeros((n, n))
    for i in range(n):
        ratio = min_ratio * (1.0 + rng.next_float())
        if not ratio < np.inf:
            raise InvalidParameter(f"min_ratio {min_ratio!r} gives row {i} an infinite ratio")
        off_mass = 1.0 / (1.0 + ratio)
        weights = np.array([0.1 + rng.next_float() for _ in range(n - 1)])
        weights *= off_mass / weights.sum()
        a[i] = np.insert(weights, i, 1.0 - off_mass)
    return validate_channel(a)


_FAMILIES = {  # family -> generator, called with the arguments it names
    "example-1": lambda: fixed_example("example-1"),
    "example-3": lambda: fixed_example("example-3"),
    "example-4": lambda: fixed_example("example-4"),
    "relay-miso": lambda n, parameter: relay_miso(n, parameter),
    "gamma": lambda parameter: gamma_family(parameter),
    "beta": lambda parameter: beta_family(parameter),
    "bsc": lambda parameter: bsc(parameter),
    "random-sdd": lambda n, parameter, seed: random_sdd_positive(
        n, parameter, 0 if seed is None else seed
    ),
}
_TAKES = {  # family -> the names of its generator's parameters, read once
    family: make.__code__.co_varnames[: make.__code__.co_argcount]
    for family, make in _FAMILIES.items()
}


def build_family(family: str, *, n=None, parameter=None, seed=None) -> ChannelMatrix:
    """``family``'s matrix from the arguments its generator names; a given
    argument it does not name is refused, in the order n, parameter, seed."""
    if not isinstance(family, str):
        raise InvalidParameter(f"family name must be a string, got {family!r}")
    if family not in _FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    given = {"n": n, "parameter": parameter, "seed": seed}
    takes = _TAKES[family]
    for name, value in given.items():
        if value is not None and name not in takes:
            raise InvalidParameter(f"family {family!r} takes no {name}")
    return _FAMILIES[family](**{name: given[name] for name in takes})
