"""Deterministic number formatting shared by report and CSV emitters."""

from __future__ import annotations

import math

import numpy as np


def fmt(value) -> str:
    """How every command prints one value: None and NaN are NA, an array its
    values comma-joined, a bool true or false, a float at nine significant
    digits, and anything else (an int, a Condition, a name) through ``str``."""
    if value is None:
        return "NA"
    if isinstance(value, np.ndarray):
        return ",".join(map(fmt, value.tolist()))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "NA" if math.isnan(value) else format(value, ".9g")
    return str(value)
