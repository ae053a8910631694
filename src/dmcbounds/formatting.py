"""Deterministic number formatting shared by report and CSV emitters."""

from __future__ import annotations

import math


def fmt(x: float) -> str:
    """Nine significant digits; NaN becomes the NA marker."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if math.isnan(x):
        return "NA"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".9g")
