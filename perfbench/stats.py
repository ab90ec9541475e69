"""Summary statistics shared by the end-to-end and per-layer reports."""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def window_shape(windows: list[tuple[int, int]]) -> tuple[float, int]:
    """(distinct payloads / reports, max reports) over (reports, distinct) pairs."""
    reports = sum(n for n, _ in windows)
    distinct = sum(d for _, d in windows)
    return (distinct / reports if reports else 0.0,
            max((n for n, _ in windows), default=0))
