"""Reported-real precision control (counts are exact; only sums are rounded)."""

import os

import mpmath

_ENV = "CUSPNORM_PRECISION"


def default_dps() -> int:
    """Significant digits for reported reals; env CUSPNORM_PRECISION overrides 50."""
    raw = os.environ.get(_ENV)
    if raw is None:
        return 50
    try:
        dps = int(raw)
    except ValueError:
        dps = 0
    if dps < 1:
        raise ValueError(f"{_ENV} must be a positive integer, got {raw!r}")
    return dps


def working_precision():
    """mpmath context for rounded sums: default_dps() plus 10 guard digits."""
    return mpmath.workdps(default_dps() + 10)
