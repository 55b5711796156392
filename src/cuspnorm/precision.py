"""Reported-real precision control (counts are exact; only sums are rounded)."""

import os
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext

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
    """Thread-local decimal context for rounded sums: default_dps() + 10 digits."""
    return localcontext(Context(prec=default_dps() + 10))


def nstr(x: Decimal, n: int) -> str:
    """x rounded half-up to n significant digits, trailing zeros dropped (one
    kept after the point); fixed point while the leading digit's position e
    has min(-(n // 3), -5) < e < n, else a d.ddd mantissa and e+E or e-E."""
    ctx = Context(prec=n, rounding=ROUND_HALF_UP)
    y = ctx.normalize(x)
    e = y.adjusted()
    fixed = min(-(n // 3), -5) < e < n
    text = f"{y if fixed else ctx.scaleb(y, -e):f}"
    if "." not in text:
        text += ".0"
    return text if fixed else f"{text}e{e:+d}"
