"""Cusp combinatorics of Gamma0(N): denominators, enumeration with widths,
and per-prime local profiles.

Conventions: a cusp is a Gamma0(N)-orbit on P^1(Q); representatives are
coprime pairs (a, c) with c >= 0, infinity encoded as (1, 0).  The
denominator of a class is the unique positive divisor of N appearing as
the reduced denominator of some representative; gcd(0, N) = N makes the
formula C = gcd(c, N) total.
"""

from dataclasses import dataclass
from math import gcd

from .arith import divisors, factored, valuation
from .modgroup import Mat2


@dataclass(frozen=True)
class CuspClass:
    """One Gamma0(N)-orbit: representative a/c, denominator and width."""

    a: int
    c: int
    denominator: int
    width: int


def cusp_denominator(tau: Mat2, n: int) -> int:
    """C(tau) = gcd(c, N) for tau in SL2(Z), with gcd(0, N) = N."""
    tau.require_sl2()
    return gcd(tau.c, n)


def local_profile(tau: Mat2, n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, n_p, c_p, w_p) for each p | N, with c_p = min(v_p(c), n_p) and
    w_p = max(n_p - 2*c_p, 0)."""
    tau.require_sl2()
    c = tau.c
    entries = []
    for p, np_ in factored(n):
        cp = np_ if c == 0 else min(valuation(c, p), np_)
        wp = max(np_ - 2 * cp, 0)
        entries.append((p, np_, cp, wp))
    return tuple(entries)


def enumerate_cusps(n: int) -> list[CuspClass]:
    """One representative per cusp of Gamma0(N), sorted by (denominator, a).

    For each divisor c | N there are phi(gcd(c, N/c)) classes, indexed by
    residues a mod gcd(c, N/c) coprime to it; the representative numerator
    is lifted to be coprime to c.  The unique denominator-N class is the
    cusp at infinity, stored as (1, 0).
    """
    out = []
    for c in divisors(n):
        g = gcd(c, n // c)
        width = n // gcd(c * c, n)
        for a0 in range(1, g + 1):
            if gcd(a0, g) != 1:
                continue
            a = a0
            while gcd(a, c) != 1:
                a += g
            if c == n:
                out.append(CuspClass(1, 0, n, 1))
            else:
                out.append(CuspClass(a, c, c, width))
    return sorted(out, key=lambda k: (k.denominator, k.a))


def cusp_table_json(n: int) -> dict:
    return {
        "level": n,
        "cusps": [
            {"rep": [k.a, k.c], "denominator": k.denominator, "width": k.width}
            for k in enumerate_cusps(n)
        ],
    }

