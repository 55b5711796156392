"""Exact integer number theory: factorization, valuations, splits, CRT,
Euclid and prime lists.

Everything here is deterministic and exact; inputs are desk-scale
(roughly 64-bit, and in practice levels and determinants in the
thousands), so trial division is plenty.
"""

from math import gcd, isqrt

from .errors import Inconsistent, InvalidM


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (p, e) pairs; factor(1) == [].

    Trial division by 2, 3 and the wheel 5, 7, 11, 13, ... (numbers prime
    to 6)."""
    if n < 1:
        raise ValueError(f"factor expects n >= 1, got {n}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 2 if p % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial pairs
    (d, n // d) with d <= isqrt(n)."""
    if n < 1:
        raise ValueError(f"divisors expects n >= 1, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = n2 * n0**2 with n2 squarefree and n0 maximal; return (n2, n0)."""
    n2 = n0 = 1
    for p, e in factor(n):
        n0 *= p ** (e // 2)
        if e % 2:
            n2 *= p
    return n2, n0


def n_over_m_squared(n: int, m: int) -> int:
    """N / M^2; raises InvalidM unless M >= 1 and M^2 | N."""
    if m < 1 or n % (m * m):
        raise InvalidM(f"M^2 = {m * m} does not divide N = {n}")
    return n // (m * m)


def smooth_part(n: int, m: int) -> int:
    """Largest divisor of |n| supported on the primes of m, i.e. (|n|, m^oo).

    Computed by the finite loop stripping gcd(n, m) factors; stabilizes
    because each pass removes at least one shared prime factor.
    """
    if n == 0:
        raise ValueError("smooth_part expects n != 0")
    n = abs(n)
    out = 1
    g = gcd(n, m)
    while g > 1:
        out *= g
        n //= g
        g = gcd(n, m)
    return out


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes up to n inclusive."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, n + 1, p)))
    return [i for i, v in enumerate(sieve) if v]


def primes_in_progression(lam: int, m: int) -> list[int]:
    """Primes p with lam < p < 2*lam and p == 1 (mod m), ascending.

    m == 1 imposes no congruence; an empty list is a valid result.
    """
    if lam < 1 or m < 1:
        raise ValueError("primes_in_progression expects positive arguments")
    return [p for p in primes_up_to(2 * lam - 1) if p > lam and p % m == 1 % m]


def bezout(p: int, q: int) -> tuple[int, int]:
    """(s, t) with s*p + t*q = gcd(p, q) >= 0, by extended Euclid."""
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Intersect x == r1 (mod m1) with x == r2 (mod m2) for moduli >= 1:
    (r, lcm) with 0 <= r < lcm and x == r (mod lcm), or None when the two
    conflict on a shared factor."""
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    mm = m1 // g * m2
    # x = r1 + m1*t with m1*t == r2 - r1 (mod m2); pow(_, -1, 1) is 0
    t = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    return (r1 + m1 * t) % mm, mm


def crt_solve(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x == r_i (mod m_i) simultaneously; return (x, lcm) with 0 <= x < lcm.

    Raises Inconsistent when two congruences conflict on a shared factor.
    """
    r, m = 0, 1
    for ri, mi in congruences:
        if mi < 1:
            raise ValueError("moduli must be >= 1")
        merged = crt_pair(r, m, ri, mi)
        if merged is None:
            raise Inconsistent(f"x == {r} (mod {m}) conflicts with x == {ri} (mod {mi})")
        r, m = merged
    return r, m
