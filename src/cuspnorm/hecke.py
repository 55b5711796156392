"""Right-coset decompositions of Delta(l, N; M) under Gamma0(N; M), coset
count comparisons across M, and conjugation invariance by width-one
conjugators.

Gamma0(N; M) is the group of integer matrices of determinant one with
lower-left entry divisible by N and both diagonal entries 1 mod M; its
image mod N is the Borel-type subgroup B_M of upper-triangular matrices
with upper-left entry 1 mod M, and Gamma(N) lies in the kernel, so coset
bookkeeping reduces faithfully to SL2(Z/N).

Pair method: every integer matrix of determinant l > 0 factors uniquely
as u * h with u in SL2(Z) and h an upper-triangular Hermite representative
(a, b; 0, d), ad = l, a, d > 0, 0 <= b < d.  Since Gamma0(N; M) absorbs
Delta(l, N; M) on the left, the right cosets correspond to pairs
(B_M-coset of u, h) whose product lands in the family; B_M-cosets are
bottom rows (c, d) mod N up to scaling by units that are 1 mod M.
Neither membership condition reads b, so each row is tested once per
divisor a of l, and a row is lifted to SL2(Z) only when some a passes
c * a == 0 (mod N); when gcd(l, N) = 1 only the rows with c = 0 do.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import gcd

from .arith import bezout, divisors
from .counting import in_delta
from .cusps import cusp_denominator
from .errors import InvalidM, PrereqFailed
from .modgroup import Mat2

_ROW_CACHE_SIZE = 256


def hnf_reps(l: int) -> list[Mat2]:
    """All (a, b; 0, d) with a*d = l, a, d > 0, 0 <= b < d; sigma_1(l) of them."""
    if l < 1:
        raise ValueError(f"hnf_reps expects l >= 1, got {l}")
    out = []
    for a in divisors(l):
        d = l // a
        for b in range(d):
            out.append(Mat2(a, b, 0, d))
    return out


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _scalars(n: int, m: int) -> tuple[int, ...]:
    """Units mod N that are 1 mod M (the row-scaling stabilizer of B_M)."""
    if n == 1:
        return (0,)
    return tuple(u for u in range(1, n) if gcd(u, n) == 1 and u % m == 1 % m)


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _row_cosets(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Canonical bottom rows for B_M \\ SL2(Z/N): pairs (c, d) mod N with
    gcd(c, d, N) = 1, minimized over scaling by _scalars(n, m), ascending.

    One sweep in lex order: the first primitive row not yet marked is the
    least member of its orbit, because every smaller member was visited
    earlier and would have marked it.  It is recorded and its orbit marked.
    The scalars are units, so orbits of primitive rows hold only primitive
    rows, and the action on them is free (s c == c and s d == d mod N with
    gcd(c, d, N) = 1 force s == 1): each primitive row is marked once.
    M | N is checked by the caller, coset_reps_delta.
    """
    scalars = _scalars(n, m)
    seen = bytearray(n * n)
    reps = []
    for c in range(n):
        g = gcd(c, n)
        for d in range(n):
            if seen[c * n + d] or gcd(g, d) != 1:
                continue
            reps.append((c, d))
            for s in scalars:
                seen[(s * c) % n * n + (s * d) % n] = 1
    return tuple(reps)


def sl2_lift_from_row(c: int, d: int, n: int) -> Mat2:
    """Some u in SL2(Z) whose bottom row is (c, d) mod N."""
    if n == 1:
        return Mat2.identity()
    c0 = c % n
    d0 = d % n
    if c0 == 0:
        c0 = n
    while gcd(c0, d0) != 1:
        d0 += n
    # a*d0 - b*c0 = 1 via extended Euclid
    a, b = bezout(d0, c0)
    return Mat2(a, -b, c0, d0)


@dataclass
class CosetTable:
    """Representatives of Gamma0(N; M) \\ Delta(l, N; M)."""

    l: int
    n: int
    m: int
    reps: list[Mat2]

    @property
    def count(self) -> int:
        return len(self.reps)

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "N": self.n,
            "M": self.m,
            "count": self.count,
            "method": "pair",
            "reps": [g.to_json() for g in self.reps],
        }


def coset_reps_delta(l: int, n: int, m: int) -> CosetTable:
    """One representative per right coset of Gamma0(N; M) in Delta(l, N; M).

    A pair (row (c, d), h = (a1, b1; 0, d1)) contributes iff
    c * a1 == 0 (mod N) and a_lift * a1 == 1 (mod M); both conditions are
    invariant on the B_M-coset once the first holds, and neither reads b1,
    so they are decided once per (row, a1).  Output order: rows, then a1,
    then b1.
    """
    if l < 1:
        raise ValueError(f"coset_reps_delta expects l >= 1, got {l}")
    if m < 1 or n % m:
        raise InvalidM(f"M = {m} does not divide N = {n}")
    reps = []
    by_a1 = [(a1, list(hs)) for a1, hs in groupby(hnf_reps(l), key=lambda h: h.a)]
    for c, d in _row_cosets(n, m):
        passing = [(a1, hs) for a1, hs in by_a1 if (c * a1) % n == 0]
        if not passing:
            continue
        u = sl2_lift_from_row(c, d, n)
        for a1, hs in passing:
            if (u.a * a1) % m != 1 % m:
                continue
            for h in hs:
                gamma = u * h
                assert in_delta(gamma, l, n, m), (gamma, l, n, m)
                reps.append(gamma)
    return CosetTable(l, n, m, reps)


@dataclass
class CountInvariance:
    count_nm: int
    count_n: int

    @property
    def equal(self) -> bool:
        return self.count_nm == self.count_n

    def to_json(self) -> dict:
        return {
            "count_NM": self.count_nm,
            "count_N": self.count_n,
            "equal": self.equal,
        }


def coset_count_invariance(l: int, n: int, m: int) -> CountInvariance:
    """Compare |Gamma0(N;M) \\ Delta(l,N;M)| with |Gamma0(N) \\ Delta(l,N;1)|,
    the coset-level shadow of the Hecke algebra isomorphism."""
    return CountInvariance(
        coset_reps_delta(l, n, m).count, coset_reps_delta(l, n, 1).count
    )


@dataclass
class ConjugationResult:
    passed: bool
    witness: Mat2 | None
    checked: int
    note: str = ""

    def to_json(self) -> dict:
        out = {"passed": self.passed, "checked": self.checked, "note": self.note}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def random_gamma0nm_element(n: int, m: int, rng: random.Random) -> Mat2:
    """A pseudo-random element of Gamma0(N; M), built from T, the lower
    N-shear, and lifted diagonal-type units that are 1 mod M."""
    g = Mat2.identity()
    units = _scalars(n, m) if n > 1 else (1,)
    for _ in range(rng.randint(2, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            g = g * Mat2(1, rng.randint(-3, 3), 0, 1)
        elif kind == 1:
            g = g * Mat2(1, 0, n * rng.randint(-3, 3), 1)
        else:
            u = units[rng.randrange(len(units))]
            d0 = pow(u, -1, n) if n > 1 else 1
            k = (u * d0 - 1) // n
            g = g * Mat2(u, k, n, d0)
    return g


def conjugation_invariance(
    sigma: Mat2,
    l: int,
    n: int,
    m: int,
    budget: int = 200,
    seed: int = 0,
) -> ConjugationResult:
    """Check sigma * gamma * sigma^-1 and sigma^-1 * gamma * sigma stay in
    Delta(l, N; M) over all coset representatives plus `budget` random
    Gamma0(N; M)-translates of them.

    Requires C(sigma) = N/M and M^2 | N; when l != 1 (mod M) nothing is
    asserted by the theory, which the result's note records.
    """
    sigma.require_sl2()
    if n % (m * m):
        raise PrereqFailed(f"M^2 = {m * m} does not divide N = {n}")
    if cusp_denominator(sigma, n) != n // m:
        raise PrereqFailed(
            f"C(sigma) = {cusp_denominator(sigma, n)} != N/M = {n // m}"
        )
    note = "" if l % m == 1 % m else "l != 1 (mod M): invariance is not asserted"
    sig_inv = sigma.adjugate()
    table = coset_reps_delta(l, n, m)
    rng = random.Random(seed)
    samples = list(table.reps)
    for _ in range(budget):
        g = random_gamma0nm_element(n, m, rng)
        samples.append(g * samples[rng.randrange(table.count)])
    checked = 0
    for gamma in samples:
        for cand in (sigma * gamma * sig_inv, sig_inv * gamma * sigma):
            checked += 1
            if not in_delta(cand, l, n, m):
                return ConjugationResult(False, gamma, checked, note)
    return ConjugationResult(True, None, checked, note)
