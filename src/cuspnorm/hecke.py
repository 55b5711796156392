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
divisor a of l, and only the rows that can pass c * a == 0 (mod N) are
walked: those whose c is a multiple of N / gcd(N, a) for some a | l, each
c's canonical rows read as one block (_row_block, with no sweep at c = 0);
when gcd(l, N) = 1 only the rows with c = 0 are.  Only coset_reps_delta
walks, multiplying each passing lift by its Hermite matrices on ints.

Counts are products of local factors (coset_count), the pair method read
locally.  A pair (row, a1) passes iff N | c a1 and u_a a1 == 1 (mod M),
u_a the upper-left entry of u.  The latter fails when a prime p | M
divides a1; otherwise M | c, so u_a d == 1 and it reads d == a1 (mod M).
The units mod N act freely on primitive rows and move d mod M through
every unit mod M, so each of their orbits, a point of P^1(Z/N), holds
exactly one passing B_M-orbit.  So the count is the sum over a1 | l prime
to M of l/a1 times the rows (c : d) of P^1(Z/N) with N | c a1, and by CRT
the product over p | l, with a = v_p(l) and e = v_p(N), of
sum_{j=0..a} p^(a-j) r_j, the term j = 0 alone when p | M: the Hermite
divisor a1 = p^j gives p^(a-j) cosets per row of P^1(Z/p^e) with
p^e | c p^j, and there are r_j = p^j of those, (p^(e-j) t : 1), for
j < e, and all r_j = p^e + p^(e-1) rows for j >= e (r_j = 1 at e = 0).
So the counts at M and at 1 agree iff gcd(l, M) = 1: for a >= 1 the
factor at p | M is p^a, and at M = 1 its j = 1 term makes it larger.
Each table built re-checks its length against the count.

Conjugation invariance is decided by l mod M: under its prerequisites
C(sigma) = N/M and M^2 | N, each conjugate of each r in Delta(l, N; M) by
sigma or sigma^-1 passes iff l == 1 (mod M).  The decision is re-verified
on r = (1, 0; N, l), the table's first representative when N > 1, formed
in closed form; no row is walked.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .arith import bezout, divisors, factor, valuation
from .counting import in_delta_entries
from .cusps import cusp_denominator
from .errors import BudgetExceeded, InternalSolveFailure, InvalidM, PrereqFailed
from .modgroup import Mat2

_ROW_CACHE_SIZE = 256
COSET_BUDGET = 1_000_000  # most rows swept (see _coset_walk) or cosets per table

Entries = tuple[int, int, int, int]  # (a, b, c, d) of an integer 2x2 matrix


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _scalars(n: int, m: int) -> tuple[int, ...]:
    """Units mod N that are 1 mod M (the row-scaling stabilizer of B_M),
    ascending as residues in [1, N]: (1,) at N = 1."""
    return tuple(u for u in range(1, n + 1, m) if gcd(u, n) == 1)


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _row_block(c: int, n: int, m: int) -> tuple[int, ...]:
    """The d, ascending, of the canonical rows (c, d) of B_M \\ SL2(Z/N):
    gcd(c, d, N) = 1 and least in lex order under scaling by the units u of
    _scalars(n, m).  Over c = 0..N-1 the blocks form the whole table.

    (c, d) is least in its orbit exactly when c is least in {s c mod N} and
    d is least in its orbit under Stab(c) = {s : s c == c (mod N)}.  So the
    block is empty unless c is least; else one sweep over d records each
    unmarked d with gcd(d, gcd(c, N)) = 1 and marks its Stab(c)-orbit, on
    which Stab(c) acts freely.  At c = 0 an orbit is the units d == r
    (mod M) for one unit r mod M, read at its least d ((0,) at N = 1).
    M | N is checked by coset_count.
    """
    if c == 0:
        return tuple(sorted(next(d for d in range(r, n, m) if gcd(d, n) == 1)
                            for r in range(m) if gcd(r, m) == 1))
    units = _scalars(n, m)
    if any(s * c % n < c for s in units):
        return ()
    stab = [s for s in units if s * c % n == c]
    g = gcd(c, n)
    seen = bytearray(n)
    reps = []
    for d in range(n):
        if seen[d] or gcd(g, d) != 1:
            continue
        reps.append(d)
        for s in stab:
            seen[s * d % n] = 1
    return tuple(reps)


def sl2_lift_from_row(c: int, d: int, n: int) -> Entries:
    """Entries of some u in SL2(Z) whose bottom row is (c, d) mod N.

    Raises ValueError when gcd(c, d, N) > 1, as no such u exists."""
    if n == 1:
        return 1, 0, 0, 1
    if gcd(gcd(c, d), n) != 1:
        raise ValueError(f"row ({c}, {d}) is not primitive mod N = {n}")
    c0 = c % n
    d0 = d % n
    if c0 == 0:
        c0 = n
    while gcd(c0, d0) != 1:
        d0 += n
    # a*d0 - b*c0 = 1 via extended Euclid
    a, b = bezout(d0, c0)
    return a, -b, c0, d0


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


def coset_count(l: int, n: int, m: int) -> int:
    """|Gamma0(N; M) \\ Delta(l, N; M)|, the product over p | l of the local
    factors of the module docstring; no row is walked.  The one check of
    (l, N, M): raises ValueError unless l, N >= 1 and InvalidM unless M | N.
    """
    if l < 1 or n < 1:
        raise ValueError(f"coset_reps_delta expects l, N >= 1, got l={l}, N={n}")
    if m < 1 or n % m:
        raise InvalidM(f"M = {m} does not divide N = {n}")
    count = 1
    for p, a in factor(l):
        pe = p ** valuation(n, p)  # r_j: p^j for j < e, else pe + pe // p (1 at e = 0)
        js = range(1 if m % p == 0 else a + 1)
        count *= sum(p ** (a - j) * (p ** j if p ** j < pe else pe + pe // p) for j in js)
    return count


def _coset_walk(l: int, n: int, m: int) -> list[tuple[Entries, int]]:
    """The passing pairs (entries of u, a1) of the pair method, in output
    order: rows, then a1 ascending, for (l, N, M) checked by coset_count.

    A pair (row (c, d), h = (a1, b1; 0, d1)) contributes iff
    c * a1 == 0 (mod N) and a_lift * a1 == 1 (mod M); both conditions are
    invariant on the B_M-coset once the first holds, and neither reads b1,
    so they are decided once per (row, a1), and each passing pair gives the
    l/a1 cosets u * (a1, b1; 0, l/a1), 0 <= b1 < l/a1.

    Only rows whose c is a multiple of N / gcd(N, a1) for some a1 | l can
    pass, so only the _row_block of each such c is read.  Raises
    BudgetExceeded, before any block is swept, when those blocks sweep more
    than COSET_BUDGET rows: M at c = 0 (one per unit residue mod M) and N
    per other admissible c.
    """
    a1s = divisors(l)
    steps = {n // gcd(n, a1) for a1 in a1s}
    cs = sorted({c for step in steps for c in range(0, n, step)})
    rows = m + (len(cs) - 1) * n  # cs holds c = 0
    if rows > COSET_BUDGET:
        raise BudgetExceeded(f"Delta({l}, {n}; {m}) walks {rows} rows, budget {COSET_BUDGET}")
    walk = []
    for c in cs:
        passing = [a1 for a1 in a1s if (c * a1) % n == 0]
        for d in _row_block(c, n, m):
            u = sl2_lift_from_row(c, d, n)
            walk += [(u, a1) for a1 in passing if (u[0] * a1) % m == 1 % m]
    return walk


def coset_reps_delta(l: int, n: int, m: int) -> CosetTable:
    """One representative per right coset of Gamma0(N; M) in Delta(l, N; M):
    u * (a1, b1; 0, l/a1) for each passing (u, a1) of _coset_walk and
    0 <= b1 < l/a1, formed on ints and checked to lie in Delta(l, N; M) as
    it is formed.  Output order: rows, then a1, then b1.

    Raises BudgetExceeded, after the walk's row check and before the first
    representative is built, when coset_count exceeds COSET_BUDGET, and
    InternalSolveFailure when the table's length is not coset_count."""
    count = coset_count(l, n, m)
    walk = _coset_walk(l, n, m)
    if count > COSET_BUDGET:
        raise BudgetExceeded(f"Delta({l}, {n}; {m}) has {count} cosets, budget {COSET_BUDGET}")
    reps = []
    for (ua, ub, uc, ud), a1 in walk:
        d1 = l // a1
        a, b0, c, d0 = ua * a1, ub * d1, uc * a1, ud * d1
        for b1 in range(d1):
            b, d = ua * b1 + b0, uc * b1 + d0
            assert in_delta_entries(a, b, c, d, l, n, m), ((a, b, c, d), l, n, m)
            reps.append(Mat2(a, b, c, d))
    if len(reps) != count:
        raise InternalSolveFailure(f"Delta({l}, {n}; {m}) has {len(reps)} cosets, not {count}")
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
    the coset-level shadow of the Hecke algebra isomorphism.  Both are read
    from coset_count, with no walk; they agree iff gcd(l, M) = 1."""
    return CountInvariance(coset_count(l, n, m), coset_count(l, n, 1))


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


def conjugation_invariance(
    sigma: Mat2,
    l: int,
    n: int,
    m: int,
    budget: int = 200,
    seed: int = 0,
) -> ConjugationResult:
    """Decide whether sigma gamma sigma^-1 and sigma^-1 gamma sigma stay in
    Delta(l, N; M) for every gamma in it: they do iff l == 1 (mod M).

    Requires C(sigma) = N/M and M^2 | N; when l != 1 (mod M) nothing is
    asserted by the theory, which the result's note records.

    For sigma = (a, b; c, d) and r = (A, B; C, D) in Delta(l, N; M), the
    conjugate sigma r sigma^-1 has determinant l, upper-left entry
    a d A + b d C - a c B - b c D == A == 1 (mod M), as M | N/M | c, and
    lower-left entry c d (A - D) + d^2 C - c^2 B == c d (A - D) (mod N), as
    M^2 | N gives N | c^2.  C(sigma) = N/M and ad - bc = 1 make
    c = (N/M) c' with gcd(c' d, M) = 1, so N divides it iff M | A - D, that
    is iff l == 1 (mod M), as A == 1 and D == AD == l (mod M).
    sigma^-1 = (d, -b; -c, a) meets the same conditions.

    The decision is re-verified on r = (1, 0; N, l), which lies in
    Delta(l, N; M) and is coset_reps_delta's first representative when
    N > 1: both conjugates, as Mat2 products, must agree with it by
    in_delta_entries, or InternalSolveFailure is raised.  A failure returns
    witness r and `checked` 1.  A pass returns `checked` = 2 (count +
    budget), count = coset_count(l, N, M), the count of a check that also
    tests `budget` random translates of the representatives, so the JSON
    is that check's for every seed; `seed` changes no output.  Arguments
    are checked before any work: InvalidM when M < 1, PrereqFailed, then
    coset_count's errors, then ValueError when budget < 0.
    """
    c_sigma = cusp_denominator(sigma, n)  # raises unless sigma is in SL2(Z)
    if m < 1:
        raise InvalidM(f"M = {m} does not divide N = {n}")
    if n % (m * m):
        raise PrereqFailed(f"M^2 = {m * m} does not divide N = {n}")
    if c_sigma != n // m:
        raise PrereqFailed(f"C(sigma) = {c_sigma} != N/M = {n // m}")
    count = coset_count(l, n, m)
    if budget < 0:
        raise ValueError(f"conjugation budget = {budget} is negative")
    passed = l % m == 1 % m
    note = "" if passed else "l != 1 (mod M): invariance is not asserted"
    r, inv = Mat2(1, 0, n, l), sigma.adjugate()
    for x, y in ((sigma, inv), (inv, sigma)):
        if in_delta_entries(*(x * r * y).entries(), l, n, m) != passed:
            raise InternalSolveFailure(f"conjugating {r!r} by {x!r} contradicts l mod M")
    if passed:
        return ConjugationResult(True, None, 2 * (count + budget), note)
    return ConjugationResult(False, r, 1, note)
