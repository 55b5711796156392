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
when gcd(l, N) = 1 only the rows with c = 0 are.  Table and count both
read that one (row, a) walk; the count adds l/a per passing pair and
builds no matrix, and _coset_entries, the one place representatives are
formed, multiplies each passing lift by its Hermite matrices on ints.

Conjugation invariance is decided on the representatives alone: under its
prerequisites C(sigma) = N/M and M^2 | N, sigma and sigma^-1 normalise
Gamma0(N; M), so a translate w r of a representative r passes exactly
when r does, and no translate is drawn.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .arith import bezout, divisors
from .counting import in_delta_entries
from .cusps import cusp_denominator
from .errors import BudgetExceeded, InvalidM, PrereqFailed
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
    M | N is checked by _coset_walk.
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


def _coset_walk(l: int, n: int, m: int) -> list[tuple[Entries, int]]:
    """The passing pairs (entries of u, a1) of the pair method, in output
    order: rows, then a1 ascending.

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
    if l < 1 or n < 1:
        raise ValueError(f"coset_reps_delta expects l, N >= 1, got l={l}, N={n}")
    if m < 1 or n % m:
        raise InvalidM(f"M = {m} does not divide N = {n}")
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


def _coset_entries(l: int, n: int, m: int) -> list[Entries]:
    """Entries of one representative per right coset of Gamma0(N; M) in
    Delta(l, N; M): u * (a1, b1; 0, l/a1) for each passing (u, a1) of
    _coset_walk and 0 <= b1 < l/a1, each checked to lie in Delta(l, N; M).
    Output order: rows, then a1, then b1.

    Raises BudgetExceeded when there are more than COSET_BUDGET cosets,
    before the first is built."""
    walk = _coset_walk(l, n, m)
    count = sum(l // a1 for _u, a1 in walk)
    if count > COSET_BUDGET:
        raise BudgetExceeded(
            f"Delta({l}, {n}; {m}) has {count} cosets, budget {COSET_BUDGET}"
        )
    reps = []
    for (ua, ub, uc, ud), a1 in walk:
        d1 = l // a1
        for b1 in range(d1):
            gamma = (ua * a1, ua * b1 + ub * d1, uc * a1, uc * b1 + ud * d1)
            assert in_delta_entries(*gamma, l, n, m), (gamma, l, n, m)
            reps.append(gamma)
    return reps


def coset_reps_delta(l: int, n: int, m: int) -> CosetTable:
    """One representative per right coset of Gamma0(N; M) in Delta(l, N; M),
    from _coset_entries."""
    return CosetTable(l, n, m, [Mat2(*g) for g in _coset_entries(l, n, m)])


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
    the coset-level shadow of the Hecke algebra isomorphism.  Counted from
    _coset_walk without building the tables: each passing (u, a1) gives
    l/a1 cosets.  At M = 1 both counts read the one walk."""
    count_nm = sum(l // a1 for _u, a1 in _coset_walk(l, n, m))
    if m == 1:
        return CountInvariance(count_nm, count_nm)
    return CountInvariance(count_nm, sum(l // a1 for _u, a1 in _coset_walk(l, n, 1)))


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


def _times(g: Entries, h: Entries) -> Entries:
    """Entries of the product g h of two integer 2x2 matrices."""
    a, b, c, d = g
    e, f, x, y = h
    return a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y


def conjugation_invariance(
    sigma: Mat2,
    l: int,
    n: int,
    m: int,
    budget: int = 200,
    seed: int = 0,
) -> ConjugationResult:
    """Check that sigma gamma sigma^-1 and sigma^-1 gamma sigma stay in
    Delta(l, N; M) for every gamma in it, on the _coset_entries
    representatives r alone.

    Requires C(sigma) = N/M and M^2 | N; when l != 1 (mod M) nothing is
    asserted by the theory, which the result's note records.

    The prerequisites make sigma and sigma^-1 normalise Gamma0(N; M).  For
    sigma = (a, b; c, d) and w = (alpha, beta; N gamma, delta) in
    Gamma0(N; M), the lower-left entry of sigma w sigma^-1 is
    c d (alpha - delta) + d^2 N gamma - c^2 beta: (N/M) | c and
    alpha == delta == 1 (mod M) give N | c (alpha - delta), and
    (N/M)^2 | c^2 with M^2 | N gives N | c^2.  Its upper-left entry is
    a d alpha + b d N gamma - a c beta - b c delta == a d - b c = 1
    (mod M), as M | N/M | c.  sigma^-1 = (d, -b; -c, a) meets the same
    conditions.  Delta(l, N; M) is closed under left multiplication by
    Gamma0(N; M), so x (w r) y = (x w y)(x r y) lies in it exactly when
    x r y does: each coset is decided on its representative.

    For each r, sigma r sigma^-1 and then sigma^-1 r sigma are tested by
    in_delta_entries; the witness is the first failing r, as a Mat2, and
    `checked` counts the conjugates tested up to it.  On a pass `checked`
    is 2 (len(reps) + budget), the count of a check that also tests
    `budget` random translates w r, each of which passes by the lemma, so
    the JSON is that check's for every seed; `seed` changes no output.
    Raises ValueError when budget < 0.
    """
    c_sigma = cusp_denominator(sigma, n)  # raises unless sigma is in SL2(Z)
    if n % (m * m):
        raise PrereqFailed(f"M^2 = {m * m} does not divide N = {n}")
    if c_sigma != n // m:
        raise PrereqFailed(f"C(sigma) = {c_sigma} != N/M = {n // m}")
    note = "" if l % m == 1 % m else "l != 1 (mod M): invariance is not asserted"
    sig, inv = sigma.entries(), sigma.adjugate().entries()
    reps = _coset_entries(l, n, m)
    if budget < 0:
        raise ValueError(f"conjugation budget = {budget} is negative")
    checked = 0
    for r in reps:
        for x, y in ((sig, inv), (inv, sig)):
            checked += 1
            if not in_delta_entries(*_times(_times(x, r), y), l, n, m):
                return ConjugationResult(False, Mat2(*r), checked, note)
    return ConjugationResult(True, None, 2 * (len(reps) + budget), note)
