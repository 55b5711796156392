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

Conjugation invariance is decided on each representative's residue
class: the a and c entries of both conjugates of w r are integer linear
forms in the entries of w, formed once per representative r of
_coset_entries, and every Gamma0(N; M)-word w is (u, b; 0, u^-1) mod N
with u a unit that is 1 mod M.  So five congruences on the forms decide
whether every translate w r passes.  When they hold for every r, no
translate is drawn.  Otherwise the representatives and then `budget`
random translates w r are sampled, each drawn by one generator
(_translates) and tested as it is drawn; a failing sample is rebuilt on
full integers and re-checked by counting.in_delta_entries.  Every draw
reads rng.getrandbits alone, by randrange's rule, in a fixed order, so a
seed fixes the samples, verdicts and witnesses.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
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
def _unit_steps(n: int, m: int) -> tuple[Entries, ...]:
    """Entries of the lifts (u, (u d0 - 1)/N; N, d0) of the units u in
    _scalars(n, m), with d0 = u^-1 mod N (d0 = 1 at N = 1): the diagonal-type
    letters of random Gamma0(N; M)-words, in the same order."""
    steps = []
    for u in _scalars(n, m):
        d0 = pow(u, -1, n) if n > 1 else 1
        steps.append((u, (u * d0 - 1) // n, n, d0))
    return tuple(steps)


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _square_gcd(n: int, m: int) -> int:
    """gcd(N, u^2 - 1 over the u of _scalars(n, m))."""
    return gcd(n, *(u * u - 1 for u in _scalars(n, m)))


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


def _translates(n: int, m: int, nreps: int, rng: random.Random):
    """Yield (wa, wb, wc, wd, i) without end: the entries of a pseudo-random
    word in T^t, the lower N-shear and the _unit_steps letters, multiplied
    on the right in four local ints, then the index i of the representative
    it translates.

    Every draw reads rng.getrandbits by randrange's rule: a value below k
    takes k.bit_length() bits, redrawn until it is below k, so the stream
    matches rng.randint and rng.randrange draw for draw.  In order: the
    letter count in 2..5, then per letter its kind (one of 3) and then its
    shift t in -3..3 or its unit step, then i below nreps.  Raises
    ValueError at the first draw when nreps < 1, as randrange does, where
    the redraw of i would never end."""
    if nreps < 1:
        raise ValueError(f"no representatives to translate: {nreps}")
    bits = rng.getrandbits
    steps = _unit_steps(n, m)
    nsteps = len(steps)
    ksteps, kreps = nsteps.bit_length(), nreps.bit_length()
    while True:
        a, b, c, d = 1, 0, 0, 1
        letters = bits(3)
        while letters >= 4:
            letters = bits(3)
        for _ in range(letters + 2):
            kind = bits(2)
            while kind == 3:
                kind = bits(2)
            if kind == 2:  # * (u, k; N, d0)
                j = bits(ksteps)
                while j >= nsteps:
                    j = bits(ksteps)
                u, k, nn, d0 = steps[j]
                a, b, c, d = a * u + b * nn, a * k + b * d0, c * u + d * nn, c * k + d * d0
                continue
            t = bits(3)
            while t == 7:
                t = bits(3)
            t -= 3
            if kind == 0:  # * (1, t; 0, 1)
                b, d = a * t + b, c * t + d
            else:  # * (1, 0; N t, 1)
                t *= n
                a, c = a + b * t, c + d * t
        i = bits(kreps)
        while i >= nreps:
            i = bits(kreps)
        yield a, b, c, d, i


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

    The samples are the _coset_entries representatives r, then the
    translates w r of _translates, each tested as it is drawn; the witness
    is the first failing sample, as a Mat2.  For (x, y) = (sigma, sigma^-1)
    and then (sigma^-1, sigma), the a and c entries of x (w r) y are
    integer linear forms a0 wa + a1 wb + a2 wc + a3 wd and c0 wa + ... in
    the entries of w, formed once per r from x and r y.  Every conjugate
    has determinant l (each r does, w and sigma have determinant one), so
    a sample is decided by N | c and a == 1 (mod M) alone; a failing one is
    rebuilt on full integers and re-checked by in_delta_entries.

    Every word w is (u, b; 0, u^-1) mod N, u in _scalars(n, m), and
    Gamma0(N; M) reaches each such (u, b); as u == 1 (mod M), every w r
    passes iff c1, c0 + c3 and c0 _square_gcd(n, m) are 0 mod N, and a1 == 0,
    a0 + a3 == 1 (mod M).  If so for both (x, y) and every r of a non-empty
    table, nothing is drawn, and `checked` still counts the 2 (len(reps) +
    budget) conjugates that drawing would test and pass: the same JSON.
    """
    c_sigma = cusp_denominator(sigma, n)  # raises unless sigma is in SL2(Z)
    if n % (m * m):
        raise PrereqFailed(f"M^2 = {m * m} does not divide N = {n}")
    if c_sigma != n // m:
        raise PrereqFailed(f"C(sigma) = {c_sigma} != N/M = {n // m}")
    note = "" if l % m == 1 % m else "l != 1 (mod M): invariance is not asserted"
    sa, sb, sc, sd = sigma.entries()
    sig, inv = (sa, sb, sc, sd), (sd, -sb, -sc, sa)
    reps = _coset_entries(l, n, m)
    # per r, per (x, y): x, y and the coefficients of wa, wb, wc, wd in the a
    # entry (mod M) and the c entry (mod N) of x (w r) y, from the first
    # column (p, q) of r y
    forms = []
    for r in reps:
        both = []
        for x, y in ((sig, inv), (inv, sig)):
            xa, xb, xc, xd = x
            p, _, q, _ = _times(r, y)
            both.append((
                x, y,
                xa * p % m, xa * q % m, xb * p % m, xb * q % m,
                xc * p % n, xc * q % n, xd * p % n, xd * q % n,
            ))
        forms.append(both)
    one, e = 1 % m, _square_gcd(n, m)
    if reps and budget >= 0 and all(
        not c1 and not (c0 + c3) % n and not c0 * e % n and not a1
        and (a0 + a3) % m == one
        for both in forms for _x, _y, a0, a1, _a2, a3, c0, c1, _c2, c3 in both
    ):
        return ConjugationResult(True, None, 2 * (len(reps) + budget), note)
    samples = chain(
        ((1, 0, 0, 1, i) for i in range(len(reps))),
        islice(_translates(n, m, len(reps), random.Random(seed)), budget),
    )
    checked = 0
    for wa, wb, wc, wd, i in samples:
        assert wa * wd - wb * wc == 1, (wa, wb, wc, wd)
        for x, y, a0, a1, a2, a3, c0, c1, c2, c3 in forms[i]:
            checked += 1
            if (c0 * wa + c1 * wb + c2 * wc + c3 * wd) % n or (
                a0 * wa + a1 * wb + a2 * wc + a3 * wd
            ) % m != one:
                gamma = _times((wa, wb, wc, wd), reps[i])
                assert not in_delta_entries(*_times(_times(x, gamma), y), l, n, m)
                return ConjugationResult(False, Mat2(*gamma), checked, note)
    return ConjugationResult(True, None, checked, note)
