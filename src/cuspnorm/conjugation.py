"""Atkin-Lehner operators, conjugation of an arbitrary cusp to a width-one
cusp, the region G(N; M), and the gap-principle reduction with exact
certificate verification.

The pipeline: fd-reduce z, read off the local profile of the reducing
matrix tau, pick the prime set S where the local width is positive, build
an Atkin-Lehner operator W of determinant N_S, and solve a congruence for
the unipotent correction n so that

    sigma = W * tau * n * diag(1/M1, M1/N_S)

is integral of determinant one with denominator N/M.  sigma is formed on
integers, each entry of W * tau * n scaled by one exact division, and
every postcondition is re-verified on the constructed certificate rather
than trusted.  `_search_space` is the one source of gap_reduce's order: the
construction, then M | N0 ascending, S by (|S|, sorted S), the columns at
W z.  `_level` builds the M, S and W of a level once per level; W z and
adj(tau) adj(W) are built on the first use of each S in a call.

The gap verdict `lattice_ok` is meant as a function on X0(N): gap_reduce
at g z and at z agree for g in Gamma0(N).  Sketch: for an Atkin-Lehner W,
g' = W g W^-1 lies in Gamma0(N), which W normalises, and sigma -> g' sigma
maps a certificate at z to one at g z with the same z', as
(g' sigma)^-1 W g z = sigma^-1 W z; C(g' sigma) = C(sigma), the bottom
row of g' being (0, u) mod N with u a unit.  So the same z' are reachable
from z and from g z, and both floors read z' alone.  The open step: the
search lists a passing z' whenever one exists, up to the integer
translations the floors ignore.  It takes every sigma-column that meets
the height floor, which the target floor needs too.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import gcd, isqrt
from operator import is_not

from .arith import crt_solve, divisors, factored, n_over_m_squared, squarefree_split
from .cusps import local_profile
from .errors import BudgetExceeded, InternalSolveFailure, InvalidPrimeSet
from .modgroup import (
    Mat2,
    PointH,
    complete_first_column,
    fd_reduce,
    lattice_rows,
    mobius_act,
)


@dataclass(frozen=True)
class AtkinLehnerOp:
    """Integer matrix W of determinant N_S with the defining congruences
    W == (0 *; 0 0) mod N_S and W upper-triangular mod N."""

    w: Mat2
    s_primes: frozenset[int]
    n_s: int
    level: int

    def __post_init__(self):
        w, n_s, n = self.w, self.n_s, self.level
        assert w.det == n_s, (w, n_s)
        assert w.a % n_s == 0 and w.c % n_s == 0 and w.d % n_s == 0
        assert w.c % n == 0


def atkin_lehner_matrix(n: int, s: set[int]) -> AtkinLehnerOp:
    """Canonical Atkin-Lehner operator for a prime subset S of the level.

    For S empty the identity is returned.  Otherwise W = (N_S*al, be; N, N_S)
    where al*N_S - be*(N/N_S) = 1, with al the least positive inverse of
    N_S modulo N/N_S.
    """
    n_s = 1
    prime_set = frozenset(s)
    exponents = dict(factored(n))
    for p in prime_set:
        if p not in exponents:
            raise InvalidPrimeSet(f"prime {p} does not divide level {n}")
        n_s *= p ** exponents[p]
    if not prime_set:
        return AtkinLehnerOp(Mat2.identity(), prime_set, 1, n)
    m = n // n_s  # coprime to n_s by construction
    al = (pow(n_s, -1, m) - 1) % m + 1 if m > 1 else 1
    be = (al * n_s - 1) // m
    return AtkinLehnerOp(Mat2(n_s * al, be, n, n_s), prime_set, n_s, n)


@lru_cache(maxsize=256)  # sized as hecke's _ROW_CACHE_SIZE caches
def _level(n: int):
    """Level N as gap_reduce reads it: factored(n), {sorted S: W}, the M | N0 ascending."""
    primes = [p for p, _e in factored(n)]  # ascending, so S runs by (|S|, sorted S)
    subsets = (s for k in range(len(primes) + 1) for s in combinations(primes, k))
    ops = {s: atkin_lehner_matrix(n, set(s)) for s in subsets}
    return factored(n), ops, tuple(divisors(squarefree_split(n)[1]))


@dataclass
class GapVerdict:
    """Outcome of the weighted-lattice inequality check at a point.  A scan
    builds it on integers by `_scanned`, and its Fractions are formed on
    first read, so a caller that reads only `passed` forms none."""

    passed: bool
    worst_pair: tuple[int, int]
    min_margin: Fraction
    min_lhs: Fraction
    bound_at_worst: Fraction

    @classmethod
    def _scanned(cls, worst, num, lhs, b, q2, den):  # margin num/(q2 den) at worst
        verdict = cls.__new__(cls)
        verdict.passed, verdict.worst_pair = num >= 0, worst
        verdict._ints = num, lhs, b, q2, den  # lhs/q2 and bound b/den at worst
        return verdict

    def __getattr__(self, name):  # reached only for a Fraction not yet formed
        if name not in ("min_margin", "min_lhs", "bound_at_worst"):
            raise AttributeError(name)
        num, lhs, b, q2, den = self.__dict__.pop("_ints")
        self.min_margin, self.min_lhs, self.bound_at_worst = (
            Fraction(num, q2 * den), Fraction(lhs, q2), Fraction(b, den))
        return getattr(self, name)

    def to_json(self):
        return {
            "passed": self.passed,
            "worst_pair": list(self.worst_pair),
            "min_margin": str(self.min_margin),
            "min_lhs": str(self.min_lhs),
            "bound_at_worst": str(self.bound_at_worst),
        }


@dataclass
class ReductionCertificate:
    """Full output of the width-one / gap-principle pipeline.

    sigma = W * tau * n * diag(1/M1, M1/N_S) exactly, with the level, S and
    N_S those of the Atkin-Lehner operator w; verification holds the
    postconditions, each recomputed from sigma for either method (and, in
    gap mode, the point z' with its height and lattice verdicts).

    The shift is n = n_shift / n_den for the integer matrix n_shift.
    method is "construction" for the local-profile algorithm, whose n is
    upper-unitriangular with n_den = M1, or "search" for a certificate
    found by the verified fallback scan (n is the exact rational solving
    matrix, not necessarily unipotent, with n_den = N_S).  Only a
    construction certificate records scale_identity_ok: the identity
    Im z' = (M1^2/N_S) Im z0 rests on n being unipotent.
    """

    tau: Mat2
    w: AtkinLehnerOp
    m1: int
    m: int
    n_shift: Mat2
    n_den: int
    sigma: Mat2
    verification: dict
    method: str
    z_prime: PointH | None = None
    z0: PointH | None = None

    def to_json(self):
        def ratio(e):  # e / n_den in lowest terms, "p/q" unless integral
            g = gcd(e, self.n_den)
            return e // g if g == self.n_den else f"{e // g}/{self.n_den // g}"

        a, b, c, d = self.n_shift.entries()
        out = {
            "level": self.w.level,
            "method": self.method,
            "tau": self.tau.to_json(),
            "S": sorted(self.w.s_primes),
            "W": self.w.w.to_json(),
            "N_S": self.w.n_s,
            "M1": self.m1,
            "M": self.m,
            "n": [[ratio(a), ratio(b)], [ratio(c), ratio(d)]],
            "sigma": self.sigma.to_json(),
            "verification": {
                k: (v.to_json() if isinstance(v, GapVerdict) else v)
                for k, v in self.verification.items()
            },
        }
        if self.z_prime is not None:
            out["z_prime"] = self.z_prime.serialize()
        if self.z0 is not None:
            out["z0"] = self.z0.serialize()
        return out


def _certificate(
    tau: Mat2, op: AtkinLehnerOp, m: int, m1: int, n_shift: Mat2, n_den: int,
    sigma: Mat2, method: str,
) -> ReductionCertificate:
    """The one constructor of a certificate.  Its postconditions, the claims
    sigma in SL2(Z), C(sigma) = N/M, M^2 | N, M1 = gcd(M, N_S) and
    M1^2 | N_S, are decided once each on sigma and (N, M, M1, N_S); C(sigma)
    is read as gcd(c, N) once sigma is known to be in SL2(Z)."""
    n, n_s = op.level, op.n_s
    in_sl2 = sigma.is_sl2()
    c_sigma = gcd(sigma.c, n) if in_sl2 else None
    verification = {
        "sigma_in_sl2": in_sl2,
        "c_sigma": c_sigma,
        "c_sigma_equals_n_over_m": c_sigma == n // m,
        "m_squared_divides_n": n % (m * m) == 0,
        "m1_is_gcd_m_n_s": m1 == gcd(m, n_s),
        "m1_squared_divides_n_s": n_s % (m1 * m1) == 0,
    }
    return ReductionCertificate(tau, op, m1, m, n_shift, n_den, sigma, verification, method)


def _all_hold(verification: dict) -> bool:  # skips c_sigma and a GapVerdict
    return all(map(is_not, verification.values(), repeat(False)))


def width_one_conjugate(tau: Mat2, n: int) -> ReductionCertificate:
    """Conjugate the cusp of tau to a width-one cusp of Gamma0(N).

    Chooses S = {p : w_p(tau) > 0}, M1 = prod_{p in S} p^{c_p}, and
    M = M1 * prod_{p | N, p not in S} p^{n_p - c_p}; solves
    A*u == -B*M1, C*u == -D*M1 (mod N_S) for the shift n = (1, u/M1; 0, 1),
    prime-by-prime with a brute scan then CRT, where (A, B; C, D) = W tau;
    n is kept as (M1, u; 0, M1) over n_den = M1.
    sigma is then (A/M1, (A u + B M1)/N_S; C/M1, (C u + D M1)/N_S), each
    entry one exact division.  All claims about sigma are verified before
    returning.  Raises NotUnimodular, through local_profile, unless tau is
    in SL2(Z).
    """
    prof = local_profile(tau, n)
    m1 = m = 1
    for p, np_, cp, wp in prof:
        if wp > 0:
            m1 *= p**cp
            m *= p**cp
        else:
            m *= p ** (np_ - cp)
    op = _level(n)[1][tuple(p for p, _np, _cp, wp in prof if wp > 0)]
    a_, b_, c_, d_ = (op.w * tau).entries()
    congruences = []
    for p, np_, _cp, wp in prof:
        if wp == 0:
            continue
        q = p**np_
        u = next((u for u in range(q) if (a_ * u + b_ * m1) % q == 0
                  and (c_ * u + d_ * m1) % q == 0), None)
        if u is None:
            raise InternalSolveFailure(
                f"no unipotent shift solves the congruences at p={p} for tau={tau!r}, N={n}"
            )
        congruences.append((u, q))
    u = crt_solve(congruences)[0]
    n_s = op.n_s
    entries = []
    ratios = ((a_, m1), (a_ * u + b_ * m1, n_s), (c_, m1), (c_ * u + d_ * m1, n_s))
    for num, den in ratios:
        quo, rem = divmod(num, den)
        if rem:
            raise InternalSolveFailure(
                f"sigma = W tau n diag(1/M1, M1/N_S) is not integral for tau={tau!r}, N={n}"
            )
        entries.append(quo)
    cert = _certificate(
        tau, op, m, m1, Mat2(m1, u, 0, m1), m1, Mat2(*entries), "construction"
    )
    if not _all_hold(cert.verification):
        raise InternalSolveFailure(f"postcondition failed: {cert.verification}")
    return cert


def _verify_lattice_floor(z_prime: PointH, n: int, m: int, k: int) -> GapVerdict:
    """Decide |c z' + d|^2 >= (3/4) (M^2 gcd(c, N/M^2) / N)^k over (c, d) != 0
    for k >= 1; the bound is at most 3/4 as gcd(c, N/M^2) <= N/M^2.

    Finite box scan: only pairs with |c z' + d|^2 < 3/4 can violate, which
    forces c^2 y'^2 < 3/4 and (c x' + d)^2 < 3/4; (c, d) -> (-c, -d) leaves
    c >= 0.  The worst pair, part of the gap_reduce JSON, is the first of
    least margin in the order (0, 1), then c >= 1 ascending, d ascending.

    The scan runs on the triple z' = (px + i py)/q.  With
    L = (c px + d q)^2 + (c py)^2, B(c) = 3 (M^2 gcd(c, N/M^2))^k and
    den = 4 N^k, the margin |c z' + d|^2 - B(c)/den equals
    (den L - q^2 B(c)) / (q^2 den), with a denominator common to all pairs.
    B(c) and (c py)^2 are constant along row c, so the row's least margin
    sits at the d nearest -c x', the lesser on a tie, which lies in the
    row's box [ceil(-c x' - 1), floor(-c x' + 1)]: that one pair is read.
    """
    n_over_m2 = n_over_m_squared(n, m)
    den = 4 * n**k
    px, py, q = z_prime.px, z_prime.py, z_prime.q
    q2 = q * q
    worst, worst_l, worst_b = (0, 1), q2, 3 * n**k  # B(0) = 3 (M^2 N/M^2)^k
    min_num = den * q2 - q2 * worst_b
    # c >= 1 with 4 c^2 py^2 < 3 q^2, i.e. 2 c py <= isqrt(3 q^2 - 1)
    for c in range(1, isqrt(3 * q2 - 1) // (2 * py) + 1):
        b = 3 * (m * m * gcd(c, n_over_m2)) ** k
        d = -((2 * c * px + q) // (2 * q))  # nearest -c x', the lesser on a tie
        val = (c * px + d * q) ** 2 + (c * py) ** 2
        num = den * val - q2 * b
        if num < min_num:
            min_num, worst, worst_l, worst_b = num, (c, d), val, b
    return GapVerdict._scanned(worst, min_num, worst_l, worst_b, q2, den)


def verify_gap_certificate(z_prime: PointH, n: int, m: int) -> GapVerdict:
    """Check the target lattice floor
    |c z' + d|^2 >= 3 M^2 gcd(c, N/M^2) / (4N) for all (c, d) != (0, 0)."""
    return _verify_lattice_floor(z_prime, n, m, 1)


def verify_gap_provable(z_prime: PointH, n: int, m: int) -> GapVerdict:
    """Check the weaker floor |c z' + d|^2 >= 3 M^4 gcd(c, N/M^2)^2 / (4 N^2),
    the constant the width-one construction actually guarantees (the
    target floor of verify_gap_certificate can fail for it)."""
    return _verify_lattice_floor(z_prime, n, m, 2)


def _height_ok(z: PointH, n: int, m: int) -> bool:
    """The height floor of G(N; M), y >= sqrt(3) M^2 / (2N), squared and
    read on z = (px + i py)/q: 4 (N py)^2 >= 3 (M^2 q)^2."""
    return 4 * (n * z.py) ** 2 >= 3 * (m * m * z.q) ** 2


def is_in_G(z: PointH, n: int, m: int) -> bool:
    """Membership in the region G(N; M): height y >= sqrt(3) M^2 / (2N) and
    |cz + d|^2 >= 3 M^2 gcd(c, N/M^2) / (4N) for all (c, d) != (0, 0)."""
    n_over_m_squared(n, m)
    return _height_ok(z, n, m) and verify_gap_certificate(z, n, m).passed


def _checked(cert: ReductionCertificate, z: PointH, z0: PointH) -> bool:
    """Place cert at z and decide it: the one acceptance rule of gap_reduce.

    Sets z0 and z' = sigma^-1 W z = adj(sigma) W z, records the height floor
    y'^2 >= 3 M^4 / (4 N^2), the scale identity Im z' = (M1^2/N_S) Im z0
    for a construction certificate only, and the target lattice verdict,
    then returns whether every recorded check holds.  A passed target floor
    decides the provable one, whose bound is at most the target bound at
    every c as M^2 gcd(c, N/M^2) / N <= 1, so lattice_provable_ok is then
    recorded True; a failed one rejects the certificate whatever the
    provable verdict, so nothing is recorded (see gap_reduce)."""
    n, m, v = cert.w.level, cert.m, cert.verification
    cert.z0 = z0
    cert.z_prime = z_prime = mobius_act(cert.sigma.adjugate() * cert.w.w, z)  # det N_S > 0
    v["y_bound_ok"] = _height_ok(z_prime, n, m)
    if cert.method == "construction":  # py'/q' = (M1^2/N_S) py0/q0
        v["scale_identity_ok"] = z_prime.py * z0.q * cert.w.n_s == (
            cert.m1 * cert.m1 * z0.py * z_prime.q)
    v["lattice"] = verdict = verify_gap_certificate(z_prime, n, m)
    v["lattice_ok"] = verdict.passed
    if verdict.passed:
        v["lattice_provable_ok"] = True
    return _all_hold(v)


CANDIDATE_BUDGET = 4000  # most sigma-columns up to sign one (M, S) may scan; C3 needs 2


def _first_column_candidates(w: PointH, n: int, m: int):
    """The first columns (a, c) of sigma with Im(sigma^-1 w) >=
    sqrt(3) M^2 / (2N), up to sign: (1, 0) when M = 1 and w itself meets
    that floor, then the coprime (a, c), c > 0, with gcd(c, N) = N/M, by c
    ascending, then a ascending.  The column (-a, -c) is left out: it gives
    -sigma T^k, whose z' is an integer translate of the z' of sigma, so it
    passes or fails every check of gap_reduce together with sigma.

    Decided on the triple w = (px + i py)/q: with
    L = (a q - c px)^2 + (c py)^2, Im(sigma^-1 w) = py q / L, so the floor
    is 3 M^4 L^2 <= 4 N^2 py^2 q^2, i.e. L <= l_max.  With a = -d, L is
    (c px + d q)^2 + (c py)^2, so the columns at each c are a row of the
    ellipse that `lattice_rows` lists, read as a = -d ascending.  Raises
    BudgetExceeded rather than return a cut list when there are more than
    CANDIDATE_BUDGET candidates.
    """
    px, py, q = w.px, w.py, w.q
    l_max = isqrt((2 * n * py * q) ** 2 // (3 * m**4))
    step = n // m
    out = [(1, 0)] if m == 1 and q * q <= l_max else []  # L = q^2 at (1, 0)
    for c, d_lo, d_hi in lattice_rows(px, py, q, l_max, 1, step):
        if gcd(c, n) != step:
            continue
        out += [(a, c) for a in range(-d_hi, 1 - d_lo) if gcd(a, c) == 1]
        if len(out) > CANDIDATE_BUDGET:
            raise BudgetExceeded(
                f"more than {CANDIDATE_BUDGET} first-column candidates at N={n}, M={m}"
            )
    return out


def _search_space(tau: Mat2, z: PointH, n: int):
    """The certificates gap_reduce tries at z, tau from fd_reduce(z), in
    order: the construction, then one per column of `_first_column_candidates`
    at W z, for M | N0 ascending and, within M, S by (|S|, sorted S), as
    `_level(n)` lists them.  W z and adj(tau) adj(W) = N_S tau^-1 W^-1 are
    built on the first use of S; a shift n is adj(tau) adj(W) sigma diag(M1,
    N_S/M1) over N_S.  Each (M, S) lists all its columns, or raises
    BudgetExceeded, before one yield."""
    yield width_one_conjugate(tau, n)
    _factors, ops, ms = _level(n)
    per_s = {}  # S -> (W z, adj(tau) adj(W)), built on first use
    for m in ms:
        for s, op in ops.items():
            if s not in per_s:
                per_s[s] = mobius_act(op.w, z), tau.adjugate() * op.w.adjugate()
            w_point, back = per_s[s]
            m1 = gcd(m, op.n_s)
            for a, c in _first_column_candidates(w_point, n, m):
                sigma = complete_first_column(a, c)
                shift = back * sigma * Mat2(m1, 0, 0, op.n_s // m1)
                yield _certificate(tau, op, m, m1, shift, op.n_s, sigma, "search")


def gap_reduce(z: PointH, n: int) -> ReductionCertificate:
    """Move z by a width-one conjugation to z' = sigma^{-1} W z with
    certified height and lattice lower bounds.

    Returns the first certificate of `_search_space`, the one source of the
    search order, that `_checked` accepts: one rule for either method.  The
    construction comes first; its lattice bound can genuinely fail (the
    target constant is stronger than what it guarantees), so the search
    over M, S and sigma-columns follows, each S's W built on first use.  If
    none passes, the construction is returned with its failing verdicts,
    and its provable floor, which `_checked` leaves out when the target
    floor fails, is scanned then, once.  Raises BudgetExceeded past a budget.
    """
    tau, z0 = fd_reduce(z)
    space = _search_space(tau, z, n)
    cert = next(space)  # the construction, returned if no certificate passes
    for cand in chain((cert,), space):
        if _checked(cand, z, z0):
            return cand
    v = cert.verification
    if not v["lattice_ok"]:  # recorded last, where _checked leaves it out
        v["lattice_provable_ok"] = verify_gap_provable(cert.z_prime, n, cert.m).passed
    return cert
