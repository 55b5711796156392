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
than trusted.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, isqrt

from .arith import (
    crt_solve,
    divisors,
    factor,
    n_over_m_squared,
    squarefree_split,
    valuation,
)
from .cusps import cusp_denominator, local_profile
from .errors import BudgetExceeded, InternalSolveFailure, InvalidPrimeSet
from .modgroup import Mat2, PointH, complete_first_column, fd_reduce, mobius_act


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
    level_primes = {p for p, _ in factor(n)}
    for p in prime_set:
        if p not in level_primes:
            raise InvalidPrimeSet(f"prime {p} does not divide level {n}")
        n_s *= p ** valuation(n, p)
    if not prime_set:
        return AtkinLehnerOp(Mat2.identity(), prime_set, 1, n)
    m = n // n_s  # coprime to n_s by construction
    al = (pow(n_s, -1, m) - 1) % m + 1 if m > 1 else 1
    be = (al * n_s - 1) // m
    return AtkinLehnerOp(Mat2(n_s * al, be, n, n_s), prime_set, n_s, n)


@dataclass
class GapVerdict:
    """Outcome of the weighted-lattice inequality check at a point."""

    passed: bool
    worst_pair: tuple[int, int]
    min_margin: Fraction
    min_lhs: Fraction
    bound_at_worst: Fraction

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

    method is "construction" for the local-profile algorithm, whose n is
    upper-unitriangular, or "search" for a certificate found by the
    verified fallback scan (its n is the exact rational solving matrix,
    not necessarily unipotent).  Only a construction certificate records
    scale_identity_ok: the identity Im z' = (M1^2/N_S) Im z0 rests on n
    being unipotent.
    """

    tau: Mat2
    w: AtkinLehnerOp
    m1: int
    m: int
    n_shift: Mat2
    sigma: Mat2
    verification: dict
    method: str
    z_prime: PointH | None = None
    z0: PointH | None = None

    def to_json(self):
        out = {
            "level": self.w.level,
            "method": self.method,
            "tau": self.tau.to_json(),
            "S": sorted(self.w.s_primes),
            "W": self.w.w.to_json(),
            "N_S": self.w.n_s,
            "M1": self.m1,
            "M": self.m,
            "n": self.n_shift.to_json(),
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
    tau: Mat2, op: AtkinLehnerOp, m: int, m1: int, n_shift: Mat2, sigma: Mat2,
    method: str,
) -> ReductionCertificate:
    """The one constructor of a certificate.  Its postconditions, the claims
    C(sigma) = N/M, M^2 | N, M1 = gcd(M, N_S) and M1^2 | N_S, are decided
    on sigma and (N, M, M1, N_S)."""
    n, n_s = op.level, op.n_s
    c_sigma = cusp_denominator(sigma, n)
    verification = {
        "sigma_in_sl2": sigma.is_sl2(),
        "c_sigma": c_sigma,
        "c_sigma_equals_n_over_m": c_sigma == n // m,
        "m_squared_divides_n": n % (m * m) == 0,
        "m1_is_gcd_m_n_s": m1 == gcd(m, n_s),
        "m1_squared_divides_n_s": n_s % (m1 * m1) == 0,
    }
    return ReductionCertificate(tau, op, m1, m, n_shift, sigma, verification, method)


def _all_hold(verification: dict) -> bool:
    return all(v for v in verification.values() if isinstance(v, bool))


def width_one_conjugate(tau: Mat2, n: int) -> ReductionCertificate:
    """Conjugate the cusp of tau to a width-one cusp of Gamma0(N).

    Chooses S = {p : w_p(tau) > 0}, M1 = prod_{p in S} p^{c_p}, and
    M = M1 * prod_{p | N, p not in S} p^{n_p - c_p}; solves
    A*u == -B*M1, C*u == -D*M1 (mod N_S) for the shift n = (1, u/M1; 0, 1),
    prime-by-prime with a brute scan then CRT, where (A, B; C, D) = W tau.
    sigma is then (A/M1, (A u + B M1)/N_S; C/M1, (C u + D M1)/N_S), each
    entry one exact division.  All claims about sigma are verified before
    returning.
    """
    tau.require_sl2()
    prof = local_profile(tau, n)
    m1 = m = 1
    for p, np_, cp, wp in prof.entries:
        if wp > 0:
            m1 *= p**cp
            m *= p**cp
        else:
            m *= p ** (np_ - cp)
    op = atkin_lehner_matrix(n, {p for p, _np, _cp, wp in prof.entries if wp > 0})
    a_, b_, c_, d_ = (op.w * tau).entries()
    congruences = []
    for p, np_, _cp, wp in prof.entries:
        if wp == 0:
            continue
        q = p**np_
        sols = [
            u
            for u in range(q)
            if (a_ * u + b_ * m1) % q == 0 and (c_ * u + d_ * m1) % q == 0
        ]
        if not sols:
            raise InternalSolveFailure(
                f"no unipotent shift solves the congruences at p={p} for tau={tau!r}, N={n}"
            )
        congruences.append((sols[0], q))
    u = crt_solve(congruences)[0] if congruences else 0
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
        tau, op, m, m1, Mat2(1, Fraction(u, m1), 0, 1), Mat2(*entries), "construction"
    )
    if not _all_hold(cert.verification):
        raise InternalSolveFailure(f"postcondition failed: {cert.verification}")
    return cert


def _verify_lattice_floor(z_prime: PointH, n: int, m: int, k: int) -> GapVerdict:
    """Decide |c z' + d|^2 >= (3/4) (M^2 gcd(c, N/M^2) / N)^k over (c, d) != 0
    for k >= 1; the bound is at most 3/4 as gcd(c, N/M^2) <= N/M^2.

    Finite search: only pairs with |c z' + d|^2 < 3/4 can violate, which
    forces c^2 y'^2 < 3/4 and (c x' + d)^2 < 3/4, a finite box scanned
    exactly, c >= 1 ascending and then d ascending after the pair (0, 1).
    The sign symmetry (c, d) -> (-c, -d) reduces to c >= 0.

    The scan runs on cleared integers.  With z' = (px + i py)/q,
    L = (c px + d q)^2 + (c py)^2, B(c) = 3 (M^2 gcd(c, N/M^2))^k and
    den = 4 N^k, the margin |c z' + d|^2 - B(c)/den equals
    (den L - q^2 B(c)) / (q^2 den), with a denominator common to all pairs;
    the first pair of least margin is the worst, and the verdict's
    Fractions are built once, for it.
    """
    n_over_m2 = n_over_m_squared(n, m)
    m2 = m * m
    den = 4 * n**k
    px, py, q = z_prime.cleared()
    q2 = q * q
    worst, worst_l, worst_b = (0, 1), q2, 3 * n**k  # B(0) = 3 (M^2 N/M^2)^k
    min_num = den * q2 - q2 * worst_b
    # c >= 1 with 4 c^2 py^2 < 3 q^2, i.e. 2 c py <= isqrt(3 q^2 - 1)
    for c in range(1, isqrt(3 * q2 - 1) // (2 * py) + 1):
        b = 3 * (m2 * gcd(c, n_over_m2)) ** k
        qb = q2 * b
        t = c * px
        cy2 = (c * py) ** 2
        # d in [ceil(-c x' - 1), floor(-c x' + 1)]
        for d in range(-((t + q) // q), (q - t) // q + 1):
            e = t + d * q
            val = e * e + cy2
            num = den * val - qb
            if num < min_num:
                min_num, worst, worst_l, worst_b = num, (c, d), val, b
    return GapVerdict(
        min_num >= 0,
        worst,
        Fraction(min_num, q2 * den),
        Fraction(worst_l, q2),
        Fraction(worst_b, den),
    )


def verify_gap_certificate(z_prime: PointH, n: int, m: int) -> GapVerdict:
    """Check the target lattice floor
    |c z' + d|^2 >= 3 M^2 gcd(c, N/M^2) / (4N) for all (c, d) != (0, 0)."""
    return _verify_lattice_floor(z_prime, n, m, 1)


def verify_gap_provable(z_prime: PointH, n: int, m: int) -> GapVerdict:
    """Check the weaker floor |c z' + d|^2 >= 3 M^4 gcd(c, N/M^2)^2 / (4 N^2).

    This is the constant the width-one construction actually guarantees
    (the target floor of verify_gap_certificate can fail for it).
    """
    return _verify_lattice_floor(z_prime, n, m, 2)


def _height_ok(y: Fraction, n: int, m: int) -> bool:
    """The height floor of G(N; M), y >= sqrt(3) M^2 / (2N), squared:
    4 N^2 y^2 >= 3 M^4."""
    return y * y * 4 * n * n >= 3 * m**4


def is_in_G(z: PointH, n: int, m: int) -> bool:
    """Membership in the region G(N; M): height y >= sqrt(3) M^2 / (2N) and
    |cz + d|^2 >= 3 M^2 gcd(c, N/M^2) / (4N) for all (c, d) != (0, 0)."""
    n_over_m_squared(n, m)
    return _height_ok(z.y, n, m) and verify_gap_certificate(z, n, m).passed


def _record_height(cert: ReductionCertificate, z: PointH) -> bool:
    """Set z' = sigma^-1 W z = adj(sigma) W z and record the height floor
    y'^2 >= 3 M^4 / (4 N^2), which is returned, and for a construction
    certificate the scale identity."""
    z_prime = mobius_act(cert.sigma.adjugate() * cert.w.w, z)  # det = N_S > 0
    cert.z_prime = z_prime
    cert.verification["y_bound_ok"] = _height_ok(z_prime.y, cert.w.level, cert.m)
    if cert.method == "construction":
        cert.verification["scale_identity_ok"] = (
            z_prime.y == Fraction(cert.m1 * cert.m1, cert.w.n_s) * cert.z0.y
        )
    return cert.verification["y_bound_ok"]


def _record_lattice(cert: ReductionCertificate) -> bool:
    """Record the target and provable lattice verdicts; returns the target's.

    The provable floor is scanned only when the target floor fails: since
    M^2 gcd(c, N/M^2) / N <= 1, its bound is at most the target bound at
    every c, so a passed target floor decides it."""
    n = cert.w.level
    verdict = verify_gap_certificate(cert.z_prime, n, cert.m)
    cert.verification["lattice"] = verdict
    cert.verification["lattice_ok"] = verdict.passed
    cert.verification["lattice_provable_ok"] = (
        verdict.passed or verify_gap_provable(cert.z_prime, n, cert.m).passed
    )
    return verdict.passed


CANDIDATE_BUDGET = 4000  # most sigma-columns one (M, S) of the search may scan


def _first_column_candidates(w: PointH, n: int, m: int):
    """Coprime first columns (a, c) of sigma with gcd(c, N) = N/M and
    Im(sigma^-1 w) >= sqrt(3) M^2 / (2N), i.e.
    (a - c x_w)^2 + c^2 y_w^2 <= 2 N y_w / (sqrt(3) M^2).

    Uses the rational over-cover 6 N y_w / (5 M^2) >= the true threshold;
    every emitted candidate is re-verified exactly downstream.  Raises
    BudgetExceeded rather than return a cut list when there are more than
    CANDIDATE_BUDGET candidates.
    """
    cap = Fraction(6 * n * w.y, 5 * m * m)
    step = n // m
    out = [(1, 0)] if m == 1 else []  # sigma with first column (1, 0)
    cc = step
    while cc * cc * w.y * w.y <= cap:
        for c in (cc, -cc):
            if gcd(c, n) != n // m:
                continue
            rem = cap - c * c * w.y * w.y
            center = c * w.x
            half = isqrt(rem.numerator // rem.denominator) + 1
            for a in range(ceil(center - half), floor(center + half) + 1):
                if (a - center) ** 2 <= rem and gcd(a, c) == 1:
                    out.append((a, c))
        if len(out) > CANDIDATE_BUDGET:
            raise BudgetExceeded(
                f"more than {CANDIDATE_BUDGET} first-column candidates at N={n}, M={m}"
            )
        cc += step
    return out


def gap_reduce(z: PointH, n: int) -> ReductionCertificate:
    """Move z by a width-one conjugation to z' = sigma^{-1} W z with
    certified height and lattice lower bounds.

    Records, exactly and for either method: the postconditions C(sigma) =
    N/M, M1 = gcd(M, N_S) and M1^2 | N_S recomputed from sigma,
    y'^2 >= 3 M^4 / (4 N^2), and the full (c, d)-quantified inequality at
    the target and the provable floor.  The scale identity Im z' =
    (M1^2/N_S) Im z0 is recorded in construction mode only, since a search
    certificate's n is not unipotent and the identity need not hold.

    The local-profile construction is tried first.  Its lattice bound can
    genuinely fail (the constant in the target inequality is stronger than
    what the construction guarantees), so on failure a deterministic
    verified search runs over M^2 | N, prime subsets S, and the finitely
    many sigma-columns compatible with the height bound; the first
    certificate passing every check is returned.  Its shift is
    n = tau^-1 W^-1 sigma diag(M1, N_S/M1), formed on integers as
    adj(tau) adj(W) sigma diag(M1, N_S/M1) and divided by N_S.  If nothing
    passes, the construction certificate is returned with its failing
    verdicts intact.  A search with more sigma-columns than its budget
    raises BudgetExceeded instead of reporting failure.
    """
    tau, z0 = fd_reduce(z)
    cert = width_one_conjugate(tau, n)
    cert.z0 = z0
    height_ok = _record_height(cert, z)
    if _record_lattice(cert) and height_ok:
        return cert
    subsets = [set()]
    for p, _e in factor(n):
        subsets += [s | {p} for s in subsets]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    for m in divisors(squarefree_split(n)[1]):  # M^2 | N exactly when M | N0
        for s in subsets:
            op = atkin_lehner_matrix(n, s)
            w_point = mobius_act(op.w, z)
            m1 = gcd(m, op.n_s)
            back = tau.adjugate() * op.w.adjugate()  # N_S tau^-1 W^-1
            for a, c in _first_column_candidates(w_point, n, m):
                sigma = complete_first_column(a, c)
                shift = back * sigma * Mat2(m1, 0, 0, op.n_s // m1)
                n_shift = Mat2(*(Fraction(e, op.n_s) for e in shift.entries()))
                cand = _certificate(tau, op, m, m1, n_shift, sigma, "search")
                cand.z0 = z0
                if (
                    _all_hold(cand.verification)
                    and _record_height(cand, z)
                    and _record_lattice(cand)
                ):
                    return cand
    return cert
