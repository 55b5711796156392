"""Exact enumeration of determinant-l matrices near a point of the upper
half-plane, classification into generic / upper-triangular / parabolic
counts, parabolic certificates, amplifier weights and the amplified count sum.

The family counted is Delta(l, N; M): integer matrices of determinant l
with lower-left entry divisible by N and upper-left entry 1 mod M.  The
closeness condition is u(gamma z, z) <= delta for the point-pair invariant
u(z, w) = |z - w|^2 / (4 Im z Im w).

Enumeration strategy.  u <= delta forces |cz + d|^2 <= l*K with
K = 1 + 2*delta + 2*sqrt(delta^2 + delta); the rational window
Kbar = 2 + 4*delta >= K keeps everything in integer arithmetic.  The
pairs with |cz + d|^2 <= l*Kbar and c a positive multiple of N are the
rows of `modgroup.lattice_rows`, which bounds c and, per c, the entry d.
For fixed (c, d) with c != 0, b = (a*d - l)/c is forced and the condition
becomes |(a - cz)(cz + d) - l|^2 <= 4 l delta c^2 y^2, a quadratic in a.
Writing
z = (px + i py)/q, delta = dn/dd, A = c px + d q, S = A^2 + (c py)^2,
T = 4 l dn q^2 S - dd (S - l q^2)^2, D = q S and N0 = c px S + l q^2 A,
it holds exactly when T >= 0 and
|a D - N0| <= Hf = isqrt(c^2 py^2 T // dd), i.e. for a in the closed
interval [ceil((N0 - Hf)/D), floor((N0 + Hf)/D)] (the left side is an
integer, and floor(sqrt(P/dd)) = isqrt(P // dd)).  The hits are the terms
of the progression a*d == l (mod |c|), a == 1 (mod M) inside it; the
progression depends only on d mod |c|, so each row of c is walked one
residue class at a time, and a class without a progression is skipped
whole.  For c = 0 the pairs (a, d) are the divisor factorizations of l and
b runs over an interval solved the same way.  gamma and -gamma act alike
on the half-plane, so only c > 0 (a > 0 when c = 0) is scanned: the hits
of the negated pair are the negated terms a == -1 (mod M) of the same
window (for c != 0 and M | 2, its negated hits, counted and not yielded).

The half scan.  When M | N and l == eps (mod M) with eps = +-1, the map
gamma -> eps adj(gamma) = eps l gamma^-1 takes the counted set onto itself,
since a d == l (mod M) and u(gamma^-1 z, z) = u(gamma z, z).  On c > 0 it
reads (a, b, c, d) -> (-d, b, c, -a), reversing the trace t = a + d; so
only the hits of t >= 0 are scanned, each of t != 0 counted twice.  They
have Re w >= -c y sqrt(delta), w = cz + d: as a - cz = t - w, the condition
|(t - w) w - l| <= 2 c y sqrt(l delta) gives Re w (1 + l/|w|^2) >=
t - 2 c y sqrt(l delta)/|w|, and 1 + l/|w|^2 >= 2 sqrt(l)/|w|; so Re w < 0
<= t forces -Re w <= c y sqrt(delta), on integers A >= -isqrt(c^2 py^2 dn
// dd).  Every other input is scanned in full.

Both strata come from one pair of window generators, which yield the hits
of the free entry as a `range`: `enumerate_delta_near` iterates the ranges
and adds the images of the hits, `count_delta_near` sums their lengths,
and `count_star` and `count_upper` measure one stratum each with the
parabolic hits (tr^2 = 4l, at most one per sign of the trace in a c != 0
window) taken off.  No candidate is tested after the fact; every window is
exact, so the output is both sound and complete.
"""

import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

from .arith import (
    crt_pair,
    divisors,
    n_over_m_squared,
    primes_in_progression,
    smooth_part,
    squarefree_split,
)
from .conjugation import is_in_G
from .errors import BudgetExceeded
from .modgroup import (
    Mat2,
    PointH,
    complete_first_column,
    lattice_c_max,
    lattice_rows,
    mobius_act,
    point_pair_u,
)
from .precision import working_precision


def in_delta_entries(a: int, b: int, c: int, d: int, l: int, n: int, m: int) -> bool:
    """Membership of the integer matrix (a, b; c, d) in Delta(l, N; M)."""
    return a * d - b * c == l and c % n == 0 and a % m == 1 % m


C_BUDGET = 400_000  # most multiples of N one c-window may hold


def _a_progressions(d: int, c: int, l: int, m: int) -> tuple:
    """(plus, minus): plus = (r, step) with a == r (mod step) exactly when
    a*d == l (mod c) and a == 1 (mod M), the hits of (c, d); minus likewise
    for a == -1 (mod M), whose negations are the hits of (-c, -d).  Either
    is None when no a fits, and minus is None when M | 2, where the hits of
    (-c, -d) are the negated hits of (c, d); () when neither fits."""
    g = gcd(d, c)
    if l % g:
        return ()
    c1 = c // g
    a0 = (l // g) * pow((d // g) % c1, -1, c1) % c1  # pow(_, -1, 1) is 0
    plus = crt_pair(a0, c1, 1, m) if m > 1 else (a0, c1)  # every a is 1 mod 1
    minus = None if 2 % m == 0 else crt_pair(a0, c1, -1 % m, m)
    return (plus, minus) if plus or minus else ()


def _cleared(z: PointH, l: int, delta, n: int, m: int) -> tuple:
    """One enumeration problem on integers, (l, N, M, px, py, q, dn, dd)
    with z = (px + i py)/q, its stored triple, and delta = dn/dd.  A
    Fraction delta is read as it is; any other is converted first."""
    if not isinstance(delta, Fraction):
        delta = Fraction(delta)
    dn, dd = delta.numerator, delta.denominator
    if l < 1 or dn < 0 or n < 1 or m < 1:
        raise ValueError("need l >= 1, delta >= 0, N >= 1, M >= 1")
    return (l, n, m, z.px, z.py, z.q, dn, dd)


def _upper_windows(cl: tuple):
    """The c = 0 stratum: yield (a, d, b_range) for each divisor pair
    a*d = l with a == 1 (mod M); the hits are exactly b in b_range.  Only
    a > 0 is scanned: the window of (-a, -d) is the negation of b_range.

    With s = a - d the u-condition reads (s*px + b*q)^2 <= py^2 (4 l delta
    - s^2), and the integer left side may be compared with the floor of the
    square root of the right side."""
    l, _n, m, px, py, q, dn, dd = cl
    for a in divisors(l):
        d = l // a
        pos, neg = (a - 1) % m == 0, (a + 1) % m == 0
        s = a - d
        rhs2 = py * py * (4 * l * dn - s * s * dd)
        if rhs2 < 0 or not (pos or neg):
            continue
        rb = isqrt(rhs2 // dd)
        b_lo, b_hi = -((s * px + rb) // q), (rb - s * px) // q
        if b_lo <= b_hi:
            if pos:
                yield a, d, range(b_lo, b_hi + 1)
            if neg:
                yield -a, -d, range(-b_hi, -b_lo + 1)


def _mirror_sign(l: int, n: int, m: int) -> int:
    """eps = +-1 with l == eps (mod M) when M | N, so that gamma -> eps adj(gamma)
    maps Delta(l, N; M) onto itself and keeps u; 0 when there is no such eps."""
    return 0 if n % m else 1 if (l - 1) % m == 0 else -1 if (l + 1) % m == 0 else 0


def _lower_windows(cl: tuple):
    """The c != 0 strata: yield (c, d, a_range) for each (c, d) holding a
    hit; the hits are exactly a in a_range with b = (a*d - l)/c.  Only c > 0
    is scanned: the hits of (-c, -d) are the negated terms a == -1 (mod M)
    of the window of (c, d), not yielded for M | 2.  A half scan (nonzero
    _mirror_sign) yields only the hits of trace a + d >= 0 of the c > 0 pair.

    Each row of c is walked one residue class d mod c at a time, and a
    class without a progression of a is skipped whole.

    Raises BudgetExceeded when the c-window holds more than C_BUDGET
    multiples of N, before the first window is yielded.
    """
    l, n, m, px, py, q, dn, dd = cl
    # u <= delta forces q^2 |cz + d|^2 <= q^2 l Kbar = r_num / dd
    r_num = 2 * l * (dd + 2 * dn) * q * q
    n_c_values = 2 * (lattice_c_max(py, r_num, dd) // n)
    if n_c_values > C_BUDGET:
        raise BudgetExceeded(
            f"c-window holds {n_c_values} multiples of N={n}, budget {C_BUDGET}"
        )
    half = _mirror_sign(l, n, m) != 0
    lq2 = l * q * q
    tn = 4 * dn * lq2
    for c, d_lo, d_hi in lattice_rows(px, py, q, r_num, dd, n):
        cpy2 = (c * py) ** 2
        cpx = c * px
        if half:  # c px + d q >= -c py sqrt(dn / dd), on integers
            d_lo = max(d_lo, -((cpx + isqrt(cpy2 * dn // dd)) // q))
        for d0 in range(d_lo, min(d_hi, d_lo + c - 1) + 1):
            prog = _a_progressions(d0 % c, c, l, m)
            if not prog:
                continue
            plus, minus = prog
            for d in range(d0, d_hi + 1, c):
                # With A + i c py = q (cz + d) and S = |A + i c py|^2, the
                # condition |(a - cz)(cz + d) - l|^2 <= 4 l delta c^2 y^2
                # is (a D - N0)^2 <= c^2 py^2 T / dd.
                A = cpx + d * q
                S = A * A + cpy2
                T = tn * S - dd * (S - lq2) ** 2
                if T < 0:
                    continue
                D = q * S
                N0 = cpx * S + lq2 * A
                hf = isqrt(cpy2 * T // dd)
                a_hi = (N0 + hf) // D
                a_lo = -((hf - N0) // D)
                if half and a_lo < -d:
                    a_lo = -d
                if plus:
                    r_a, m_a = plus
                    a_first = a_lo + (r_a - a_lo) % m_a
                    if a_first <= a_hi:
                        yield c, d, range(a_first, a_hi + 1, m_a)
                if minus:
                    r_a, m_a = minus
                    a_first = a_lo + (r_a - a_lo) % m_a
                    if a_first <= a_hi:
                        yield -c, -d, range(-a_first, -a_hi - 1, -m_a)


def enumerate_delta_near(z: PointH, l: int, delta, n: int, m: int) -> list[Mat2]:
    """The complete set of gamma in Delta(l, N; M) with u(gamma z, z) <= delta,
    sorted lexicographically by (c, a, d, b).

    Raises BudgetExceeded when the c-window holds more than C_BUDGET
    multiples of N (guards against extremely small y).
    """
    cl = _cleared(z, l, delta, n, m)
    eps = _mirror_sign(l, n, m)
    found = [(0, a, d, b) for a, d, b_range in _upper_windows(cl) for b in b_range]
    for c, d, a_range in _lower_windows(cl):
        for a in a_range:
            b = (a * d - l) // c
            found.append((c, a, d, b))
            if eps and a != -d:  # eps adj(gamma), of trace -(a + d), is not yielded
                found.append((-eps * c, eps * d, eps * a, -eps * b))
    if 2 % m == 0:  # nor is -gamma for c != 0
        found += [(-c, -a, -d, -b) for c, a, d, b in found if c]
    found.sort()
    return [Mat2(a, b, c, d) for c, a, d, b in found]


def _lower_count(cl: tuple, traces: tuple = ()) -> int:
    """The hits of the c != 0 windows, less those of trace in traces, each
    with its images: a hit of trace t != 0 in a half scan stands for its
    mirror too (trace 0, a = -d, is its own up to sign), and for M | 2 all
    stand for their negations."""
    l, n, m = cl[:3]
    k = 2 if _mirror_sign(l, n, m) else 1
    total = 0
    for _c, d, hits in _lower_windows(cl):
        total += k * len(hits) - (k == 2 and hits[0] == -d)
        for t in traces:
            total -= k * (t - d in hits)
    return 2 * total if 2 % m == 0 else total


def count_delta_near(z: PointH, l: int, delta, n: int, m: int) -> int:
    """len(enumerate_delta_near(z, l, delta, n, m)), computed from the
    windows alone without building a matrix.

    Raises BudgetExceeded on the same inputs as enumerate_delta_near.
    """
    cl = _cleared(z, l, delta, n, m)
    return sum(len(hits) for _a, _d, hits in _upper_windows(cl)) + _lower_count(cl)


def count_star(z: PointH, l: int, delta, n: int, m: int) -> int:
    """classify_counts(z, l, delta, n, m).n_star, computed from the c != 0
    windows alone without building a matrix.

    With (c, d) fixed, tr^2 = 4l holds only for l = r^2 and a = +-2r - d,
    so a window holds at most one parabolic hit of each sign; those are
    taken off its length.

    Raises BudgetExceeded on the same inputs as enumerate_delta_near.
    """
    r = isqrt(l)
    return _lower_count(_cleared(z, l, delta, n, m), (2 * r, -2 * r) if r * r == l else ())


def count_upper(z: PointH, l: int, delta, n: int, m: int) -> int:
    """classify_counts(z, l, delta, n, m).n_u, computed from the c = 0
    windows alone: no c-window is scanned, so C_BUDGET never applies."""
    return sum(
        len(b_range)
        for a, d, b_range in _upper_windows(_cleared(z, l, delta, n, m))
        if (a + d) ** 2 != 4 * l
    )


@dataclass
class CountReport:
    """Classified enumeration result for one (z, l, delta, N, M) cell."""

    z: PointH
    l: int
    delta: Fraction
    n: int
    m: int
    star: list[Mat2]  # c != 0, tr^2 != 4l
    upper: list[Mat2]  # c == 0, tr^2 != 4l
    parabolic: list[Mat2]  # tr^2 == 4l

    @property
    def n_star(self) -> int:
        return len(self.star)

    @property
    def n_u(self) -> int:
        return len(self.upper)

    @property
    def n_p(self) -> int:
        return len(self.parabolic)

    @property
    def total(self) -> int:
        return self.n_star + self.n_u + self.n_p

    def to_json(self, include_matrices: bool = False) -> dict:
        out = {
            "z": self.z.serialize(),
            "l": self.l,
            "delta": str(self.delta),
            "N": self.n,
            "M": self.m,
            "n_star": self.n_star,
            "n_u": self.n_u,
            "n_p": self.n_p,
            "total": self.total,
        }
        if include_matrices:
            out["star"] = [g.to_json() for g in self.star]
            out["upper"] = [g.to_json() for g in self.upper]
            out["parabolic"] = [g.to_json() for g in self.parabolic]
        return out


def classify_counts(z: PointH, l: int, delta, n: int, m: int) -> CountReport:
    """Partition the enumeration by (c != 0, tr^2 != 4l) / (c = 0, tr^2 != 4l)
    / (tr^2 = 4l)."""
    delta = Fraction(delta)
    star, upper, para = [], [], []
    for g in enumerate_delta_near(z, l, delta, n, m):
        if g.trace * g.trace == 4 * l:
            para.append(g)
        elif g.c != 0:
            star.append(g)
        else:
            upper.append(g)
    return CountReport(z, l, delta, n, m, star, upper, para)


@dataclass
class ParabolicCertificate:
    """Conjugation data for one parabolic matrix: tau(inf) is the fixed
    point, tau^-1 gamma tau = sign * (m_root, t; 0, m_root), and t splits
    as t0 * t1 with t1 the part of t supported on the primes of N."""

    gamma: Mat2
    m_root: int
    sign: int
    tau: Mat2
    t: int
    t0: int
    t1: int
    c_tau: int
    d_tau: int
    scalar: bool
    checks: dict


def _fixed_point_conjugator(gamma: Mat2) -> Mat2:
    """tau in SL2(Z) with tau(inf) = the fixed point of a parabolic gamma.

    Normalized so that the lower-left entry of tau^-1 is >= 0; tau is the
    identity when the fixed point is inf.
    """
    a, b, c, d = gamma.entries()
    if c == 0:
        return Mat2.identity()
    p0 = a - d
    q0 = 2 * c
    g = gcd(p0, q0)
    p0 //= g
    q0 //= g
    if q0 > 0:
        p0, q0 = -p0, -q0
    return complete_first_column(p0, q0)


def parabolic_certify(
    z: PointH, l: int, delta, n: int, m: int
) -> list[ParabolicCertificate]:
    """Certificates for every parabolic matrix counted at (z, l, delta, N, M).

    Raises InvalidM unless M^2 | N.  Empty for non-square l (consistent with
    the parabolic count being 0).  Each certificate records exact verdicts:
    N | c_tau^2 * t, the divisibility inequality t0^2 M^2 / N0^2 <= t^2 M^4
    gcd(c_tau, N/M^2)^2 / N^2 for t != 0, and
    u(gamma z, z) * 4 l y^2 = t^2 |c_tau z + d_tau|^4.
    """
    n_over_m2 = n_over_m_squared(n, m)
    ml = isqrt(l)
    if ml * ml != l:
        return []
    _n2, n0 = squarefree_split(n)
    report = classify_counts(z, l, delta, n, m)
    certs = []
    for gamma in report.parabolic:
        tau = _fixed_point_conjugator(gamma)
        tinv = tau.adjugate()  # tau^-1, as tau is in SL2(Z)
        conj = tinv * gamma * tau
        assert conj.c == 0 and conj.a == conj.d and abs(conj.a) == ml, conj
        sign = 1 if conj.a > 0 else -1
        t = sign * conj.b
        if t:
            t1 = smooth_part(t, n)
            t0 = t // t1
        else:
            t1, t0 = 1, 0
        c_tau, d_tau = tinv.c, tinv.d
        checks = {"n_divides_c_tau_sq_t": (c_tau * c_tau * t) % n == 0}
        if t:
            g = gcd(abs(c_tau), n_over_m2) if c_tau else n_over_m2
            checks["t0_divisibility"] = (
                t0 * t0 * m * m * n * n <= t * t * m**4 * g * g * n0 * n0
            )
        # on z = (px + i py)/q, with L = q^2 |c_tau z + d_tau|^2: u 4 l py^2 q^2 = t^2 L^2
        u = point_pair_u(mobius_act(gamma, z), z)
        lat = (c_tau * z.px + d_tau * z.q) ** 2 + (c_tau * z.py) ** 2
        checks["u_identity"] = u.numerator * 4 * l * (z.py * z.q) ** 2 == (
            u.denominator * (t * lat) ** 2)
        certs.append(
            ParabolicCertificate(
                gamma, ml, sign, tau, t, t0, t1, c_tau, d_tau, t == 0, checks
            )
        )
    return certs


def amplifier_weights(lam: int, m: int) -> dict[int, Fraction]:
    """Nonnegative weights {l: y_l}, in ascending l, supported on 1 and
    products of primes p == 1 (mod M) in (Lambda, 2*Lambda): y_1 = Lambda/M
    and y_l = 1 for l in {l1, l1*l2, l1*l2^2, l1^2*l2^2}."""
    primes = primes_in_progression(lam, m)
    weights = {1: Fraction(lam, m)}
    one = Fraction(1)
    for p in primes:
        weights[p] = one
        for p2 in primes:
            weights[p * p2] = one
            weights[p * p2 * p2] = one
            weights[p * p * p2 * p2] = one
    return dict(sorted(weights.items()))


def amplified_count_sum(z: PointH, lam: int, delta, n: int, m: int):
    """Weighted count sum_l y_l / sqrt(l) * N(z, l, delta, N; M).

    Returns (value, pairs) with value a Decimal summed at working_precision(),
    10 guard digits above default_dps() (CUSPNORM_PRECISION), and pairs the
    exact list of (l, y_l, count).

    The envelope bound assumes M^2 <= Lambda and z in G(N; M); the sum is
    still well-defined otherwise, so violations only warn.
    """
    if m * m > lam:
        warnings.warn(f"amplifier envelope assumes M^2 <= Lambda, got M={m}, Lambda={lam}")
    if not is_in_G(z, n, m):
        warnings.warn(f"point {z!r} lies outside G({n};{m}); bounds may not apply")
    pairs = []
    with working_precision():
        total = Decimal(0)
        for l, yl in amplifier_weights(lam, m).items():
            cnt = count_delta_near(z, l, delta, n, m)
            pairs.append((l, yl, cnt))
            if cnt:
                term = Decimal(yl.numerator) / yl.denominator * cnt
                total += term / Decimal(l).sqrt()
    return total, pairs
