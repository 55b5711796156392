"""Independent oracles and random generators shared by the test modules.

These deliberately avoid the library's own enumeration logic: the box
oracle scans raw entry boxes against the defining conditions only, the
random matrix generators build group elements from words in S and T, the
lattice-floor scan, the Moebius action and the width-one sigma and shift
compute in Fractions where the package clears denominators to integers,
and the number-theoretic oracles
(cusp orbits, Hermite decomposition, coset labels, primality, Euler phi,
W^2, the Fourier exponent) work from definitions and import no private helper of
the code they check.
"""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd

import numpy as np

from cuspnorm.conjugation import GapVerdict
from cuspnorm.errors import InvalidM, OutOfRange
from cuspnorm.modgroup import Mat2, PointH, point_pair_u

S = Mat2(0, -1, 1, 0)
T = Mat2(1, 1, 0, 1)


def seeded_rng(*key) -> random.Random:
    """A generator seeded by the sha256 of the key, stable across platforms."""
    raw = "|".join(str(k) for k in key).encode()
    return random.Random(int.from_bytes(hashlib.sha256(raw).digest()[:8], "big"))


def gap_sweep_points(n_max: int):
    """The C3 point distribution for N <= n_max: 100 seeded rationals per
    level, x = a/den and y = b/den with den <= 64."""
    for n in range(1, n_max + 1):
        for k in range(100):
            rng = seeded_rng(0, "gap", n, k)
            den = rng.randint(1, 64)
            x = Fraction(rng.randint(-2 * den, 2 * den), den)
            y = Fraction(rng.randint(1, 2 * den), den)
            yield n, PointH(x, y)


def rand_fraction(rng: random.Random, lo: int, hi: int, den_max: int = 64) -> Fraction:
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_point(rng: random.Random, den_max: int = 64) -> PointH:
    x = rand_fraction(rng, -2, 2, den_max)
    y = rand_fraction(rng, 0, 2, den_max)
    if y <= 0:
        y = Fraction(rng.randint(1, den_max), den_max)
    return PointH(x, y)


def rand_sl2(rng: random.Random, words: int = 6) -> Mat2:
    """Random SL2(Z) element as a word in S and powers of T."""
    g = Mat2.identity()
    for _ in range(rng.randint(1, words)):
        if rng.random() < 0.5:
            g = g * S
        g = g * Mat2(1, rng.randint(-3, 3), 0, 1)
    if rng.random() < 0.5:
        g = -g
    return g


def rand_sl2_bounded(rng: random.Random, bound: int = 50) -> Mat2:
    """Random SL2(Z) element with all entries bounded by `bound`."""
    while True:
        g = rand_sl2(rng)
        if all(abs(int(e)) <= bound for e in g.entries()):
            return g


def rand_det_matrix(rng: random.Random, det: int) -> Mat2:
    """Random integer matrix of given positive determinant."""
    a = rng.choice([d for d in range(1, det + 1) if det % d == 0])
    h = Mat2(a, rng.randint(0, det // a - 1) if det // a > 1 else 0, 0, det // a)
    return rand_sl2(rng, 3) * h * rand_sl2(rng, 3)


def fraction_mobius_act(g: Mat2, z: PointH) -> PointH:
    """(az + b)/(cz + d) for det(g) > 0, from the Fraction formulas on the
    entries of g and z as given: nothing is scaled or cleared."""
    det = Fraction(g.det)
    if det <= 0:
        raise ValueError(f"mobius_act needs det > 0, got {det}")
    x, y = z.x, z.y
    den = (g.c * x + g.d) ** 2 + (g.c * y) ** 2  # |cz+d|^2 > 0 since y > 0
    new_x = ((g.a * x + g.b) * (g.c * x + g.d) + g.a * g.c * y * y) / den
    new_y = det * y / den
    return PointH(new_x, new_y)


def fraction_sigma(op, tau: Mat2, n_shift: Mat2, m1: int) -> Mat2:
    """sigma = W tau n diag(1/M1, M1/N_S) for an Atkin-Lehner operator op,
    as a product of Fraction matrices, checked to lie in SL2(Z)."""
    scale = Mat2(Fraction(1, m1), 0, 0, Fraction(m1, op.n_s))
    return (op.w * tau * n_shift * scale).require_sl2()


def fraction_search_shift(tau: Mat2, op, sigma: Mat2, m1: int) -> Mat2:
    """n = tau^-1 W^-1 sigma diag(M1, N_S/M1) as a product of Fraction
    matrices, with W^-1 = adj(W) / N_S and tau^-1 = adj(tau)."""
    w_inv = Mat2(*(Fraction(e, op.n_s) for e in op.w.adjugate().entries()))
    return tau.adjugate() * w_inv * sigma * Mat2(m1, 0, 0, Fraction(op.n_s, m1))


def lattice_floor_pairs(z: PointH, n: int, m: int, k: int):
    """Yield ((c, d), |c z + d|^2, (3/4) (M^2 gcd(c, N/M^2) / N)^k) over the
    box of the lattice-floor scan, in its order, in Fractions: (0, 1), then
    c = 1, 2, ... while 4 c^2 y^2 < 3 and d from ceil(-cx - 1) to
    floor(-cx + 1)."""
    if m < 1 or n % (m * m) != 0:
        raise InvalidM(f"M^2 = {m * m} does not divide N = {n}")
    n_over_m2 = n // (m * m)
    x, y = z.x, z.y

    def bound(c: int) -> Fraction:
        return Fraction(3 * (m * m * gcd(c, n_over_m2)) ** k, 4 * n**k)

    yield (0, 1), Fraction(1), bound(0)
    c = 1
    while c * c * y * y * 4 < 3:
        center = -c * x
        for d in range(ceil(center - 1), floor(center + 1) + 1):
            yield (c, d), (c * x + d) ** 2 + (c * y) ** 2, bound(c)
        c += 1


def lattice_floor_verdict(z: PointH, n: int, m: int, k: int) -> GapVerdict:
    """The lattice-floor verdict from Fractions: the worst pair is the first
    of least margin lhs - bound in scan order."""
    worst = None
    for pair, lhs, bound in lattice_floor_pairs(z, n, m, k):
        if worst is None or lhs - bound < worst[1] - worst[2]:
            worst = (pair, lhs, bound)
    pair, lhs, bound = worst
    return GapVerdict(lhs >= bound, pair, lhs - bound, lhs, bound)


def box_oracle_delta(z: PointH, l: int, delta, n: int, m: int, box: int):
    """All gamma in Delta(l, N; M) with max |entry| <= box and
    u(gamma z, z) <= delta, straight from the definitions.

    numpy filters the determinant and congruence conditions and prefilters
    u in floating point with a generous margin; the u-condition is then
    decided exactly with Fractions on every surviving candidate, so the
    result is exact.
    """
    delta = Fraction(delta)
    zf = complex(z.x) + 1j * complex(z.y)
    yf = float(z.y)
    slack = float(delta) + 1e-6 * (1 + float(delta))
    rng_entries = np.arange(-box, box + 1, dtype=np.int64)
    grid_a, grid_d = np.meshgrid(rng_entries, rng_entries, indexing="ij")
    out = []

    def u_exact_ok(a, b, c, d):
        g = Mat2(int(a), int(b), int(c), int(d))
        return point_pair_u(fraction_mobius_act(g, z), z) <= delta

    def prefilter(a_arr, b_arr, c, d_arr):
        gz = (a_arr * zf + b_arr) / (c * zf + d_arr)
        u = np.abs(gz - zf) ** 2 / (4 * gz.imag * yf)
        return u <= slack

    for c in range(-box, box + 1):
        if c % n:
            continue
        if c == 0:
            for a in rng_entries:
                a = int(a)
                if a == 0 or l % a or (a - 1) % m:
                    continue
                d = l // a
                if abs(d) > box:
                    continue
                b_arr = rng_entries.astype(np.float64)
                keep = prefilter(
                    np.full_like(b_arr, a), b_arr, 0.0, np.full_like(b_arr, d)
                )
                for b in rng_entries[keep]:
                    if u_exact_ok(a, b, 0, d):
                        out.append((a, int(b), 0, d))
        else:
            num = grid_a * grid_d - l
            mask = (num % c == 0) & ((grid_a - 1) % m == 0)
            a_c = grid_a[mask]
            d_c = grid_d[mask]
            b_c = (a_c * d_c - l) // c
            in_box = np.abs(b_c) <= box
            a_c, d_c, b_c = a_c[in_box], d_c[in_box], b_c[in_box]
            keep = prefilter(
                a_c.astype(np.float64),
                b_c.astype(np.float64),
                float(c),
                d_c.astype(np.float64),
            )
            for a, b, d in zip(a_c[keep], b_c[keep], d_c[keep]):
                if u_exact_ok(a, b, c, d):
                    out.append((int(a), int(b), c, int(d)))
    return sorted(out)


def _unit_generators(n: int) -> list[int]:
    """A small generating set of (Z/n)^x, found greedily."""
    if n <= 2:
        return []
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    gens: list[int] = []
    span = {1}
    for u in units:
        if u in span:
            continue
        gens.append(u)
        span = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for g in gens:
                w = v * g % n
                if w not in span:
                    span.add(w)
                    stack.append(w)
        if len(span) == len(units):
            break
    return gens


def brute_force_cusp_orbits(n: int) -> dict[tuple[int, int], int]:
    """Orbit id for every pair (a, c) mod N with gcd(a, c, N) = 1 under the
    image of Gamma0(N) acting on column vectors.

    Validation oracle for enumerate_cusps: BFS closure under the generators
    T: (a, c) -> (a + c, c) and diag(u, 1/u): (a, c) -> (ua, c/u), which
    generate the full upper-triangular image of Gamma0(N) mod N.
    """
    if n == 1:
        return {(0, 0): 0}
    gens = _unit_generators(n)
    gen_pairs = [(u, pow(u, -1, n)) for u in gens]
    if n > 2:
        gen_pairs.append((n - 1, n - 1))  # -I
    orbit: dict[tuple[int, int], int] = {}
    next_id = 0
    for a0 in range(n):
        for c0 in range(n):
            if gcd(gcd(a0, c0), n) != 1 or (a0, c0) in orbit:
                continue
            stack = [(a0, c0)]
            orbit[(a0, c0)] = next_id
            while stack:
                a, c = stack.pop()
                nbrs = [((a + c) % n, c)]
                for u, uinv in gen_pairs:
                    nbrs.append((u * a % n, uinv * c % n))
                for pr in nbrs:
                    if pr not in orbit:
                        orbit[pr] = next_id
                        stack.append(pr)
            next_id += 1
    return orbit


def brute_force_cusp_count(n: int) -> int:
    """Number of cusps of Gamma0(N) by explicit orbit enumeration."""
    orbits = brute_force_cusp_orbits(n)
    return len(set(orbits.values()))


def hnf_decompose(gamma: Mat2) -> tuple[Mat2, Mat2]:
    """Factor an integer matrix of determinant l > 0 as u * h, u in SL2(Z),
    h the Hermite representative.  Row-reduces the first column by SL2(Z)
    operations on the left, then normalizes signs and the off-diagonal."""
    if gamma.det <= 0:
        raise ValueError(f"hnf_decompose expects det > 0, got {gamma.det}")
    left = Mat2.identity()  # accumulated SL2 row operations
    a, b, c, d = gamma.entries()
    while c:
        # r1 <- r1 - q r2, then swap rows with a sign; |c| strictly drops
        quo = a // c
        a, b = a - quo * c, b - quo * d
        left = Mat2(1, -quo, 0, 1) * left
        a, b, c, d = -c, -d, a, b
        left = Mat2(0, -1, 1, 0) * left
    if a < 0:
        a, b, c, d = -a, -b, -c, -d
        left = Mat2(-1, 0, 0, -1) * left
    # clear b into [0, d)
    quo = b // d
    b -= quo * d
    left = Mat2(1, -quo, 0, 1) * left
    h = Mat2(a, b, c, d)
    u = left.adjugate()  # left is in SL2(Z)
    assert u.det == 1 and (u * h).entries() == gamma.entries()
    return u, h


@lru_cache(maxsize=None)
def _units_one_mod(n: int, m: int) -> tuple[int, ...]:
    """The units s mod N with s == 1 (mod M)."""
    return tuple(s for s in range(1, n) if gcd(s, n) == 1 and s % m == 1 % m)


def _canonical_row(c: int, d: int, n: int, m: int) -> tuple[int, int]:
    """The least (s c, s d) mod N over the units s mod N with s == 1 (mod M)."""
    if n == 1:
        return (0, 0)
    return min(((s * c) % n, (s * d) % n) for s in _units_one_mod(n, m))


def canonical_rows(n: int, m: int) -> list[tuple[int, int]]:
    """The sorted set of _canonical_row(c, d, n, m) over all rows (c, d) mod N
    with gcd(c, d, N) = 1, with the minimum over units taken for every row
    at once in numpy; a pair is compared as s c * N + s d, which orders
    pairs of residues lexicographically."""
    if n == 1:
        return [(0, 0)]
    c, d = np.divmod(np.arange(n * n, dtype=np.int64), n)
    prim = np.gcd(np.gcd(c, d), n) == 1
    c, d = c[prim], d[prim]
    units = np.array(_units_one_mod(n, m), dtype=np.int64)[:, None]
    keys = np.unique(((units * c % n) * n + units * d % n).min(axis=0))
    return [divmod(int(k), n) for k in keys]


def coset_key(gamma: Mat2, n: int, m: int) -> tuple:
    """Canonical label of the right coset Gamma0(N; M) * gamma."""
    u, h = hnf_decompose(gamma)
    row = _canonical_row(int(u.c) % n, int(u.d) % n, n, m)
    return (row, h.entries())


def same_coset(g1: Mat2, g2: Mat2, n: int, m: int) -> bool:
    """Exact test g1 * g2^-1 in Gamma0(N; M) (integer arithmetic only)."""
    l = g2.det
    prod = g1 * g2.adjugate()  # l * (g1 g2^-1)
    if any(int(e) % l for e in prod.entries()):
        return False
    q = Mat2(*(int(e) // l for e in prod.entries()))
    return q.det == 1 and q.c % n == 0 and q.a % m == 1 % m and q.d % m == 1 % m


def w_squared_in_center_gamma0(op) -> bool:
    """Check W^2 = lambda * gamma with lambda rational and gamma in Gamma0(N)
    for an Atkin-Lehner operator op."""
    w2 = op.w * op.w
    for lam in (op.n_s, -op.n_s):
        g = Mat2(
            Fraction(w2.a, lam),
            Fraction(w2.b, lam),
            Fraction(w2.c, lam),
            Fraction(w2.d, lam),
        )
        if g.is_integral() and g.det == 1 and int(g.c) % op.level == 0:
            return True
    return False


def euler_phi(n: int) -> int:
    """Euler phi from its definition: #{1 <= k <= n : gcd(k, n) = 1}."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fourier_exponent(mu, h) -> tuple[str, Fraction]:
    """Branch and exponent of the Fourier sup bound at M = N^mu, y = N^h
    (h >= -1): the low branch (N y)^(-1/2) gives -(1 + h)/2 and applies for
    h <= -2 mu, i.e. y <= 1/M^2; otherwise M^(1/2) N^(-1/2) y^(-1/4) gives
    mu/2 - 1/2 - h/4."""
    mu, h = Fraction(mu), Fraction(h)
    if h < -1:
        raise OutOfRange(f"y = N^{h} below 1/N")
    if h <= -2 * mu:
        return "low", -(1 + h) / 2
    return "high", mu / 2 - Fraction(1, 2) - h / 4
