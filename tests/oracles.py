"""Independent oracles and random generators shared by the test modules.

These deliberately avoid the library's own enumeration logic: the box
oracle scans raw entry boxes against the defining conditions only, the
Hermite oracle lists Delta(l, N; M) near a point through SL2(Z) \\ M_l with
its own reduction into the standard domain and its own integer product, the
random matrix generators build group elements from words in S and T, the
ellipse rows are listed from a box of d tested one by one, the
lattice-floor scan, the gap search's first columns, the Moebius action and
the width-one sigma and shift compute with their own product of Fraction
matrices where the package clears denominators to integers, the sampled
Hecke conjugation check multiplies Mat2 objects where the package keeps
integer 4-tuples, and the number-theoretic oracles (cusp orbits and widths,
Hermite decomposition, coset labels, Delta membership, the passing pairs
of the coset walk, primality, Euler phi, W^2, the Fourier exponent) work
from definitions and import no private helper of the code they check.
"""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, lcm, sqrt

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
        if all(abs(e) <= bound for e in g.entries()):
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


def fraction_product(*mats) -> tuple[Fraction, ...]:
    """The product of 2x2 matrices, each given as a 4-tuple (a, b, c, d) of
    rationals, as a 4-tuple of Fractions."""
    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for e, f, g, h in mats:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def fraction_sigma(op, tau: Mat2, n: tuple, m1: int) -> tuple[int, ...]:
    """The entries of sigma = W tau n diag(1/M1, M1/N_S) for an Atkin-Lehner
    operator op and a shift n given as four rationals, as a product of
    Fraction matrices, checked to lie in SL2(Z)."""
    scale = (Fraction(1, m1), 0, 0, Fraction(m1, op.n_s))
    a, b, c, d = fraction_product(op.w.entries(), tau.entries(), n, scale)
    assert all(e.denominator == 1 for e in (a, b, c, d)) and a * d - b * c == 1
    return int(a), int(b), int(c), int(d)


def fraction_shift(tau: Mat2, op, sigma: Mat2, m1: int) -> tuple[Fraction, ...]:
    """n = tau^-1 W^-1 sigma diag(M1, N_S/M1) as a product of Fraction
    matrices, with W^-1 = adj(W) / N_S and tau^-1 = adj(tau)."""
    a, b, c, d = op.w.entries()
    w_inv = tuple(Fraction(e, op.n_s) for e in (d, -b, -c, a))
    a, b, c, d = tau.entries()
    return fraction_product(
        (d, -b, -c, a), w_inv, sigma.entries(), (m1, 0, 0, Fraction(op.n_s, m1))
    )


def fraction_json(entries) -> list:
    """[[a, b], [c, d]] with each rational an int when integral, else the
    string "p/q" in lowest terms."""
    enc = [
        e.numerator if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        for e in map(Fraction, entries)
    ]
    return [enc[:2], enc[2:]]


def ellipse_rows(px: int, py: int, q: int, r_num: int, r_den: int, c_step: int):
    """{c: [d, ...]} for c = c_step, 2 c_step, ... while (c py)^2 <= R, with
    every d, ascending, such that (c px + d q)^2 + (c py)^2 <= R, where
    R = r_num / r_den, tested one by one in Fractions.  Each row is listed
    from the box |c px + d q| < reach, a power of two with reach^2 > R."""
    bound = Fraction(r_num, r_den)
    reach = 1
    while reach * reach <= bound:
        reach *= 2
    rows = {}
    c = c_step
    while (c * py) ** 2 <= bound:
        lo, hi = (-c * px - reach) // q, (reach - c * px) // q + 1
        cy2 = (c * py) ** 2
        rows[c] = [d for d in range(lo, hi + 1) if (c * px + d * q) ** 2 + cy2 <= bound]
        c += c_step
    return rows


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


def first_column_columns(w: PointH, n: int, m: int) -> list[tuple[int, int]]:
    """The search's sigma-columns at w from the definitions: every column
    with Im(sigma^-1 w) = y / |a - c w|^2 at least sqrt(3) M^2 / (2N),
    decided in Fractions as 4 N^2 Im^2 >= 3 M^4.  That is (1, 0) when M = 1
    and y itself meets the floor, then every coprime (a, c) with c != 0 and
    gcd(c, N) = N/M, ordered by |c|, c before -c, then a.

    An admissible column has c^2 y^2 <= |a - c w|^2 <= 2 N y / M^2, which
    bounds the scanned box."""
    x, y = w.x, w.y
    bound = Fraction(2 * n * y, m * m)
    c_max = floor((bound / (y * y)) ** 0.5) + 1
    r = floor(bound ** 0.5) + 1
    cols = []
    for c in range(-c_max, c_max + 1):
        if c == 0 or gcd(c, n) != n // m:
            continue
        for a in range(floor(c * x) - r, floor(c * x) + r + 2):
            height = y / ((a - c * x) ** 2 + c * c * y * y)
            if gcd(a, c) == 1 and 4 * n * n * height * height >= 3 * m**4:
                cols.append((a, c))
    cols.sort(key=lambda ac: (abs(ac[1]), ac[1] < 0, ac[0]))
    identity = m == 1 and 4 * n * n * y * y >= 3 * m**4
    return ([(1, 0)] if identity else []) + cols


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


def hermite_matrices(l: int) -> list[Mat2]:
    """Every (a, b; 0, d) with a d = l, a, d > 0 and 0 <= b < d, in
    ascending (a, b): the Hermite representatives of determinant l, read
    off the definition; there are sigma_1(l) of them."""
    return [
        Mat2(a, b, 0, l // a) for a in range(1, l + 1) if l % a == 0 for b in range(l // a)
    ]


def _int_product(*mats) -> tuple[int, ...]:
    """The product of integer 2x2 matrices given as 4-tuples (a, b, c, d),
    on ints: fraction_product made hermite_delta_near ten times slower."""
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in mats:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def _fraction_fd_reduce(x: Fraction, y: Fraction) -> tuple[tuple[int, ...], Fraction, Fraction]:
    """(k, x0, y0) with x + iy = k (x0 + i y0) for k in SL2(Z), an integer
    4-tuple, and x0 + i y0 in the closed standard domain |x0| <= 1/2,
    x0^2 + y0^2 >= 1, so y0 >= sqrt(3)/2: translate, then invert while
    |z| < 1, in Fractions."""
    k = (1, 0, 0, 1)
    while True:
        shift = floor(x + Fraction(1, 2))
        x -= shift
        k = _int_product(k, (1, shift, 0, 1))
        norm = x * x + y * y
        if norm >= 1:
            return k, x, y
        x, y = -x / norm, y / norm
        k = _int_product(k, (0, -1, 1, 0))


FLOAT_SLACK = 1e-6  # widens the float ranges of hermite_delta_near, far beyond their rounding


def hermite_delta_near(z: PointH, l: int, delta, n: int, m: int) -> list[tuple[int, ...]]:
    """Every gamma in Delta(l, N; M) with u(gamma z, z) <= delta, as sorted
    (a, b, c, d), found through SL2(Z) \\ M_l rather than (c, d) windows.

    Each integer matrix of determinant l is gamma = g h for one g in SL2(Z)
    and one of the sigma_1(l) Hermite matrices h.  With z = k z0 and
    h z = j w0 for z0, w0 in the standard domain, gamma = k t j^-1 h and
    u(gamma z, z) = u(t w0, z0) for t = k^-1 g j in SL2(Z).  u <= delta
    forces Im(t w0) >= y0 / rho, rho = 1 + 2 delta + 2 sqrt(delta^2 + delta),
    so the bottom row (r, s) of t has |r w0 + s|^2 <= rho Im(w0) / y0, which
    holds for few rows as Im(w0) y0 >= 3/4.  With t0 one matrix of that
    row, t = T^e t0 and t w0 = t0 w0 + e, so u <= delta holds for e in one
    interval, and gamma = k t0 j^-1 h + e k (r, s; 0, 0) j^-1 h.  Floats
    widened by FLOAT_SLACK place these ranges; each gamma is then decided
    exactly, Delta membership from its entries and u(gamma z, z) on
    integers: as
    gamma z - z = (b + (a - d) z - c z^2) / (cz + d) and Im(gamma z) =
    l y / |cz + d|^2, u <= delta reads |c z^2 - (a - d) z - b|^2 <=
    4 l delta y^2, here cleared by z = (X + iY)/den and delta = dn/dd.
    """
    delta = Fraction(delta)
    den = lcm(z.x.denominator, z.y.denominator)
    big_x, big_y = int(z.x * den), int(z.y * den)
    dn, dd = delta.numerator, delta.denominator
    yy, xy2, yq = big_y * big_y, 2 * big_x * big_y, big_y * den
    x2y2, xq, qq = big_x * big_x - yy, big_x * den, den * den
    bound = 4 * l * dn * yy * qq
    k, x0, y0 = _fraction_fd_reduce(z.x, z.y)
    fx0, fy0, fd = float(x0), float(y0), float(delta)
    rho = 1 + 2 * fd + 2 * sqrt(fd * (fd + 1))
    out = []
    for h in hermite_matrices(l):
        ha, hb, _, hd = h.entries()
        j, wx, wy = _fraction_fd_reduce((ha * z.x + hb) / hd, ha * z.y / hd)
        right = _int_product((j[3], -j[1], -j[2], j[0]), h.entries())  # j^-1 h
        w0 = complex(float(wx), float(wy))
        reach = rho * w0.imag / fy0  # |r w0 + s|^2 <= reach
        r_max = floor(sqrt(reach) / w0.imag + FLOAT_SLACK)
        for r in range(-r_max, r_max + 1):
            mid = -r * w0.real
            half = sqrt(max(reach - (r * w0.imag) ** 2, 0.0)) + FLOAT_SLACK
            for s in range(ceil(mid - half), floor(mid + half) + 1):
                if gcd(r, s) != 1:
                    continue
                p = pow(s, -1, abs(r)) if r else s
                q = (p * s - 1) // r if r else 0
                t0w = (p * w0 + q) / (r * w0 + s)
                # (Re t0w + e - x0)^2 <= 4 delta Y y0 - (Y - y0)^2, Y = Im t0w
                rad = 4 * fd * t0w.imag * fy0 - (t0w.imag - fy0) ** 2
                if rad < -FLOAT_SLACK:
                    continue
                mid, half = fx0 - t0w.real, sqrt(max(rad, 0.0)) + FLOAT_SLACK
                g0 = _int_product(k, (p, q, r, s), right)
                step = _int_product(k, (r, s, 0, 0), right)
                for e in range(ceil(mid - half), floor(mid + half) + 1):
                    a, b, c, d = (u + e * v for u, v in zip(g0, step))
                    if c % n or (a - 1) % m:
                        continue
                    re_q2 = c * x2y2 - (a - d) * xq - b * qq  # den^2 Re(c z^2 - (a - d) z - b)
                    im_q2 = c * xy2 - (a - d) * yq
                    if dd * (re_q2 * re_q2 + im_q2 * im_q2) <= bound:
                        out.append((a, b, c, d))
    return sorted(out)


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


@lru_cache(maxsize=16)
def _row_arrays(n: int, m: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """canonical_rows(n, m) with its c and d columns as arrays."""
    rows = canonical_rows(n, m)
    return rows, np.array([c for c, _ in rows]), np.array([d for _, d in rows])


def coset_walk_pairs(l: int, n: int, m: int) -> list[tuple[tuple[int, int], int]]:
    """The passing (row, a1) pairs of the pair method over every canonical
    row, in order: rows, then a1 ascending.

    From the definitions: (row (c, d), (a1, b1; 0, l/a1)) contributes iff
    N | c a1 and a a1 == 1 (mod M) for the upper-left a of a lift of the
    row to SL2(Z).  Given N | c a1, a d - b c = 1 gives a a1 d == a1
    (mod M), so the second condition reads gcd(a1, M) = 1 and
    d == a1 (mod M), with no lift formed."""
    rows, c, d = _row_arrays(n, m)
    hits = []
    for a1 in range(1, l + 1):
        if l % a1 == 0 and gcd(a1, m) == 1:
            ok = (c * a1 % n == 0) & (d % m == a1 % m)
            hits += [(int(i), a1) for i in np.flatnonzero(ok)]
    return [(rows[i], a1) for i, a1 in sorted(hits)]


def coset_key(gamma: Mat2, n: int, m: int) -> tuple:
    """Canonical label of the right coset Gamma0(N; M) * gamma."""
    u, h = hnf_decompose(gamma)
    row = _canonical_row(u.c % n, u.d % n, n, m)
    return (row, h.entries())


def same_coset(g1: Mat2, g2: Mat2, n: int, m: int) -> bool:
    """Exact test g1 * g2^-1 in Gamma0(N; M) (integer arithmetic only)."""
    l = g2.det
    prod = g1 * g2.adjugate()  # l * (g1 g2^-1)
    if any(e % l for e in prod.entries()):
        return False
    q = Mat2(*(e // l for e in prod.entries()))
    return q.det == 1 and q.c % n == 0 and q.a % m == 1 % m and q.d % m == 1 % m


def delta_member(g: Mat2, l: int, n: int, m: int) -> bool:
    """g in Delta(l, N; M) from the definition: integer entries,
    determinant l, N divides the lower-left entry and the upper-left entry
    is 1 mod M."""
    if any(Fraction(e).denominator != 1 for e in g.entries()):
        return False
    a, b, c, d = (int(e) for e in g.entries())
    return a * d - b * c == l and c % n == 0 and (a - 1) % m == 0


def mat2_gamma0nm_word(n: int, m: int, rng: random.Random) -> Mat2:
    """A random Gamma0(N; M)-word as a product of Mat2 letters: T^t, the
    lower N-shear and (u, (u d0 - 1)/N; N, d0) for a unit u == 1 (mod M)
    with d0 = u^-1 mod N, drawn in a fixed order (the letter count, then
    per letter its kind and its shift or unit), so a seed fixes the word."""
    units = _units_one_mod(n, m) if n > 1 else (1,)
    g = Mat2.identity()
    for _ in range(rng.randint(2, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            g = g * Mat2(1, rng.randint(-3, 3), 0, 1)
        elif kind == 1:
            g = g * Mat2(1, 0, n * rng.randint(-3, 3), 1)
        else:
            u = units[rng.randrange(len(units))]
            d0 = pow(u, -1, n) if n > 1 else 1
            g = g * Mat2(u, (u * d0 - 1) // n, n, d0)
    return g


def mat2_conjugation_invariance(
    sigma: Mat2, reps: list[Mat2], l: int, n: int, m: int, budget: int, seed: int
) -> dict:
    """The JSON of the sampled conjugation check, formed with Mat2 products
    and delta_member: the representatives, then `budget` translates
    word * reps[rng.randrange(len(reps))]; for each, sigma g sigma^-1 and
    then sigma^-1 g sigma, stopping at the first non-member."""
    note = "" if (l - 1) % m == 0 else "l != 1 (mod M): invariance is not asserted"
    sig_inv = sigma.adjugate()
    rng = random.Random(seed)
    samples = list(reps)
    for _ in range(budget):
        g = mat2_gamma0nm_word(n, m, rng)
        samples.append(g * samples[rng.randrange(len(reps))])
    checked = 0
    for gamma in samples:
        for cand in (sigma * gamma * sig_inv, sig_inv * gamma * sigma):
            checked += 1
            if not delta_member(cand, l, n, m):
                return {"passed": False, "checked": checked, "note": note,
                        "witness": gamma.to_json()}
    return {"passed": True, "checked": checked, "note": note}


def conjugation_class_passes(
    sigma: Mat2, reps: list[Mat2], l: int, n: int, m: int
) -> bool:
    """Whether sigma w r sigma^-1 and sigma^-1 w r sigma lie in
    Delta(l, N; M) for every representative r and every w in Gamma0(N; M).

    Membership reads w mod N alone (the entries of a conjugate are linear
    in those of w, and its determinant is l), and Gamma0(N; M) mod N is
    the set of (u, b; 0, u^-1) with u a unit that is 1 mod M and b any
    residue.  So one lift of each is tried: (u, k; N, d0) (1, t; 0, 1)
    with d0 = u^-1 mod N, k = (u d0 - 1)/N and u t + k == b (mod N)."""
    sig_inv = sigma.adjugate()
    right = [(r * sig_inv, r * sigma) for r in reps]
    for u in _units_one_mod(n, m) if n > 1 else (1,):
        d0 = pow(u, -1, n) if n > 1 else 1
        k = (u * d0 - 1) // n
        for b in range(n):
            w = Mat2(u, k, n, d0) * Mat2(1, (b - k) * d0 % n, 0, 1)
            assert w.det == 1 and w.c % n == 0 and (w.a - 1) % m == 0
            assert w.b % n == b % n and w.a % n == u % n
            left = (sigma * w, sig_inv * w)
            for pair in right:
                if not all(delta_member(x * y, l, n, m) for x, y in zip(left, pair)):
                    return False
    return True


def w_squared_in_center_gamma0(op) -> bool:
    """Check W^2 = lambda * gamma with lambda rational and gamma in Gamma0(N)
    for an Atkin-Lehner operator op."""
    w2 = fraction_product(op.w.entries(), op.w.entries())
    for lam in (op.n_s, -op.n_s):
        a, b, c, d = (e / lam for e in w2)
        integral = all(e.denominator == 1 for e in (a, b, c, d))
        if integral and a * d - b * c == 1 and c % op.level == 0:
            return True
    return False


def cusp_width(tau: Mat2, n: int) -> int:
    """The width N / gcd(C^2, N) of the cusp of tau in SL2(Z), from the
    definition C = gcd(c, N) of its denominator (gcd(0, N) = N)."""
    c = gcd(tau.c, n)
    return n // gcd(c * c, n)


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
