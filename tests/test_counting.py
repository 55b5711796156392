import random
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspnorm import counting
from cuspnorm.bounds import bound_rhs_ampl
from cuspnorm.counting import (
    amplified_count_sum,
    amplifier_weights,
    classify_counts,
    count_delta_near,
    count_star,
    count_upper,
    enumerate_delta_near,
    in_delta_entries,
    is_in_G,
    parabolic_certify,
)
from cuspnorm.errors import BudgetExceeded, InvalidM
from cuspnorm.harness import sample_point_in_g
from cuspnorm.modgroup import Mat2, PointH, mobius_act, point_pair_u
from oracles import (
    box_oracle_delta,
    delta_member,
    fraction_mobius_act,
    hermite_delta_near,
    rand_point,
)

I = PointH(0, 1)


def test_in_delta_examples():
    for entries, l, n, m, member in [
        ((1, 0, 0, 1), 1, 7, 3, True),
        ((1, 1, 0, 2), 2, 4, 2, True),
        ((2, 1, 4, 3), 2, 4, 2, False),  # a != 1 mod 2
    ]:
        assert in_delta_entries(*entries, l, n, m) == member
        assert delta_member(Mat2(*entries), l, n, m) == member


def test_is_in_G_examples():
    assert is_in_G(PointH(0, 2), 4, 2)
    assert is_in_G(I, 1, 1)
    assert not is_in_G(PointH(0, Fraction(1, 100)), 4, 1)
    with pytest.raises(InvalidM):
        is_in_G(I, 8, 3)


def test_enumerate_examples():
    got = {g.entries() for g in enumerate_delta_near(I, 1, 0, 1, 1)}
    assert got == {(1, 0, 0, 1), (-1, 0, 0, -1), (0, -1, 1, 0), (0, 1, -1, 0)}
    got = {g.entries() for g in enumerate_delta_near(PointH(0, 2), 1, Fraction(1, 100), 4, 1)}
    assert got == {(1, 0, 0, 1), (-1, 0, 0, -1)}
    got = {g.entries() for g in enumerate_delta_near(I, 4, 0, 1, 1)}
    assert got == {(2, 0, 0, 2), (-2, 0, 0, -2), (0, -2, 2, 0), (0, 2, -2, 0)}


def test_enumerate_sorted_and_exact():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = rng.choice([1, 2])
        l = rng.randint(1, 12)
        delta = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        z = rand_point(rng, den_max=12)
        mats = enumerate_delta_near(z, l, delta, n, m)
        keys = [(g.c, g.a, g.d, g.b) for g in mats]
        assert keys == sorted(keys)
        for g in mats:
            assert delta_member(g, l, n, m)
            assert point_pair_u(mobius_act(g, z), z) <= delta


def test_classify_examples():
    rep = classify_counts(I, 1, 0, 1, 1)
    assert (rep.n_star, rep.n_u, rep.n_p) == (2, 0, 2)
    rep = classify_counts(I, 2, 1, 1, 1)
    assert rep.n_p == 0  # 2 is not a perfect square
    rep = classify_counts(PointH(0, 2), 1, Fraction(1, 100), 4, 2)
    assert (rep.n_star, rep.n_u, rep.n_p) == (0, 0, 2)


def test_classify_partition():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(1, 6)
        l = rng.randint(1, 10)
        z = rand_point(rng, den_max=8)
        rep = classify_counts(z, l, 1, n, 1)
        assert rep.total == rep.n_star + rep.n_u + rep.n_p
        for g in rep.star:
            assert g.c != 0 and g.trace**2 != 4 * l
        for g in rep.upper:
            assert g.c == 0 and g.trace**2 != 4 * l
        for g in rep.parabolic:
            assert g.trace**2 == 4 * l


def test_completeness_against_box_oracle():
    rng = random.Random(33)
    box = 25
    for _ in range(40):
        n = rng.choice([1, 2, 3, 4, 6])
        m = rng.randint(1, 6)
        l = rng.randint(1, 9)
        delta = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        z = rand_point(rng, den_max=8)
        expected = set(box_oracle_delta(z, l, delta, n, m, box))
        mats = enumerate_delta_near(z, l, delta, n, m)
        inside_box = {
            (g.a, g.b, g.c, g.d)
            for g in mats
            if max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= box
        }
        assert inside_box == expected, (n, m, l, delta, z)


def test_np_zero_for_nonsquares():
    rng = random.Random(34)
    nonsquares = [l for l in range(2, 51) if int(l**0.5) ** 2 != l]
    for l in nonsquares:
        n = rng.randint(1, 10)
        z = rand_point(rng, den_max=8)
        assert classify_counts(z, l, 1, n, 1).n_p == 0


def test_delta_monotonicity():
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randint(1, 6)
        l = rng.randint(1, 9)
        z = rand_point(rng, den_max=8)
        counts = [
            classify_counts(z, l, d, n, 1).total
            for d in (0, Fraction(1, 2), 1, 2)
        ]
        assert counts == sorted(counts)


def test_g_membership_monotone_in_y():
    # for fixed x, membership in G(N; M) only improves as y grows
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 30)
        ms = [m for m in range(1, n + 1) if n % (m * m) == 0]
        m = rng.choice(ms)
        z = rand_point(rng, den_max=16)
        if is_in_G(z, n, m):
            for scale in (2, 3, 10):
                assert is_in_G(PointH(z.x, z.y * scale), n, m)


def test_parabolic_certify_examples():
    # identity-like scalars at l = 1
    certs = parabolic_certify(PointH(0, Fraction(1, 4)), 1, 1, 4, 1)
    assert certs
    scalars = [c for c in certs if c.scalar]
    assert scalars and all(c.t == 0 for c in scalars)
    for c in certs:
        assert all(c.checks.values())
        assert c.checks["n_divides_c_tau_sq_t"]
        assert c.checks["u_identity"]
        if c.t:
            assert c.checks["t0_divisibility"]
            assert c.t == c.t0 * c.t1
    # non-square l gives no certificates
    assert parabolic_certify(I, 2, 1, 4, 1) == []


def test_parabolic_certify_requires_m_squared_dividing_n():
    # at N = 6, M = 2, four of the six parabolic matrices are not +-I, so
    # t != 0 for them, but there is no N/M^2 for the t0 divisibility verdict
    z = PointH(0, Fraction(1, 2))
    parabolic = classify_counts(z, 1, 1, 6, 2).parabolic
    assert sum(g.b != 0 or g.c != 0 for g in parabolic) == 4
    for l in (1, 2):
        with pytest.raises(InvalidM):
            parabolic_certify(z, l, 1, 6, 2)


def test_parabolic_example_fixed_point_zero():
    # gamma = (1 0; 4 1) fixes 0; tau = (0 1; -1 0); t = -4, t1 = 4, t0 = -1
    z = PointH(0, Fraction(1, 4))
    certs = parabolic_certify(z, 1, 1, 4, 1)
    hit = [c for c in certs if c.gamma == Mat2(1, 0, 4, 1)]
    assert len(hit) == 1
    c = hit[0]
    assert c.tau == Mat2(0, 1, -1, 0)
    assert (c.t, c.t1, c.t0, c.c_tau) == (-4, 4, -1, 1)
    # 1 * 1 / 4 <= 16 * 1 / 16
    assert c.t0**2 * 1 * 16 <= c.t**2 * 1 * 1 * 4


def test_parabolic_sweep_in_G():
    rng = random.Random(36)
    for n in (4, 9, 12, 18, 25, 36):
        m_opts = [m for m in range(1, n) if n % (m * m) == 0]
        m = rng.choice(m_opts)
        z = sample_point_in_g(n, m, rng, Fraction(1, 1))
        assert z is not None
        for l in (1, 4, 9, 16, 25):
            if l % m != 1 % m:
                continue
            for c in parabolic_certify(z, l, 1, n, m):
                assert c.checks["n_divides_c_tau_sq_t"]
                assert c.checks["u_identity"]
                if c.t:
                    assert c.checks["t0_divisibility"]


def _primes(weights: dict, lam: int) -> list[int]:
    """The amplifier's primes: the keys in (Lambda, 2 Lambda), as every
    product of two of them exceeds 2 Lambda."""
    return [l for l in weights if lam < l < 2 * lam]


def test_amplifier_weights_support():
    w = amplifier_weights(2, 1)
    assert _primes(w, 2) == [3]
    assert list(w) == [1, 3, 9, 27, 81]
    assert w[1] == Fraction(2, 1)
    assert all(w[l] == 1 for l in (3, 9, 27, 81))

    w = amplifier_weights(10, 3)
    assert _primes(w, 10) == [13, 19]
    expected = {1}
    for p in (13, 19):
        expected.add(p)
        for q in (13, 19):
            expected.update({p * q, p * q * q, p * p * q * q})
    assert list(w) == sorted(expected)
    assert w[1] == Fraction(10, 3)

    # empty prime window
    w = amplifier_weights(3, 5)
    assert _primes(w, 3) == [] and list(w) == [1]


def test_amplified_count_sum_empty_window():
    # Lambda = 3, M = 5: primes in (3, 6) are {5}, none is 1 mod 5
    z = I
    n, m, lam = 25, 5, 3
    assert is_in_G(z, n, m)
    with pytest.warns(UserWarning):  # M^2 > Lambda, envelope hypothesis only
        total, pairs = amplified_count_sum(z, lam, 1, n, m)
    assert [p[0] for p in pairs] == [1]
    count1 = classify_counts(z, 1, 1, n, m).total
    assert total == mpmath.mpf(lam) / m * count1


def test_amplified_count_sum_example():
    z = PointH(0, Fraction(1, 2))
    total, pairs = amplified_count_sum(z, 2, 1, 4, 1)
    assert [p[0] for p in pairs] == [1, 3, 9, 27, 81]
    manual = mpmath.mpf(0)
    for l, yl, cnt in pairs:
        assert cnt == classify_counts(z, l, 1, 4, 1).total
        manual += mpmath.mpf(yl.numerator) / yl.denominator * cnt / mpmath.sqrt(l)
    assert mpmath.almosteq(mpmath.mpf(str(total)), manual)


def test_amplified_count_sum_preconditions():
    with pytest.warns(UserWarning):
        amplified_count_sum(I, 3, 1, 4, 2)  # M^2 > Lambda
    with pytest.warns(UserWarning):
        amplified_count_sum(PointH(Fraction(1, 7), Fraction(1, 90)), 4, 1, 4, 1)


def test_bound_rhs_examples():
    v = bound_rhs_ampl(4, 1, 2, Fraction(1, 2))
    expected = 2 + 4 + 2 ** mpmath.mpf("2.5") / 2 + 4
    assert mpmath.almosteq(mpmath.mpf(str(v)), expected)
    assert abs(float(v) - 12.828) < 0.01
    v = bound_rhs_ampl(64, 2, 4, Fraction(1, 8))
    assert mpmath.almosteq(mpmath.mpf(str(v)), 7)
    # positivity of every term
    assert bound_rhs_ampl(9, 3, 9, Fraction(1, 1000)) > 3
    with pytest.raises(InvalidM):
        bound_rhs_ampl(8, 3, 9, 1)


def test_budget_exceeded(monkeypatch):
    monkeypatch.setattr(counting, "C_BUDGET", 1000)
    z = PointH(0, Fraction(1, 10**9))
    with pytest.raises(BudgetExceeded):
        enumerate_delta_near(z, 1, 1, 1, 1)
    with pytest.raises(BudgetExceeded):
        count_delta_near(z, 1, 1, 1, 1)
    # the budget reads 2 (c_max // N), c_max the largest c with
    # c^2 y^2 <= l Kbar, Kbar = 2 + 4 delta; here c^2 y^2 = l Kbar at c = 150
    z, l, delta, n = PointH(Fraction(1, 3), Fraction(1, 50)), 3, Fraction(1, 4), 3
    bound = l * (2 + 4 * delta) / (z.y * z.y)
    c_max = isqrt(bound.numerator // bound.denominator)
    assert c_max == 150
    monkeypatch.setattr(counting, "C_BUDGET", 2 * (c_max // n))
    assert count_delta_near(z, l, delta, n, 1) == len(enumerate_delta_near(z, l, delta, n, 1))
    monkeypatch.setattr(counting, "C_BUDGET", 2 * (c_max // n) - 1)
    with pytest.raises(BudgetExceeded):
        count_delta_near(z, l, delta, n, 1)


# -- the closed-form windows against the definitions ------------------------

DELTAS = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2))
PAIRS_CAP = 3000  # keeps l * Kbar / (N y), the size of the (c, d) window, small


def _window_size(z: PointH, l: int, delta: Fraction, n: int) -> Fraction:
    return l * (2 + 4 * delta) / (n * z.y)


@st.composite
def kernel_cases(draw):
    """(z, l, delta, N, M) with y down to 1/64, l up to 2500 and M > 1 allowed
    (M need not divide N for the enumeration to make sense)."""
    n = draw(st.integers(1, 36))
    m = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    delta = draw(st.sampled_from(DELTAS))
    x = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 17)))
    y = Fraction(draw(st.integers(1, 48)), draw(st.integers(1, 64)))
    z = PointH(x, y)
    l_max = max(1, min(2500, int(PAIRS_CAP / _window_size(z, 1, delta, n))))
    l = draw(st.one_of(st.integers(1, min(l_max, 30)), st.integers(1, l_max)))
    return z, l, delta, n, m


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_count_equals_len_enumerate_and_matrices_are_exact(case):
    z, l, delta, n, m = case
    mats = enumerate_delta_near(z, l, delta, n, m)
    assert count_delta_near(z, l, delta, n, m) == len(mats)
    keys = [(g.c, g.a, g.d, g.b) for g in mats]
    assert keys == sorted(set(keys))
    for g in mats:
        # decided from the definitions, sharing no code with the windows
        assert delta_member(g, l, n, m)
        assert point_pair_u(mobius_act(g, z), z) <= delta


@st.composite
def stratum_cases(draw):
    """kernel_cases, with l replaced by a square k^2 <= l half of the time so
    that parabolic matrices (tr^2 = 4l) occur in both strata."""
    z, l, delta, n, m = draw(kernel_cases())
    if draw(st.booleans()):
        l = draw(st.integers(1, isqrt(l))) ** 2
    return z, l, delta, n, m


@settings(max_examples=150, deadline=None)
@given(stratum_cases())
def test_stratum_counts_split_the_enumeration(case):
    # the split is read off the matrices' entries, not through classify_counts
    z, l, delta, n, m = case
    mats = enumerate_delta_near(z, l, delta, n, m)
    rest = [g for g in mats if (g.a + g.d) ** 2 != 4 * l]
    assert count_star(z, l, delta, n, m) == sum(g.c != 0 for g in rest)
    assert count_upper(z, l, delta, n, m) == sum(g.c == 0 for g in rest)


def test_parabolic_hit_in_a_c_window_is_not_in_n_star():
    # (1, 0; 1, 1) maps i to (1 + i)/2, so u = 1/4; it shares the window
    # (c, d) = (1, 1), a in [0, 1] with the generic (0, -1; 1, 1)
    gamma = Mat2(1, 0, 1, 1)
    assert point_pair_u(mobius_act(gamma, I), I) == Fraction(1, 4)
    mats = enumerate_delta_near(I, 1, 1, 1, 1)
    assert gamma in mats and Mat2(0, -1, 1, 1) in mats
    assert sum(g.c != 0 and g.trace**2 != 4 for g in mats) == 10
    assert count_star(I, 1, 1, 1, 1) == 10
    assert count_upper(I, 1, 1, 1, 1) == 0
    assert count_delta_near(I, 1, 1, 1, 1) == 36  # 26 of them parabolic


# the points z = x/7 + 3i/yd of the boundary test, |x| <= 20 and 1 <= yd <= 12
BOUNDARY_POINTS = [
    PointH(Fraction(x, 7), Fraction(3, yd)) for x in range(-20, 21) for yd in range(1, 13)
]


@st.composite
def boundary_cases(draw):
    """(gamma, z, l, N, M) with gamma = (a, b; c, d) in Delta(l, N; M), l >= 1,
    and z in BOUNDARY_POINTS with the window of (z, l, u(gamma z, z), N) at
    most PAIRS_CAP, valid by construction: a = 1 + M a0 and c = N c0, then d,
    then b with b c <= a d - 1 (b from [-6, 6] where that range allows one),
    then the first point whose window fits, going round from a drawn start.
    For every such gamma some point's window has under 240 pairs."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    a = 1 + m * draw(st.integers(-6, 6))
    c0s = range(-6, 7) if a else [k for k in range(-6, 7) if k]  # a = c = 0: det 0
    c = n * draw(st.sampled_from(c0s))
    if c == 0:  # l = a d: d takes the sign of a
        d = (1 if a > 0 else -1) * draw(st.integers(1, 6))
        b = draw(st.integers(-6, 6))
    else:  # sign(c) b <= (a d - 1) // |c|
        d = draw(st.integers(-6, 6))
        hi = (a * d - 1) // abs(c)
        b = (1 if c > 0 else -1) * draw(st.integers(min(-6, hi), min(6, hi)))
    gamma = Mat2(a, b, c, d)
    l = a * d - b * c
    start = draw(st.integers(0, len(BOUNDARY_POINTS) - 1))
    z = next(
        z for z in BOUNDARY_POINTS[start:] + BOUNDARY_POINTS[:start]
        if _window_size(z, l, point_pair_u(mobius_act(gamma, z), z), n) <= PAIRS_CAP
    )
    return gamma, z, l, n, m


@settings(max_examples=150, deadline=None)
@given(boundary_cases())
def test_matrix_on_the_boundary_is_counted(case):
    # delta = u(gamma z, z) puts gamma exactly on the boundary of its window
    gamma, z, l, n, m = case
    assert l >= 1 and delta_member(gamma, l, n, m)
    delta = point_pair_u(mobius_act(gamma, z), z)
    mats = enumerate_delta_near(z, l, delta, n, m)
    assert gamma in mats
    assert count_delta_near(z, l, delta, n, m) == len(mats)
    n_p = sum((g.a + g.d) ** 2 == 4 * l for g in mats)
    assert (
        count_star(z, l, delta, n, m) + count_upper(z, l, delta, n, m) + n_p
        == count_delta_near(z, l, delta, n, m)
    )


def _gamma0_element(n: int, m: int, word: list[tuple[int, int]], unit: int) -> Mat2:
    """T^t and lower N-shears in the order given, times the diagonal-type
    unit (u, k; N, d0) with u == 1 (mod M) when u is prime to N."""
    g = Mat2.identity()
    for t, j in word:
        g = g * Mat2(1, t, 0, 1) * Mat2(1, 0, n * j, 1)
    u = 1 + m * unit
    if n > 1 and gcd(u, n) == 1:
        d0 = pow(u, -1, n)
        g = g * Mat2(u, (u * d0 - 1) // n, n, d0)
    return g


@settings(max_examples=80, deadline=None)
@given(
    kernel_cases(),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), min_size=1, max_size=3),
    st.integers(-2, 2),
)
def test_count_invariant_under_gamma0(case, word, unit):
    # gamma -> g0^-1 gamma g0 maps Delta(l, N; M) onto itself and u is
    # SL2(R)-invariant, so N(g0 z) = N(z) for g0 in Gamma0(N; M), the
    # T-translations included; only the total is invariant, not the
    # c = 0 / c != 0 split
    z, l, delta, n, m = case
    if n % m:
        m = 1
    g0 = _gamma0_element(n, m, word, unit)
    assert g0.det == 1 and g0.c % n == 0 and (g0.a - 1) % m == 0
    w = mobius_act(g0, z)
    assume(_window_size(w, 1, delta, n) <= PAIRS_CAP)
    l = min(l, int(PAIRS_CAP / _window_size(w, 1, delta, n)))
    assert count_delta_near(w, l, delta, n, m) == count_delta_near(z, l, delta, n, m)


def test_parabolic_count_invariant_under_gamma0_example():
    # trace is a conjugation invariant, so n_p(g0 z) = n_p(z); the c = 0 /
    # c != 0 split of the rest is not, and here it moves
    z = PointH(Fraction(-6, 5), Fraction(1, 2))
    g0 = Mat2(1, 0, 4, 1)
    at_z = classify_counts(z, 4, 1, 4, 1)
    at_w = classify_counts(mobius_act(g0, z), 4, 1, 4, 1)
    assert (at_z.n_star, at_z.n_u, at_z.n_p) == (42, 8, 18)
    assert (at_w.n_star, at_w.n_u, at_w.n_p) == (50, 0, 18)
    assert any(g.c != 0 for g in at_z.parabolic)


@settings(max_examples=80, deadline=None)
@given(
    kernel_cases(),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), min_size=1, max_size=3),
    st.integers(-2, 2),
)
def test_parabolic_count_invariant_under_gamma0(case, word, unit):
    # l is made a square, so that s * I and its conjugates make n_p > 0
    z, l, delta, n, m = case
    if n % m:
        m = 1
    g0 = _gamma0_element(n, m, word, unit)
    w = mobius_act(g0, z)
    assume(_window_size(w, 1, delta, n) <= PAIRS_CAP)
    l = min(l, int(PAIRS_CAP / _window_size(w, 1, delta, n)))
    l = isqrt(l) ** 2
    moved = classify_counts(w, l, delta, n, m)
    assert moved.n_p == classify_counts(z, l, delta, n, m).n_p


# -- the windows against SL2(Z) \ M_l, for l up to 48 (300 in examples) ------

HERMITE_PAIRS_CAP = 20_000  # at most about 50 ms of kernel time per case
# the points of the boundary cases: y from 3 down to 1/1000
HERMITE_POINTS = [
    PointH(Fraction(x, 7), Fraction(3, yd))
    for x in range(-20, 21)
    for yd in (1, 2, 3, 4, 6, 12, 30, 300, 3000)
]


@st.composite
def hermite_cases(draw):
    """(z, l, delta, N, M) with l <= 48, N <= 24, M <= 6 and y down to
    1/1000, the window l Kbar / (N y) at most HERMITE_PAIRS_CAP (l = 1 always
    fits).  Half of them are boundary cases: gamma = (a, b; c, d) in
    Delta(l, N; M) is built here, a = 1 + M a0, c = N c0 with |c0| <= 2,
    then d, then b with 1 <= l <= 48, and delta = u(gamma z, z) at the first
    point of HERMITE_POINTS whose window fits, going round from a drawn
    start."""
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        delta = draw(st.sampled_from(DELTAS))
        x = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 17)))
        z = PointH(x, Fraction(draw(st.integers(1, 48)), draw(st.integers(1, 1000))))
        l_max = min(48, int(HERMITE_PAIRS_CAP / _window_size(z, 1, delta, n)))
        return z, draw(st.integers(1, l_max)), delta, n, m
    a = 1 + m * draw(st.integers(-3, 3))
    c = n * draw(st.sampled_from([-2, -1, 1, 2] if a == 0 else [-2, -1, 0, 1, 2]))
    if c == 0:  # l = a d: d takes the sign of a
        d = (1 if a > 0 else -1) * draw(st.integers(1, 48 // abs(a)))
        b = draw(st.integers(-6, 6))
    else:  # 1 <= a d - b c <= 48, which some b meets as |c| <= 48
        d = draw(st.integers(-4, 4))
        b = (1 if c > 0 else -1) * draw(
            st.integers(-((48 - a * d) // abs(c)), (a * d - 1) // abs(c))
        )
    gamma = Mat2(a, b, c, d)
    l = a * d - b * c
    start = draw(st.integers(0, len(HERMITE_POINTS) - 1))
    for z in HERMITE_POINTS[start:] + HERMITE_POINTS[:start]:
        delta = point_pair_u(fraction_mobius_act(gamma, z), z)
        if delta <= 8 and _window_size(z, l, delta, n) <= HERMITE_PAIRS_CAP:
            return z, l, delta, n, m
    assume(False)  # no point fits gamma's window


@settings(max_examples=200, deadline=None)
@given(hermite_cases())
@example((PointH(Fraction(1, 3), Fraction(1, 1000)), 48, Fraction(1), 24, 6))
@example((PointH(Fraction(-2, 7), Fraction(1, 1000)), 36, Fraction(5, 2), 24, 3))
@example((PointH(Fraction(1, 5), Fraction(1, 2)), 48, Fraction(5, 2), 4, 5))
# l past the draws' 48, up to 300
@example((PointH(Fraction(1, 3), Fraction(1, 2)), 289, Fraction(1), 17, 1))
@example((PointH(Fraction(-2, 7), Fraction(1, 5)), 300, Fraction(5, 2), 12, 1))
@example((PointH(Fraction(1, 5), Fraction(1, 3)), 289, Fraction(1), 36, 6))
@example((PointH(Fraction(2, 7), Fraction(1, 30)), 241, Fraction(1), 24, 2))
def test_windows_agree_with_the_hermite_oracle(case):
    # every gamma of u(gamma z, z) <= delta, also those on the boundary,
    # found as g h over the Hermite matrices h, not from (c, d) windows
    z, l, delta, n, m = case
    got = sorted(g.entries() for g in enumerate_delta_near(z, l, delta, n, m))
    assert got == hermite_delta_near(z, l, delta, n, m), case


# -- the half scan: gamma -> eps adj(gamma) when M | N, l == eps (mod M) ------


def _mirror(g: tuple, eps: int) -> tuple:
    """eps adj(gamma) for gamma = (a, b, c, d)."""
    a, b, c, d = g
    return (eps * d, -eps * b, -eps * c, eps * a)


@st.composite
def mirror_cases(draw):
    """(z, l, delta, N, M, gamma) with M | N <= 24 and l == +-1 (mod M),
    where the c != 0 windows are scanned by half.  A third are free draws of
    l <= 48 (a square half of the time) with gamma None; the rest are
    boundary cases, delta = u(gamma z, z) at the first point of
    HERMITE_POINTS whose window fits, for gamma in Delta(l, N; M) with
    c != 0 and trace 0 (a = 1 + M a0, d = -a, so l == -1 (mod M)) or trace
    2s, s == 1 (mod M), l = s^2 (gamma = s I + k (xy, -x^2; y^2, -xy) with
    N | k)."""
    m = draw(st.sampled_from([1, 2, 2, 3, 4, 6]))
    n = m * draw(st.integers(1, 24 // m))
    kind = draw(st.sampled_from(["free", "trace0", "parabolic"]))
    if kind == "free":
        delta = draw(st.sampled_from(DELTAS))
        x = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 17)))
        z = PointH(x, Fraction(draw(st.integers(1, 48)), draw(st.integers(1, 1000))))
        l_max = min(48, int(HERMITE_PAIRS_CAP / _window_size(z, 1, delta, n)))
        ls = [l for l in range(1, l_max + 1) if (l - 1) % m == 0 or (l + 1) % m == 0]
        if draw(st.booleans()):
            ls = [l for l in ls if isqrt(l) ** 2 == l]
        return z, draw(st.sampled_from(ls)), delta, n, m, None
    c = n * draw(st.sampled_from([-2, -1, 1, 2]))
    if kind == "trace0":  # l = -a^2 - b c, 1 <= l <= 48
        a = 1 + m * draw(st.integers(-2, 2))
        lo, hi = -((-a * a - 1) // abs(c)), (48 + a * a) // abs(c)
        assume(lo <= hi)
        gamma = Mat2(a, -(1 if c > 0 else -1) * draw(st.integers(lo, hi)), c, -a)
    else:
        s = 1 + m * draw(st.sampled_from([-2, -1, 0, 1]))
        assume(s != 0 and s * s <= 49)
        x, y = draw(st.integers(-2, 2)), draw(st.integers(1, 2))
        gamma = Mat2(s + c * x * y, -c * x * x, c * y * y, s - c * x * y)
    l = gamma.det
    start = draw(st.integers(0, len(HERMITE_POINTS) - 1))
    for z in HERMITE_POINTS[start:] + HERMITE_POINTS[:start]:
        delta = point_pair_u(fraction_mobius_act(gamma, z), z)
        if delta <= 8 and _window_size(z, l, delta, n) <= HERMITE_PAIRS_CAP:
            return z, l, delta, n, m, gamma
    assume(False)  # no point fits gamma's window


@settings(max_examples=150, deadline=None)
@given(mirror_cases())
@example((I, 1, Fraction(5, 4), 2, 2, Mat2(1, -1, 2, -1)))  # M | 2, trace 0
@example((I, 9, Fraction(5, 2), 3, 3, None))  # l == 0 (mod 3): a full scan
def test_half_scan_agrees_with_the_hermite_oracle(case):
    z, l, delta, n, m, gamma = case
    got = sorted(g.entries() for g in enumerate_delta_near(z, l, delta, n, m))
    assert got == hermite_delta_near(z, l, delta, n, m), case
    assert gamma is None or (delta_member(gamma, l, n, m) and gamma.entries() in got)
    eps = 1 if (l - 1) % m == 0 else -1 if (l + 1) % m == 0 else 0
    if n % m == 0 and eps:
        assert {_mirror(g, eps) for g in got} == set(got)
        # the c != 0 windows hold only the hits of trace >= 0 of their c > 0 matrix
        cl = counting._cleared(z, l, delta, n, m)
        for c, d, hits in counting._lower_windows(cl):
            assert all((a + d) * c >= 0 for a in hits)
    n_p = sum((a + d) ** 2 == 4 * l for a, _b, _c, d in got)
    total = count_delta_near(z, l, delta, n, m)
    assert total == len(got)
    assert count_star(z, l, delta, n, m) + count_upper(z, l, delta, n, m) + n_p == total
