import hashlib
import json
import random
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspnorm import conjugation
from cuspnorm.arith import factor, valuation
from cuspnorm.conjugation import (
    _first_column_candidates,
    atkin_lehner_matrix,
    gap_reduce,
    is_in_G,
    verify_gap_certificate,
    verify_gap_provable,
    width_one_conjugate,
)
from cuspnorm.cusps import cusp_denominator
from cuspnorm.errors import BudgetExceeded, InvalidM, InvalidPrimeSet, NotUnimodular
from cuspnorm.modgroup import Mat2, PointH, complete_first_column, fd_reduce, mobius_act
from oracles import (
    first_column_columns,
    fraction_json,
    fraction_mobius_act,
    fraction_shift,
    fraction_sigma,
    gap_sweep_points,
    lattice_floor_pairs,
    lattice_floor_verdict,
    mat2_gamma0nm_word,
    rand_fraction,
    rand_point,
    rand_sl2,
    seeded_rng,
    w_squared_in_center_gamma0,
)


def shift_of(cert):
    """The certificate shift n = n_shift / n_den as four Fractions."""
    return tuple(Fraction(e, cert.n_den) for e in cert.n_shift.entries())


def all_prime_subsets(n):
    primes = [p for p, _ in factor(n)]
    subsets = [set()]
    for p in primes:
        subsets += [s | {p} for s in subsets]
    return subsets


def test_atkin_lehner_examples():
    assert atkin_lehner_matrix(4, set()).w == Mat2.identity()
    op = atkin_lehner_matrix(4, {2})
    assert op.w == Mat2(4, 3, 4, 4) and op.w.det == 4
    op = atkin_lehner_matrix(12, {3})
    assert op.w == Mat2(9, 2, 12, 3) and op.w.det == 3
    with pytest.raises(InvalidPrimeSet):
        atkin_lehner_matrix(12, {5})


def test_atkin_lehner_w_squared_all_levels():
    for n in range(1, 201):
        for s in all_prime_subsets(n):
            op = atkin_lehner_matrix(n, s)
            assert w_squared_in_center_gamma0(op), (n, s)


def test_width_one_examples():
    cert = width_one_conjugate(Mat2.identity(), 4)
    assert cert.w.s_primes == set() and cert.m == 1 and cert.sigma == Mat2.identity()
    assert cert.verification["c_sigma"] == 4

    cert = width_one_conjugate(Mat2(1, 0, 2, 1), 4)
    assert cert.w.s_primes == set() and cert.m == 2
    assert gcd(cert.sigma.c, 4) == 2

    cert = width_one_conjugate(Mat2(0, -1, 1, 0), 9)
    assert cert.w.s_primes == {3} and cert.m1 == 1 and cert.m == 1
    assert cusp_denominator(cert.sigma, 9) == 9


def test_width_one_random_sweep():
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(1, 60)
        tau = rand_sl2(rng)
        cert = width_one_conjugate(tau, n)
        v = cert.verification
        assert v["c_sigma_equals_n_over_m"]
        assert v["m_squared_divides_n"]
        assert v["m1_is_gcd_m_n_s"]
        assert v["m1_squared_divides_n_s"]
        # the defining factorization holds exactly over Q
        sigma = fraction_sigma(cert.w, tau, shift_of(cert), cert.m1)
        assert sigma == cert.sigma.entries()


def test_sigma_stability_random():
    # sigma Gamma0(N;M) sigma^-1 stays in Gamma0(N;M) when C(sigma) = N/M,
    # M^2 | N; 500 random group elements per case
    rng = random.Random(22)
    cases = [(4, 2), (8, 2), (9, 3), (16, 4), (36, 6), (12, 2)]
    for n, m in cases:
        sigma = Mat2(1, 0, n // m, 1)
        for _ in range(500):
            g = mat2_gamma0nm_word(n, m, rng)
            h = sigma * g * sigma.adjugate()
            assert h.det == 1
            assert h.c % n == 0
            assert h.a % m == 1 % m and h.d % m == 1 % m


def test_conjugation_congruence_pattern():
    # closed form for sigma gamma sigma^-1 with sigma = (a, b; N c / M, d),
    # gamma = (1 + M p, q; N r, 1 + M s), det sigma = 1
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = m * m * rng.randint(1, 6)
        sigma = Mat2.identity()
        for _ in range(3):
            sigma = sigma * Mat2(1, rng.randint(-4, 4), 0, 1)
            sigma = sigma * Mat2(1, 0, (n // m) * rng.randint(-4, 4), 1)
        a, b, c, d = sigma.entries()
        c = c * m // n
        p, q, r, s = (rng.randint(-6, 6) for _ in range(4))
        gamma = Mat2(1 + m * p, q, n * r, 1 + m * s)
        lhs = sigma * gamma * sigma.adjugate()
        closed = Mat2(
            1 + m * a * d * p + n * (b * d * r - b * c * s) - (n // m) * a * c * q,
            a * a * q + b * m * (a * s - a * p - b * r * (n // m)),
            n * (d * c * p + d * d * r - c * d * s - c * c * q * (n // (m * m))),
            1 + m * a * d * s + n * (-b * d * r - b * c * p) + (n // m) * a * c * q,
        )
        assert lhs == closed


def test_gap_reduce_examples():
    cert = gap_reduce(PointH(0, 2), 4)
    assert cert.m == 1 and cert.sigma == Mat2.identity()
    assert cert.z_prime == PointH(0, 2)
    assert cert.verification["y_bound_ok"] and cert.verification["lattice_ok"]

    cert = gap_reduce(PointH(0, Fraction(1, 2)), 1)
    assert cert.z_prime == PointH(0, 2) and cert.m == 1

    cert = gap_reduce(PointH(Fraction(1, 2), Fraction(1, 4)), 4)
    v = cert.verification
    assert v["y_bound_ok"] and v["lattice_ok"] and v["scale_identity_ok"]


def test_gap_reduce_random_soundness():
    rng = random.Random(24)
    methods = set()
    for _ in range(120):
        n = rng.randint(1, 40)
        z = rand_point(rng, den_max=32)
        cert = gap_reduce(z, n)
        v = cert.verification
        assert v["y_bound_ok"] and v["lattice_ok"]
        methods.add(cert.method)
        if cert.method == "construction":
            assert v["scale_identity_ok"]
        # z' really is sigma^-1 W z, and sigma factors through (W, tau, n)
        g = cert.sigma.adjugate() * cert.w.w
        assert mobius_act(g, z) == cert.z_prime
        sigma = fraction_sigma(cert.w, cert.tau, shift_of(cert), cert.m1)
        assert sigma == cert.sigma.entries()
    # the sweep must exercise both the construction and the fallback
    assert methods == {"construction", "search"}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 48), st.integers(-64, 64), st.integers(1, 64), st.integers(1, 32))
@example(8, -50, 1, 4)  # construction with M1 = 2: n = (1, 1/2; 0, 1)
@example(8, -64, 2, 19)  # search over N_S = 8 with n = (0, 1; -1, -3/2)
def test_certificates_match_fraction_products(n, x_num, y_num, den):
    # sigma is formed on integers and the search shift through adjugates;
    # both agree with the Fraction products they replace, and every matrix
    # of a certificate holds ints
    z = PointH(Fraction(x_num, den), Fraction(y_num, den))
    tau, _z0 = fd_reduce(z)
    built = width_one_conjugate(tau, n)
    assert built.n_den == built.m1
    assert built.n_shift.c == 0 and built.n_shift.a == built.n_shift.d == built.m1
    cert = gap_reduce(z, n)
    if cert.method == "search":
        assert cert.n_den == cert.w.n_s
    for c in (built, cert):
        for g in (c.tau, c.w.w, c.sigma, c.n_shift):
            assert all(type(e) is int for e in g.entries())
        assert fraction_sigma(c.w, c.tau, shift_of(c), c.m1) == c.sigma.entries()
        oracle = fraction_shift(c.tau, c.w, c.sigma, c.m1)
        assert shift_of(c) == oracle
        assert c.to_json()["n"] == fraction_json(oracle)


def test_verify_gap_examples():
    v = verify_gap_certificate(PointH(0, 1), 1, 1)
    assert v.passed and v.worst_pair == (0, 1) and v.min_lhs == 1
    assert v.bound_at_worst == Fraction(3, 4)
    assert verify_gap_certificate(PointH(0, 2), 4, 1).passed
    v = verify_gap_certificate(PointH(0, Fraction(1, 10)), 4, 2)
    assert not v.passed and v.worst_pair == (1, 0)
    assert v.min_lhs == Fraction(1, 100)
    with pytest.raises(InvalidM):
        verify_gap_certificate(PointH(0, 1), 8, 3)


VERIFIERS = {1: verify_gap_certificate, 2: verify_gap_provable}


def _same_verdict(z, n, m, k):
    verdict = VERIFIERS[k](z, n, m)
    oracle = lattice_floor_verdict(z, n, m, k)
    assert verdict == oracle
    assert verdict.to_json() == oracle.to_json()


def _least_margin_pairs(z, n, m, k):
    margins = [
        (pair, lhs - bound) for pair, lhs, bound in lattice_floor_pairs(z, n, m, k)
    ]
    least = min(margin for _pair, margin in margins)
    return least, [pair for pair, margin in margins if margin == least]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 48),
    st.integers(-64, 64),
    st.integers(1, 64),
    st.integers(1, 32),
    st.sampled_from((1, 2)),
    st.data(),
)
def test_lattice_floor_matches_fraction_oracle(n, x_num, y_num, den, k, data):
    m = data.draw(st.sampled_from([m for m in range(1, n + 1) if n % m**2 == 0]))
    _same_verdict(PointH(Fraction(x_num, den), Fraction(y_num, den)), n, m, k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(-64, 64),
    st.integers(1, 64),
    st.integers(-2, 3),
    st.data(),
)
def test_is_in_G_matches_fraction_height_and_floor(n, x_num, den, offset, data):
    # y = j/den with j next to den sqrt(3) M^2 / (2N), so both sides of the
    # height floor are drawn
    m = data.draw(st.sampled_from([m for m in range(1, n + 1) if n % m**2 == 0]))
    j = max(1, isqrt(3 * (m * m * den) ** 2 // (4 * n * n)) + offset)
    z = PointH(Fraction(x_num, den), Fraction(j, den))
    height = 4 * n * n * z.y * z.y >= 3 * m**4
    assert is_in_G(z, n, m) == (height and lattice_floor_verdict(z, n, m, 1).passed)


@pytest.mark.parametrize("n, m, x, y", [
    (3, 1, Fraction(0), Fraction(1, 2)),
    (9, 1, Fraction(1, 3), Fraction(1, 6)),
    (27, 3, Fraction(0), Fraction(1, 2)),
    (36, 2, Fraction(1, 3), Fraction(1, 6)),
])
def test_lattice_floor_exact_zero_margin(n, m, x, y):
    # |c z + d|^2 meets the target floor exactly: the verdict passes at 0
    z = PointH(x, y)
    assert _least_margin_pairs(z, n, m, 1)[0] == 0
    v = verify_gap_certificate(z, n, m)
    assert v.passed and v.min_margin == 0 and v.min_lhs == v.bound_at_worst
    for k in (1, 2):
        _same_verdict(z, n, m, k)


@pytest.mark.parametrize("n, m, x, y, tied", [
    (1, 1, Fraction(1, 2), Fraction(1, 2), [(1, -1), (1, 0)]),
    (1, 1, Fraction(2, 5), Fraction(1, 5), [(1, 0), (2, -1)]),
    (2, 1, Fraction(1, 4), Fraction(1, 4), [(1, 0), (2, -1), (2, 0)]),
    (4, 2, Fraction(2, 5), Fraction(1, 5), [(1, 0), (2, -1)]),
    (2, 1, Fraction(1, 4), Fraction(1, 5), [(2, -1), (2, 0)]),
])
def test_lattice_floor_tied_minimum(n, m, x, y, tied):
    # several pairs share the least margin: the first in scan order is
    # worst; in the last case they tie inside the row c = 2, at the two d
    # nearest -c x', and the lesser d is the worst pair
    z = PointH(x, y)
    assert _least_margin_pairs(z, n, m, 1)[1] == tied
    assert verify_gap_certificate(z, n, m).worst_pair == tied[0]
    for k in (1, 2):
        _same_verdict(z, n, m, k)


def test_passed_target_floor_decides_the_provable_floor():
    # gap_reduce scans the provable floor only when the target floor fails
    for n, z in gap_sweep_points(12):
        cert = gap_reduce(z, n)
        zp = cert.z_prime
        provable = verify_gap_provable(zp, n, cert.m).passed
        assert cert.verification["lattice_provable_ok"] == provable
        for m in (m for m in range(1, n + 1) if n % (m * m) == 0):
            for point in (z, zp):
                if verify_gap_certificate(point, n, m).passed:
                    assert verify_gap_provable(point, n, m).passed


def _direct_scan_passes(z, n, m, k):
    """No pair (c, d) != 0 with |c| <= 30, |d| <= 65 has
    |c z + d|^2 < 3 (M^2 gcd(c, N/M^2))^k / (4 N^k), decided on the triple
    z = (px + i py)/q: 4 N^k ((c px + d q)^2 + (c py)^2) < 3 (M^2 g)^k q^2."""
    px, py, q = z.px, z.py, z.q
    n_over_m2 = n // (m * m)
    for c in range(-30, 31):
        rhs = 3 * (m * m * gcd(c, n_over_m2)) ** k * q * q  # gcd(0, x) = x
        cy2 = (c * py) ** 2
        ds = (d for d in range(-65, 66) if c or d)
        if any(4 * n**k * ((c * px + d * q) ** 2 + cy2) < rhs for d in ds):
            return False
    return True


def test_verify_gap_agrees_with_direct_scan():
    # both floors against a wide direct scan of pairs
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 30)
        ms = [m for m in range(1, n + 1) if n % (m * m) == 0]
        m = rng.choice(ms)
        z = rand_point(rng, den_max=16)  # y >= 1/16 keeps violators inside the scan
        for k, verify in VERIFIERS.items():
            assert verify(z, n, m).passed == _direct_scan_passes(z, n, m, k), (z, n, m, k)


def test_not_unimodular_rejected():
    with pytest.raises(NotUnimodular):
        width_one_conjugate(Mat2(2, 0, 0, 1), 4)


CERTIFIED_COUNTEREXAMPLES = [
    (4, PointH(Fraction(3, 5), Fraction(1, 4))),
    (8, PointH(Fraction(-1, 3), Fraction(5, 39))),
]


def test_gap_target_floor_counterexample_is_honest():
    # At these points no (M, S, W, sigma) meets the target lattice floor
    # (independently certified by exhaustive scans); the pipeline must
    # report the failure rather than mask it, while the weaker floor that
    # the construction actually guarantees still holds.
    for n, z in CERTIFIED_COUNTEREXAMPLES:
        cert = gap_reduce(z, n)
        v = cert.verification
        assert not v["lattice_ok"]
        assert v["y_bound_ok"]
        assert v["lattice_provable_ok"]


CONSTRUCTION_KEYS = [
    "sigma_in_sl2", "c_sigma", "c_sigma_equals_n_over_m", "m_squared_divides_n",
    "m1_is_gcd_m_n_s", "m1_squared_divides_n_s", "y_bound_ok", "scale_identity_ok",
    "lattice", "lattice_ok", "lattice_provable_ok",
]


def test_provable_floor_is_scanned_only_where_it_is_returned(monkeypatch):
    # gap_reduce scans the provable floor once per returned certificate
    # whose target floor fails, and for no discarded candidate; the key
    # stays last in verification either way
    calls = []
    real = conjugation.verify_gap_provable

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conjugation, "verify_gap_provable", counted)
    points = [*gap_sweep_points(12), *CERTIFIED_COUNTEREXAMPLES]
    failing = 0
    for n, z in points:
        cert = gap_reduce(z, n)
        v = cert.verification
        keys = [k for k in CONSTRUCTION_KEYS
                if cert.method == "construction" or k != "scale_identity_ok"]
        assert list(v) == keys, (n, z)
        if not v["lattice_ok"]:
            failing += 1
            assert calls[-1] == (cert.z_prime, n, cert.m)
    assert len(calls) == failing >= len(CERTIFIED_COUNTEREXAMPLES)
    # _checked itself records no provable verdict when the target fails
    for n, z in CERTIFIED_COUNTEREXAMPLES:
        tau, z0 = fd_reduce(z)
        cert = width_one_conjugate(tau, n)
        assert not conjugation._checked(cert, z, z0)
        assert list(cert.verification) == CONSTRUCTION_KEYS[:-1]
    assert len(calls) == failing


def test_search_certificates_recompute_postconditions():
    # C3 points with N <= 12: each search certificate's claims, recomputed
    # here from the definitions; only construction certificates carry the
    # scale identity.  One rule returns every certificate: each check it
    # records holds, save for a construction returned after the search
    # found nothing, whose target lattice floor fails.
    searched = failed = 0
    for n, z in gap_sweep_points(12):
        cert = gap_reduce(z, n)
        v = cert.verification
        if cert.method == "construction" and not v["lattice_ok"]:
            failed += 1
            assert [k for k, ok in v.items() if ok is False] == ["lattice_ok"], (n, z)
        else:
            assert conjugation._all_hold(v), (n, z)
        if cert.method == "construction":
            assert v["scale_identity_ok"] is True
            continue
        searched += 1
        assert "scale_identity_ok" not in v
        sigma, m, m1, n_s = cert.sigma, cert.m, cert.m1, cert.w.n_s
        assert sigma.det == 1 and v["sigma_in_sl2"]
        assert v["c_sigma"] == gcd(int(sigma.c), n) == n // m
        assert v["c_sigma_equals_n_over_m"]
        assert n % (m * m) == 0 and v["m_squared_divides_n"]
        assert m1 == gcd(m, n_s) and v["m1_is_gcd_m_n_s"]
        assert n_s % (m1 * m1) == 0 and v["m1_squared_divides_n_s"]
        assert n_s == prod(p ** valuation(n, p) for p in cert.w.s_primes)
    assert searched > 0 and failed > 0


def _square_divisor_ms(n):
    """Every M with M^2 | N, that is every M | N0."""
    return [m for m in range(1, isqrt(n) + 1) if n % (m * m) == 0]


def test_m1_squared_divides_n_s_at_every_search_pair():
    # for p in S, v_p(N_S) = v_p(N) >= 2 v_p(M), so M1 = gcd(M, N_S) has
    # M1^2 | N_S at every (M, S) the search runs over
    for n in range(1, 301):
        for s in all_prime_subsets(n):
            n_s = prod(p ** valuation(n, p) for p in s)
            for m in _square_divisor_ms(n):
                m1 = gcd(m, n_s)
                assert n_s % (m1 * m1) == 0, (n, m, s)


SEARCH_POSTCONDITIONS = (
    "sigma_in_sl2", "c_sigma_equals_n_over_m", "m_squared_divides_n",
    "m1_is_gcd_m_n_s", "m1_squared_divides_n_s",
)


def _columns_meet_postconditions(w, tau, n, m, op):
    """Certify every sigma-column listed at w for (M, S) as the search
    does, assert that each certificate's postconditions hold, and return
    how many columns there were."""
    m1 = gcd(m, op.n_s)
    columns = _first_column_candidates(w, n, m)
    for a, c in columns:
        where = (n, w, m, sorted(op.s_primes), a, c)
        assert gcd(c, n) == n // m, where
        v = conjugation._certificate(
            tau, op, m, m1, Mat2.identity(), 1, complete_first_column(a, c), "search"
        ).verification
        assert all(v[k] is True for k in SEARCH_POSTCONDITIONS), where
    return len(columns)


def test_every_search_column_meets_the_postconditions():
    # gap_reduce decides a search candidate's postconditions once, in
    # _checked, with no pre-check: at the C3 points with N <= 12 that reach
    # the search, every column of every (M, S) gives a certificate whose
    # postconditions all hold
    reached = columns = 0
    for n, z in gap_sweep_points(12):
        tau, z0 = fd_reduce(z)
        if conjugation._checked(width_one_conjugate(tau, n), z, z0):
            continue
        reached += 1
        for m in _square_divisor_ms(n):
            for s in all_prime_subsets(n):
                op = atkin_lehner_matrix(n, s)
                columns += _columns_meet_postconditions(mobius_act(op.w, z), tau, n, m, op)
    assert reached > 0 and columns > reached
    # heights down to 1/(64 N^2) list columns with c >= 2N/M, where a
    # column with C(sigma) = gcd(c, N) other than N/M would fail
    rng = seeded_rng("search-postconditions")
    for _ in range(300):
        n = rng.randint(1, 60)
        m = rng.choice(_square_divisor_ms(n))
        op = atkin_lehner_matrix(n, rng.choice(all_prime_subsets(n)))
        y = Fraction(rng.randint(1, 64), rng.randint(1, 64 * n * n))
        w = PointH(rand_fraction(rng, -2, 2), y)
        _columns_meet_postconditions(w, Mat2.identity(), n, m, op)


# a C3 violator whose search runs out, over 4 M and 4 prime sets S
EXHAUSTED_SEARCH = (36, PointH(Fraction(-19, 27), Fraction(2, 27)))
# the search never runs here, but the whole space has columns at S = {},
# {5}, {2, 3}, {2, 5} and {2, 3, 5}: {5} comes before {2, 3}
THREE_PRIME_POINT = (30, PointH(Fraction(11, 6), Fraction(1, 9)))


def _search_space_by_definition(z, n):
    """(method, M, sorted S, first column of sigma) of every search
    certificate: M with M^2 | N ascending, then S by (|S|, sorted S), then
    the columns with c >= 0 at W z, each from the oracles."""
    subsets = sorted((sorted(s) for s in all_prime_subsets(n)), key=lambda s: (len(s), s))
    return [
        ("search", m, s, col)
        for m in _square_divisor_ms(n)
        for s in subsets
        for col in first_column_columns(
            fraction_mobius_act(atkin_lehner_matrix(n, set(s)).w, z), n, m)
        if col[1] >= 0
    ]


def test_search_space_is_the_search_space_in_order():
    # _search_space yields the construction, then exactly the search space
    # built here from the definitions, in the order the search reads it
    points = [*CERTIFIED_COUNTEREXAMPLES, EXHAUSTED_SEARCH, THREE_PRIME_POINT]
    for n, z in gap_sweep_points(12):
        tau, z0 = fd_reduce(z)
        if not conjugation._checked(width_one_conjugate(tau, n), z, z0):
            points.append((n, z))
    assert len(points) > 4
    for n, z in points:
        tau, _z0 = fd_reduce(z)
        first, *rest = conjugation._search_space(tau, z, n)
        assert first.to_json() == width_one_conjugate(tau, n).to_json(), (n, z)
        got = [(c.method, c.m, sorted(c.w.s_primes), (c.sigma.a, c.sigma.c)) for c in rest]
        assert got == _search_space_by_definition(z, n), (n, z)
    n, z = THREE_PRIME_POINT
    seen = [s for _method, _m, s, _col in _search_space_by_definition(z, n)]
    assert seen == [[], [5], [2, 3], [2, 5], [2, 3, 5]]


def test_search_space_builds_each_prime_set_once(monkeypatch):
    # W depends on (N, S) alone: with the level cache cleared, the first
    # gap_reduce at N = 36 builds one Atkin-Lehner operator per prime set
    # of 36, though the search visits 16 pairs (M, S), and a second call at
    # level 36 builds none; the returned JSON is pinned by its digest
    calls = []
    real = conjugation.atkin_lehner_matrix

    def counted(n, s):
        calls.append(frozenset(s))
        return real(n, s)

    monkeypatch.setattr(conjugation, "atkin_lehner_matrix", counted)
    conjugation._level.cache_clear()
    n, z = EXHAUSTED_SEARCH
    doc = gap_reduce(z, n).to_json()
    assert doc["method"] == "construction" and not doc["verification"]["lattice_ok"]
    assert sorted(calls, key=sorted) == [set(s) for s in ([], [2], [2, 3], [3])]
    calls.clear()
    assert gap_reduce(z, n).to_json() == doc
    assert gap_reduce(PointH(Fraction(1, 5), Fraction(1, 7)), n).w.level == n
    assert calls == []
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == (
        "856f22575d3b7e296070e26bad2ec4d174f0cb4b59feb20274495c0cfb37b98f")


@pytest.mark.parametrize("n", [1, 2, 30, 36, 60, 210, 1024, 729, 746496])
def test_level_record_matches_the_definitions(n):
    # the record gap_reduce reads at N: N's factorisation, every prime set
    # by (|S|, sorted S), each with the operator atkin_lehner_matrix builds
    # afresh, and every M with M^2 | N ascending
    factors, ops, ms = conjugation._level(n)
    assert list(factors) == factor(n)
    subsets = sorted((sorted(s) for s in all_prime_subsets(n)), key=lambda s: (len(s), s))
    assert [list(s) for s in ops] == subsets
    for s, op in ops.items():
        fresh = atkin_lehner_matrix(n, set(s))
        assert op.w == fresh.w and op.s_primes == fresh.s_primes, (n, s)
        assert (op.n_s, op.level) == (fresh.n_s, fresh.level), (n, s)
    assert list(ms) == [m for m in range(1, isqrt(n) + 1) if n % (m * m) == 0]


def test_points_at_one_level_share_one_operator_per_prime_set():
    # two C3 points at N = 4 that the construction certifies with S = {2}
    # hold the one operator of the level record, not two equal copies
    certs = [gap_reduce(z, n) for n, z in gap_sweep_points(4) if n == 4]
    with_s2 = [c for c in certs if c.w.s_primes == {2}]
    assert len(with_s2) >= 2
    assert with_s2[0].w is with_s2[1].w is conjugation._level(4)[1][(2,)]


def test_all_hold_reads_only_the_bool_checks():
    # c_sigma (an int) and a passing GapVerdict are skipped; one False fails
    verdict = verify_gap_certificate(PointH(0, 1), 1, 1)
    assert verdict.passed
    v = {"sigma_in_sl2": True, "c_sigma": 4, "lattice": verdict, "lattice_ok": True}
    assert conjugation._all_hold(v)
    assert not conjugation._all_hold({**v, "y_bound_ok": False})
    assert conjugation._all_hold({**v, "c_sigma": 0})  # 0 is an int, not False


def test_certificate_of_sigma_outside_sl2_fails_without_raising():
    # sigma_in_sl2 is decided before C(sigma) is read, so a sigma of
    # determinant 2 gives a certificate that no check passes, not an error
    op = atkin_lehner_matrix(4, set())
    ident = Mat2.identity()
    cert = conjugation._certificate(ident, op, 1, 1, ident, 1, Mat2(2, 0, 0, 1), "search")
    v = cert.verification
    assert v["sigma_in_sl2"] is False and v["c_sigma"] is None
    assert v["c_sigma_equals_n_over_m"] is False
    assert not conjugation._all_hold(v)
    assert cert.to_json()["verification"]["sigma_in_sl2"] is False


def test_first_column_candidates_never_truncate(monkeypatch):
    # y = 1/50 is below the floor sqrt(3)/2, so (1, 0) is not listed; the
    # oracle's two columns are one pair +-(a, c), listed once
    w = PointH(Fraction(1, 3), Fraction(1, 50))
    full = _first_column_candidates(w, 1, 1)
    assert len(first_column_columns(w, 1, 1)) == 2
    assert len(full) == 1 and (1, 0) not in full
    monkeypatch.setattr(conjugation, "CANDIDATE_BUDGET", 1)
    assert _first_column_candidates(w, 1, 1) == full
    monkeypatch.setattr(conjugation, "CANDIDATE_BUDGET", 0)
    with pytest.raises(BudgetExceeded):
        _first_column_candidates(w, 1, 1)


def test_gap_provable_floor_random_sweep():
    # the corrected floor |c z' + d|^2 >= 3 M^4 gcd(c, N/M^2)^2 / (4 N^2)
    # holds for every constructed certificate
    rng = random.Random(26)
    for _ in range(200):
        n = rng.randint(1, 60)
        z = rand_point(rng, den_max=48)
        tau, _z0 = fd_reduce(z)
        cert = width_one_conjugate(tau, n)
        zp = mobius_act(cert.sigma.adjugate() * cert.w.w, z)
        assert verify_gap_provable(zp, n, cert.m).passed
        assert zp.y * zp.y * 4 * n * n >= 3 * cert.m**4


def _assert_candidates_match_oracle(w, n, m):
    # the list is the oracle's (1, 0), if any, then its columns with c > 0,
    # and every oracle column with c < 0 is the negation of a listed one
    cols = first_column_columns(w, n, m)
    listed = _first_column_candidates(w, n, m)
    assert listed == [(a, c) for a, c in cols if c >= 0], (w, n, m)
    assert all((-a, -c) in listed for a, c in cols if c < 0), (w, n, m)


def test_first_column_candidates_are_exactly_the_admissible_columns():
    # the counterexample to the old 6/5 over-cover: (-3, 2) gives height
    # 1083/1292 < sqrt(3)/2 at N = M = 1 and must not be listed
    w = PointH(Fraction(-31, 19), Fraction(3, 38))
    _assert_candidates_match_oracle(w, 1, 1)
    assert (-3, 2) not in _first_column_candidates(w, 1, 1)
    # y = 3/38 is below sqrt(3)/2 too, so sigma = 1 is not a candidate; at
    # y = 1 it is, and it comes first
    assert (1, 0) not in _first_column_candidates(w, 1, 1)
    assert _first_column_candidates(PointH(0, 1), 1, 1)[0] == (1, 0)
    # heights down to 1/(64 N^2), where columns with c != 0 exist: about
    # half of these points have one
    rng = seeded_rng("first-columns")
    for _ in range(300):
        n = rng.randint(1, 60)
        m = rng.choice([m for m in range(1, 8) if n % (m * m) == 0])
        y = Fraction(rng.randint(1, 64), rng.randint(1, 64 * n * n))
        w = PointH(rand_fraction(rng, -2, 2), y)
        _assert_candidates_match_oracle(w, n, m)
