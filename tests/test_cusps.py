import random
from fractions import Fraction
from math import gcd, prod

import pytest

from cuspnorm.arith import divisors, factor, valuation
from cuspnorm.cusps import (
    cusp_denominator,
    cusp_width,
    doublecoset_normal_form,
    enumerate_cusps,
    local_profile,
)
from cuspnorm.errors import NotUnimodular
from cuspnorm.modgroup import Mat2
from oracles import (
    brute_force_cusp_count,
    brute_force_cusp_orbits,
    euler_phi,
    rand_sl2,
)


def phi_formula_count(n):
    return sum(euler_phi(gcd(c, n // c)) for c in divisors(n))


def test_denominator_examples():
    assert cusp_denominator(Mat2.identity(), 12) == 12
    assert cusp_denominator(Mat2(1, 0, 2, 1), 12) == 2
    assert cusp_denominator(Mat2(1, 1, 5, 6), 12) == 1
    with pytest.raises(NotUnimodular):
        cusp_denominator(Mat2(1, 0, 0, 2), 12)


def test_width_examples():
    assert cusp_width(Mat2.identity(), 12) == 1  # C = N
    assert cusp_width(Mat2(1, 0, 2, 1), 12) == 3
    assert cusp_width(Mat2(1, 0, 2, 1), 4) == 1  # width-1 cusp away from infinity


def test_enumerate_examples():
    assert len(enumerate_cusps(12)) == 6
    assert len(enumerate_cusps(1)) == 1
    six = enumerate_cusps(6)
    assert len(six) == 4
    assert sum(1 for k in six if k.width == 1) == 1


def test_enumerate_counts_and_invariants():
    for n in range(1, 61):
        table = enumerate_cusps(n)
        assert len(table) == phi_formula_count(n)
        assert len(table) == brute_force_cusp_count(n)
        # reps are valid: coprime, c | N or the infinity encoding
        for k in table:
            assert gcd(k.a, k.c) == 1
            if k.c == 0:
                assert k.denominator == n and k.width == 1
            else:
                assert n % k.c == 0 and k.denominator == k.c
                assert k.width == n // gcd(k.c * k.c, n)
        # reps are pairwise inequivalent under the independent orbit oracle
        orbits = brute_force_cusp_orbits(n)
        ids = [orbits[(k.a % n, k.c % n)] for k in table] if n > 1 else [0]
        assert len(set(ids)) == len(table)


def test_width_one_count_squarefree_dichotomy():
    for n in range(2, 61):
        ones = sum(1 for k in enumerate_cusps(n) if k.width == 1)
        squarefree = all(e == 1 for _, e in factor(n))
        if squarefree:
            assert ones == 1
        else:
            assert ones > 1


def test_class_function_invariance():
    # C and W are functions of the double coset Gamma0(N) tau N(Z)
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 40)
        tau = rand_sl2(rng)
        gamma = Mat2.identity()
        for _ in range(3):
            gamma = gamma * Mat2(1, rng.randint(-3, 3), 0, 1)
            gamma = gamma * Mat2(1, 0, n * rng.randint(-3, 3), 1)
        shift = Mat2(1, rng.randint(-5, 5), 0, 1)
        moved = gamma * tau * shift
        assert cusp_denominator(moved, n) == cusp_denominator(tau, n)
        assert cusp_width(moved, n) == cusp_width(tau, n)


def test_width_one_iff_denominator_form():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 60)
        sigma = rand_sl2(rng)
        c = cusp_denominator(sigma, n)
        width1 = cusp_width(sigma, n) == 1
        forms = [n // m for m in range(1, n + 1) if n % (m * m) == 0]
        assert width1 == (c in forms)


def test_local_profile_examples():
    assert local_profile(Mat2(1, 0, 2, 1), 4).entries == ((2, 2, 1, 0),)
    assert local_profile(Mat2.identity(), 4).entries == ((2, 2, 2, 0),)
    assert local_profile(Mat2(0, -1, 1, 0), 4).entries == ((2, 2, 0, 2),)


def test_local_profile_consistency():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 120)
        tau = rand_sl2(rng)
        prof = local_profile(tau, n)
        # C(tau) and W(tau) are the products of p^c_p and of p^w_p
        assert prod(p**cp for p, _np, cp, _wp in prof.entries) == (
            cusp_denominator(tau, n)
        )
        assert prod(p**wp for p, _np, _cp, wp in prof.entries) == cusp_width(tau, n)
        for p, np_, cp, wp in prof.entries:
            assert 0 <= cp <= np_
            assert wp == max(np_ - 2 * cp, 0)


def _vp(x: Fraction, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def test_doublecoset_normal_form_examples():
    k, nu, v = doublecoset_normal_form(Mat2(1, 0, 1, 1), 2, 2)
    assert (k * Mat2(1, 0, 1, 1) * nu).entries() == (1, 0, 1, 1) and v == 1
    # exact identity gives v = (ad - bc)/c1 - p^k b/a = 1 here
    k, nu, v = doublecoset_normal_form(Mat2(1, 1, 2, 3), 2, 2)
    assert (k * Mat2(1, 1, 2, 3) * nu).entries() == (1, 0, 2, 1) and v == 1
    k, nu, v = doublecoset_normal_form(Mat2.identity(), 2, 2)
    assert (k * Mat2.identity() * nu).entries() == (1, 0, 4, 1) and v == 1


def test_doublecoset_normal_form_memberships():
    rng = random.Random(14)
    for _ in range(300):
        tau = rand_sl2(rng)
        p = rng.choice([2, 3, 5])
        np_ = rng.randint(1, 4)
        k, nu, v = doublecoset_normal_form(tau, p, np_)
        cp = min(np_ if tau.c == 0 else valuation(int(tau.c), p), np_)
        prod = k * tau * nu
        assert prod.entries()[:3] == (1, 0, p**cp)
        assert prod.d == v
        # v is a p-adic unit
        assert _vp(v, p) == 0
        # k in K0(p^np): p-integral entries, unit determinant, c-entry
        # divisible by p^np
        for e in k.entries():
            assert _vp(Fraction(e), p) >= 0 if e else True
        assert _vp(Fraction(k.det), p) == 0
        if k.c:
            assert _vp(Fraction(k.c), p) >= np_
        # nu upper-unitriangular and p-integral
        assert nu.a == 1 and nu.d == 1 and nu.c == 0
        if nu.b:
            assert _vp(Fraction(nu.b), p) >= 0
