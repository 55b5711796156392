import random
from math import gcd, prod

import pytest

from cuspnorm.arith import divisors, factor
from cuspnorm.cusps import cusp_denominator, enumerate_cusps, local_profile
from cuspnorm.errors import NotUnimodular
from cuspnorm.modgroup import Mat2, complete_first_column
from oracles import (
    brute_force_cusp_count,
    brute_force_cusp_orbits,
    cusp_width,
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
            assert k.width == cusp_width(complete_first_column(k.a, k.c), n)
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
    assert local_profile(Mat2(1, 0, 2, 1), 4) == ((2, 2, 1, 0),)
    assert local_profile(Mat2.identity(), 4) == ((2, 2, 2, 0),)
    assert local_profile(Mat2(0, -1, 1, 0), 4) == ((2, 2, 0, 2),)


def test_local_profile_consistency():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 120)
        tau = rand_sl2(rng)
        prof = local_profile(tau, n)
        # C(tau) and W(tau) are the products of p^c_p and of p^w_p
        assert prod(p**cp for p, _np, cp, _wp in prof) == cusp_denominator(tau, n)
        assert prod(p**wp for p, _np, _cp, wp in prof) == cusp_width(tau, n)
        for p, np_, cp, wp in prof:
            assert 0 <= cp <= np_
            assert wp == max(np_ - 2 * cp, 0)
