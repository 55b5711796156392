import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspnorm.arith import (
    crt_pair,
    crt_solve,
    divisors,
    factor,
    primes_in_progression,
    primes_up_to,
    smooth_part,
    squarefree_split,
    valuation,
)
from cuspnorm.errors import Inconsistent
from oracles import euler_phi, is_prime


def test_valuation_examples_and_bad_primes():
    assert valuation(8, 2) == 3 and valuation(-12, 3) == 1 and valuation(7, 2) == 0
    # every n is divisible by 1 and -1, so those have no finite valuation
    for p in (1, 0, -1, -2):
        with pytest.raises(ValueError):
            valuation(8, p)
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_factor_examples():
    assert factor(12) == [(2, 2), (3, 1)]
    assert factor(1) == []
    assert factor(97) == [(97, 1)]  # prime by trial division up to sqrt(97)


@given(st.integers(min_value=1, max_value=10**6))
def test_factor_reconstructs(n):
    fac = factor(n)
    assert prod(p**e for p, e in fac) == n
    assert all(e >= 1 for _, e in fac)
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})
    assert all(is_prime(p) for p, _ in fac)


def test_factor_exhaustive_to_a_million():
    for n in range(1, 10**6 + 1):
        p = 1
        for q, e in factor(n):
            p *= q**e
        assert p == n, n


def _factor_brute(n: int) -> list[tuple[int, int]]:
    """Divide out every p <= n that is prime by Miller-Rabin."""
    out, p = [], 2
    while n > 1:
        if n % p == 0 and is_prime(p):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    return out


def test_factor_against_brute_force():
    for n in range(1, 5001):
        assert factor(n) == _factor_brute(n), n


def _primes_near(n: int) -> list[int]:
    # recognised by Miller-Rabin, which shares no code with factor
    return [n + k for k in range(-200, 200) if is_prime(n + k)]


def test_factor_near_powers_of_two():
    p20, p40 = _primes_near(1 << 20), _primes_near(1 << 40)
    for p in p20 + p40:
        assert factor(p) == [(p, 1)]
    lo, hi = p20[0], p20[-1]
    assert factor(lo * hi) == [(lo, 1), (hi, 1)]  # composites near 2^40
    assert factor(hi * hi) == [(hi, 2)]
    assert factor(72 * lo) == [(2, 3), (3, 2), (lo, 1)]
    assert factor(72 * p40[0]) == [(2, 3), (3, 2), (p40[0], 1)]
    assert factor(1 << 40) == [(2, 40)]
    # 2^20 - 1 = 3 * 5^2 * 11 * 31 * 41 and 2^40 - 1 = (2^20 - 1)(2^20 + 1)
    assert factor((1 << 20) - 1) == [(3, 1), (5, 2), (11, 1), (31, 1), (41, 1)]
    assert factor((1 << 40) - 1) == [
        (3, 1), (5, 2), (11, 1), (17, 1), (31, 1), (41, 1), (61681, 1)
    ]


def test_squarefree_split_examples():
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(36) == (1, 6)


def test_squarefree_split_exhaustive():
    for n in range(1, 10001):
        n2, n0 = squarefree_split(n)
        assert n2 * n0 * n0 == n
        assert n % (n0 * n0) == 0
        # n2 squarefree: no square divisor > 1
        assert all(e == 1 for _, e in factor(n2))
        # n0 maximal: n / n0^2 squarefree
        assert all(e == 1 for _, e in factor(n // (n0 * n0)))


def test_smooth_part_examples():
    assert smooth_part(24, 10) == 8
    assert smooth_part(7, 10) == 1
    assert smooth_part(-18, 6) == 18


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
       st.integers(min_value=1, max_value=10**4))
def test_smooth_part_decomposition(n, m):
    n1 = smooth_part(n, m)
    assert abs(n) % n1 == 0
    n0 = abs(n) // n1
    assert gcd(n0, m) == 1
    # n1 is supported on the primes of m
    assert all(m % p == 0 for p, _ in factor(n1))
    # maximality: stripping any extra factor of a prime of m from n0 is impossible
    assert all(n0 % p for p, _ in factor(m))


def test_divisors_against_factor_product():
    for n in range(1, 5000):
        want = [1]
        for p, e in factor(n):
            want = [d * p**k for d in want for k in range(e + 1)]
        assert divisors(n) == sorted(want), n
    with pytest.raises(ValueError):
        divisors(0)


def test_euler_phi_examples():
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    assert euler_phi(97) == 96


def test_euler_phi_brute():
    # the definition-level oracle against the product over factor(n)
    for n in range(1, 500):
        assert euler_phi(n) == prod(p ** (e - 1) * (p - 1) for p, e in factor(n))


def test_primes_in_progression_examples():
    assert primes_in_progression(10, 3) == [13, 19]
    assert primes_in_progression(2, 1) == [3]
    assert primes_in_progression(3, 5) == []


def test_primes_in_progression_matches_sieve():
    for lam in (1, 2, 5, 17, 50):
        for m in (1, 2, 3, 7):
            expected = [
                p for p in primes_up_to(2 * lam)
                if lam < p < 2 * lam and p % m == 1 % m
            ]
            assert primes_in_progression(lam, m) == expected


def test_crt_examples():
    assert crt_solve([(1, 3), (2, 4)]) == (10, 12)
    assert crt_solve([(0, 5)]) == (0, 5)
    with pytest.raises(Inconsistent):
        crt_solve([(1, 2), (0, 4)])


def test_crt_pair_against_brute_force():
    # every pair of congruences with moduli <= 12, conflicting ones and
    # residues outside [0, m) included
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            mm = lcm(m1, m2)
            for r1 in range(-m1, m1):
                for r2 in range(-m2, m2):
                    hits = [
                        x for x in range(mm) if (x - r1) % m1 == 0 == (x - r2) % m2
                    ]
                    merged = crt_pair(r1, m1, r2, m2)
                    if not hits:
                        assert merged is None
                        with pytest.raises(Inconsistent):
                            crt_solve([(r1, m1), (r2, m2)])
                    else:
                        assert hits == [hits[0]]
                        assert merged == (hits[0], mm)
                        assert crt_solve([(r1, m1), (r2, m2)]) == merged


def test_crt_random_against_scan():
    rng = random.Random(7)
    for _ in range(200):
        sys = [(rng.randrange(0, 12), rng.randint(1, 12)) for _ in range(3)]
        brute = [
            x
            for x in range(prod(mi for _, mi in sys))
            if all(x % mi == ri % mi for ri, mi in sys)
        ]
        try:
            r, m = crt_solve(sys)
        except Inconsistent:
            assert not brute
        else:
            assert brute
            assert brute[0] == r
            assert m == lcm(*[mi for _, mi in sys])
            assert all(x % m == r for x in brute)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=10**12))
def test_is_prime_agrees_with_factor(n):
    assert is_prime(n) == (factor(n) == [(n, 1)])
