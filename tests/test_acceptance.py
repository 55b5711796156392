"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them inline).

Criterion 3 is expected to FAIL: the lattice floor it asserts is stronger
than what any reduction can achieve on certain points; counterexamples are
certified exhaustively (see
tests/test_conjugation.py::test_gap_target_floor_counterexample_is_honest)
and the companion test below shows the provable floor passing on the exact
same sweep.  The criterion is implemented exactly as stated and left red
rather than weakened.
"""

import time
from fractions import Fraction
from math import gcd, isqrt

import mpmath

from cuspnorm.arith import divisors, euler_phi, factor, squarefree_split
from cuspnorm.conjugation import gap_reduce, verify_gap_provable, width_one_conjugate
from cuspnorm.counting import classify_counts, enumerate_delta_near, parabolic_certify
from cuspnorm.cusps import enumerate_cusps
from cuspnorm.harness import HarnessConfig, lemma_harness, sample_point_in_g
from cuspnorm.hecke import (
    conjugation_invariance,
    coset_count_invariance,
    coset_reps_delta,
)
from cuspnorm.bounds import (
    AMPL_RHS_TERMS,
    ConstraintSet,
    fourier_branch_exponents,
    fourier_sup_bound,
    maximize,
    monomial,
    substitute,
    theorem_pipeline,
)
from cuspnorm.modgroup import Mat2, mobius_act, point_pair_u
from oracles import (
    box_oracle_delta,
    brute_force_cusp_count,
    gap_sweep_points,
    rand_det_matrix,
    rand_point,
    rand_sl2,
    seeded_rng,
)

F = Fraction


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_cusp_census():
    started = time.monotonic()
    for n in range(1, 121):
        table = enumerate_cusps(n)
        formula = sum(euler_phi(gcd(c, n // c)) for c in divisors(n))
        oracle = brute_force_cusp_count(n)
        assert len(table) == formula == oracle, n
        ones = sum(1 for k in table if k.width == 1)
        squarefree = all(e == 1 for _, e in factor(n))
        assert (ones == 1) == squarefree, n
    elapsed = time.monotonic() - started
    report("C1 cusp census N<=120", elapsed < 10, f"({elapsed:.2f}s < 10s)")


def test_criterion_2_width_one_conjugation():
    started = time.monotonic()
    failures = 0
    for n in range(1, 61):
        rng = seeded_rng("c2", n)
        taus = [Mat2.identity(), Mat2(0, -1, 1, 0), Mat2(1, 1, 0, 1)]
        for c in divisors(n):
            taus.append(Mat2(1, 0, c, 1))
        while len(taus) < 200:
            taus.append(rand_sl2(rng))
        for tau in taus:
            cert = width_one_conjugate(tau, n)  # raises on solve failure
            v = cert.verification
            ok = (
                v["c_sigma_equals_n_over_m"]
                and v["m_squared_divides_n"]
                and v["m1_is_gcd_m_n_s"]
                and v["m1_squared_divides_n_s"]
                and cert.sigma.is_sl2()
            )
            if not ok:
                failures += 1
    elapsed = time.monotonic() - started
    report(
        "C2 width-one conjugation N<=60 x 200",
        failures == 0 and elapsed < 60,
        f"(failures={failures}, {elapsed:.2f}s < 60s)",
    )


def test_criterion_3_gap_principle():
    # EXPECTED RED.  The asserted lattice floor 3M^2 gcd(c, N/M^2)/(4N) is
    # not achievable for every point: counterexamples are certified by
    # exhaustive search over every admissible (M, S, W, sigma), e.g. N=4,
    # z=3/5+i/4.  The criterion is kept exactly as stated; the companion
    # test below passes the identical sweep at the floor the construction
    # provably guarantees.
    started = time.monotonic()
    bad = []
    for n, z in gap_sweep_points(60):
        cert = gap_reduce(z, n)
        v = cert.verification
        if not (v["y_bound_ok"] and v["lattice_ok"]):
            bad.append((n, str(z.x), str(z.y)))
    elapsed = time.monotonic() - started
    report(
        "C3 gap principle (paper floor) 100 z x N<=60",
        not bad and elapsed < 120,
        f"(violations={len(bad)} {bad[:4]}, {elapsed:.2f}s < 120s)",
    )


def test_criterion_3_companion_provable_floor():
    # identical sweep, corrected floor 3M^4(c, N/M^2)^2/(4N^2): all pass
    started = time.monotonic()
    bad = 0
    for n, z in gap_sweep_points(60):
        cert = gap_reduce(z, n)
        ok = cert.verification["y_bound_ok"] and (
            cert.verification["lattice_ok"]
            or verify_gap_provable(cert.z_prime, n, cert.m).passed
        )
        if not ok:
            bad += 1
    elapsed = time.monotonic() - started
    report(
        "C3' gap principle (provable floor) 100 z x N<=60",
        bad == 0 and elapsed < 120,
        f"(violations={bad}, {elapsed:.2f}s < 120s)",
    )


def test_criterion_4_u_identity():
    rng = seeded_rng("c4")
    for _ in range(1000):
        l = rng.randint(1, 100)
        g = rand_det_matrix(rng, l)
        z = rand_point(rng, den_max=32)
        x, y = z.x, z.y
        re = -g.c * (x * x - y * y) + (g.a - g.d) * x + g.b
        im = -2 * g.c * x * y + (g.a - g.d) * y
        assert re * re + im * im == 4 * l * y * y * point_pair_u(
            mobius_act(g, z), z
        )
    report("C4 u-identity 10^3 exact", True, "")


def test_criterion_5_enumerator_vs_box_oracle():
    rng = seeded_rng("c5")
    box = 40
    for cell in range(200):
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12])
        m = rng.choice([m for m in (1, 2, 3) if n % m == 0] or [1])
        l = rng.randint(1, 10)
        delta = F(rng.randint(0, 4), rng.randint(1, 3))
        z = rand_point(rng, den_max=10)
        expected = set(box_oracle_delta(z, l, delta, n, m, box))
        mats = enumerate_delta_near(z, l, delta, n, m)
        for g in mats:  # soundness, exact
            assert point_pair_u(mobius_act(g, z), z) <= delta
            assert g.det == l and g.c % n == 0 and g.a % m == 1 % m
        inside = {
            (g.a, g.b, g.c, g.d)
            for g in mats
            if max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= box
        }
        assert inside == expected, (cell, n, m, l, str(delta))
    # parabolic count vanishes away from squares
    rng2 = seeded_rng("c5b")
    for l in [l for l in range(2, 51) if isqrt(l) ** 2 != l]:
        n = rng2.randint(1, 12)
        z = rand_point(rng2, den_max=8)
        assert classify_counts(z, l, 1, n, 1).n_p == 0
    report("C5 enumerator completeness/soundness + N_p=0", True, "(200 cells, B=40)")


def test_criterion_6_parabolic_lemma():
    violations = 0
    cells = 0
    for n in range(1, 61):
        n0 = squarefree_split(n)[1]
        for m in divisors(n0):
            rng = seeded_rng("c6", n, m)
            z = sample_point_in_g(n, m, rng, F(1))
            if z is None:
                continue
            for root in range(1, 8):
                l = root * root
                certs = parabolic_certify(z, l, 1, n, m)
                cells += 1
                for c in certs:
                    if not c.checks["n_divides_c_tau_sq_t"]:
                        violations += 1
                    if c.t and not c.checks["t0_divisibility"]:
                        violations += 1
                    if not c.checks["u_identity"]:
                        violations += 1
    report(
        "C6 parabolic certificates sweep",
        violations == 0 and cells > 300,
        f"(cells={cells}, violations={violations})",
    )


def test_criterion_7_hecke_combinatorics():
    started = time.monotonic()
    # coset counts and invariance
    for n in range(1, 61):
        n0 = squarefree_split(n)[1]
        for m in divisors(n0):
            for l in range(1, 13):
                if gcd(l, n) != 1:
                    continue
                count = coset_reps_delta(l, n, m).count
                assert count == sum(divisors(l)), (l, n, m)
                inv = coset_count_invariance(l, n, m)
                assert inv.equal, (l, n, m)
    # conjugation invariance
    for n in (4, 8, 9, 16, 25, 27, 36):
        for m in range(1, n + 1):
            if n % (m * m):
                continue
            sigma = Mat2(1, 0, n // m, 1)
            for l in range(1, 14):
                if l % m != 1 % m:
                    continue
                res = conjugation_invariance(sigma, l, n, m, budget=150, seed=7)
                assert res.passed, (n, m, l, res.witness)
    elapsed = time.monotonic() - started
    report("C7 Hecke combinatorics", elapsed < 300, f"({elapsed:.2f}s < 300s)")


def test_criterion_8_exponent_pipeline():
    rep = theorem_pipeline("main")
    ok = rep.ok and rep.sup_norm_exponent == F(-1, 12)
    # the four displayed-term maxima, in display order
    cs = ConstraintSet(("mu", "eta", "nu"))
    cs.box("mu", 0, F(1, 12))
    cs.ge({"eta": 1}, F(5, 6))
    cs.le({"eta": 1, "mu": 2}, 1)
    cs.box("nu", 0, F(1, 2))
    terms = [
        substitute(t + monomial(M=3, Lam=-2), "Lam", monomial(N=F(1, 3)))
        for t in AMPL_RHS_TERMS
    ]
    maxima = [maximize(t, cs).max_value for t in terms]
    ok = ok and maxima == [F(-1, 6), F(-1, 3), F(-1, 4), F(-1, 6)]
    rep2 = theorem_pipeline("case2")
    ok = ok and rep2.ok
    ok = ok and [str(v) for v in rep2.sup_norm_exponent] == [
        "N^(-1/6)",
        "N^(-1/4)*N0^(1/4)",
    ]
    ok = ok and rep2.exponent_at(F(1, 2)) == F(-1, 8)
    ok = ok and rep2.exponent_at(0) == F(-1, 6)
    report(
        "C8 exponent pipeline",
        ok,
        f"(main={rep.sup_norm_exponent}, maxima={[str(v) for v in maxima]}, "
        f"worst case2={rep2.exponent_at(F(1, 2))})",
    )


def test_criterion_9_fourier_evaluator():
    rng = seeded_rng("c9")
    pairs = set()
    while len(pairs) < 50:
        m = rng.randint(1, 12)
        n = m * m * rng.randint(1, 12)
        pairs.add((n, m))
    for n, m in sorted(pairs):
        low = fourier_sup_bound(n, m, F(1, m * m))
        # high-branch fourth power at the same point, computed independently
        high_fourth = F(m * m, n * n) * m * m
        assert low.fourth_power == high_fourth, (n, m)
    branches = fourier_branch_exponents(F(1, 12), F(-5, 6))
    ok = branches["low"] == F(-1, 12) and branches["high"] == F(-1, 4)
    report("C9 Fourier evaluator", ok, "(50 exact breakpoints, -1/12 symbolic)")


def _stability_run(jobs: int):
    rows = {}
    maxima = {}
    for lemma in ("ampl", "eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7"):
        res = lemma_harness(
            HarnessConfig(lemma=lemma, n_lo=1, n_hi=60, delta=F(1), samples=1,
                          seed=0, jobs=jobs)
        )
        rows[lemma] = res.rows
        maxima[lemma] = res.max_ratio()[0]
    return rows, maxima


def test_criterion_10_harness_stability():
    started = time.monotonic()
    rows1, max1 = _stability_run(jobs=1)
    rows2, max2 = _stability_run(jobs=2)
    ok = rows1 == rows2 and max1 == max2
    finite = all(mpmath.isfinite(mpmath.mpf(v)) for v in max1.values())
    elapsed = time.monotonic() - started
    report(
        "C10 harness stability (reruns x jobs)",
        ok and finite and elapsed < 600,
        f"(identical={ok}, maxima={ {k: v[:10] for k, v in max1.items()} }, "
        f"{elapsed:.1f}s < 600s)",
    )
