import random
from fractions import Fraction

import mpmath
import pytest
from cuspnorm import bounds
from cuspnorm.bounds import (
    AMPL_RHS_TERMS,
    ConstraintSet,
    ExponentVector,
    MonomialBound,
    dominated_by,
    evaluate_terms,
    fourier_branch_exponents,
    fourier_sup_bound,
    maximize,
    monomial,
    smooth_count,
    substitute,
    theorem_pipeline,
    vertices,
)
from cuspnorm.errors import (
    ConfigError,
    InfeasibleConstraints,
    InvalidM,
    OutOfRange,
    UnboundedPolytope,
)
from oracles import fourier_exponent

F = Fraction


def test_substitute_examples():
    v = substitute(
        monomial(Lam=F(5, 2), M=-2, N=F(-1, 2)), "Lam", monomial(N=F(1, 3))
    )
    assert v == monomial(N=F(1, 3), M=-2)
    assert substitute(monomial(M=2, Lam=-1), "Lam", monomial(N=F(1, 3))) == (
        monomial(M=2, N=F(-1, 3))
    )
    assert substitute(
        monomial(M=2, Lam=2, N=-1), "M", monomial()
    ) == monomial(Lam=2, N=-1)
    # a vector without the parameter is unchanged
    assert substitute(monomial(N=1, y=1), "Lam", monomial(N=2)) == monomial(N=1, y=1)
    # any replacement involving the parameter is circular and rejected,
    # the identity included
    for rep in (monomial(Lam=1), monomial(Lam=2), monomial(Lam=1, N=1)):
        with pytest.raises(ConfigError):
            substitute(monomial(Lam=1), "Lam", rep)
    with pytest.raises(ConfigError):
        monomial(K=1)


def _main_constraints():
    cs = ConstraintSet(("mu", "eta", "nu"))
    cs.box("mu", 0, F(1, 12))
    cs.ge({"eta": 1}, F(5, 6))
    cs.le({"eta": 1, "mu": 2}, 1)
    cs.box("nu", 0, F(1, 2))
    return cs


def test_dominated_by_main_case():
    terms = [substitute(t + monomial(M=3, Lam=-2), "Lam", monomial(N=F(1, 3)))
             for t in AMPL_RHS_TERMS]
    cs = _main_constraints()
    res = dominated_by(MonomialBound(tuple(terms)), monomial(N=F(-1, 6)), cs)
    assert res.ok
    maxima = [maximize(t, cs).max_value for t in terms]
    assert maxima == [F(-1, 6), F(-1, 3), F(-1, 4), F(-1, 6)]


def test_dominated_by_trivial_and_failure():
    cs = ConstraintSet(("mu",)).box("mu", 0, 1)
    ok = dominated_by(
        MonomialBound.of(monomial(N=-1)), monomial(N=F(-1, 6)), cs
    )
    assert ok.ok
    bad = dominated_by(
        MonomialBound.of(monomial(N=F(-1, 6))), monomial(N=F(-1, 4)), cs
    )
    assert not bad.ok
    fail = [mm for mm in bad.per_monomial if mm.max_value > 0][0]
    assert fail.max_value == F(-1, 6) + F(1, 4)
    assert fail.argmax is not None


def test_vertices_errors():
    cs = ConstraintSet(("mu", "eta"))
    cs.box("mu", 0, 1)
    with pytest.raises(UnboundedPolytope):
        vertices(cs)  # eta unconstrained
    cs2 = ConstraintSet(("mu",))
    cs2.box("mu", 1, 0)
    with pytest.raises(InfeasibleConstraints):
        vertices(cs2)


def test_vertices_of_box():
    cs = ConstraintSet(("mu", "eta"))
    cs.box("mu", 0, 1)
    cs.box("eta", F(1, 2), 2)
    vs = vertices(cs)
    assert set(vs) == {
        (F(0), F(1, 2)), (F(0), F(2)), (F(1), F(1, 2)), (F(1), F(2))
    }


def test_vertices_of_degenerate_pyramid():
    # the square pyramid 0 <= z <= min(2x, 2 - 2x, 2y, 2 - 2y): four facets
    # meet at the apex, and the redundant x + y + z <= 2 touches the edge
    # from (1, 1, 0) to the apex, so five constraints are active at the apex
    # and four at (1, 1, 0), against d = 3
    cs = ConstraintSet(("x", "y", "z"))
    cs.ge({"z": 1}, 0)
    cs.le({"z": 1, "x": -2}, 0)
    cs.le({"z": 1, "x": 2}, 2)
    cs.le({"z": 1, "y": -2}, 0)
    cs.le({"z": 1, "y": 2}, 2)
    cs.le({"x": 1, "y": 1, "z": 1}, 2)
    assert vertices(cs) == [
        (F(0), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(1, 2), F(1, 2), F(1)),
        (F(1), F(0), F(0)),
        (F(1), F(1), F(0)),
    ]


def test_dominated_by_agrees_with_grid_sampler():
    # sound direction: an ok verdict admits no violating grid point; a
    # failing verdict carries an exactly-violating vertex
    rng = random.Random(51)
    for _ in range(100):
        lo1, lo2 = F(rng.randint(-4, 0), 4), F(rng.randint(-4, 0), 4)
        hi1, hi2 = lo1 + F(rng.randint(1, 8), 4), lo2 + F(rng.randint(1, 8), 4)
        cs = ConstraintSet(("mu", "eta"))
        cs.box("mu", lo1, hi1)
        cs.box("eta", lo2, hi2)
        # one random extra cut that keeps the box corner lo feasible
        a1, a2 = rng.randint(0, 3), rng.randint(0, 3)
        cut = a1 * lo1 + a2 * lo2 + F(rng.randint(1, 8), 2)
        cs.le({"mu": a1, "eta": a2}, cut)
        vec = monomial(
            N=F(rng.randint(-6, 6), 6),
            M=F(rng.randint(-6, 6), 6),
            y=F(rng.randint(-6, 6), 6),
        )
        target = monomial(N=F(rng.randint(-6, 6), 6))
        res = dominated_by(MonomialBound.of(vec), target, cs)
        diff_const, diff_coeffs = (
            vec + ExponentVector(tuple(-e for e in target.exps))
        ).as_functional(cs.variables)
        grid_max = None
        steps = 20
        for i in range(steps + 1):
            for j in range(steps + 1):
                mu = lo1 + (hi1 - lo1) * i / steps
                eta = lo2 + (hi2 - lo2) * j / steps
                if a1 * mu + a2 * eta > cut:
                    continue
                val = diff_const + diff_coeffs[0] * mu + diff_coeffs[1] * eta
                if grid_max is None or val > grid_max:
                    grid_max = val
        if res.ok:
            assert grid_max <= 0
        else:
            fail = [mm for mm in res.per_monomial if mm.max_value > 0][0]
            v = fail.argmax
            val = diff_const + diff_coeffs[0] * v[0] + diff_coeffs[1] * v[1]
            assert val == fail.max_value > 0
        # vertex max dominates the grid
        assert res.per_monomial[0].max_value >= grid_max


def test_fourier_sup_bound_examples():
    # branch agreement at y = 1/M^2, exact on fourth powers
    for n, m in [(4, 2), (9, 3), (36, 6), (144, 12), (100, 10)]:
        low = fourier_sup_bound(n, m, F(1, m * m))
        high_val = F(m * m, n * n) / F(1, m * m)
        assert low.fourth_power == high_val
    b = fourier_sup_bound(16, 1, F(1, 16))
    assert b.branch == "low" and b.fourth_power == 1
    with pytest.raises(OutOfRange):
        fourier_sup_bound(16, 1, F(1, 32))
    with pytest.raises(InvalidM):
        fourier_sup_bound(8, 3, F(1, 2))


def test_fourier_monotone_in_y():
    n, m = 144, 2
    ys = [F(1, 144), F(1, 100), F(1, 16), F(1, 4), F(1, 2), F(2)]
    vals = [fourier_sup_bound(n, m, y).fourth_power for y in ys]
    # fourth powers are comparable within a branch; the bound never increases
    for y1, y2 in zip(ys, ys[1:]):
        b1 = fourier_sup_bound(n, m, y1)
        b2 = fourier_sup_bound(n, m, y2)
        if b1.branch == b2.branch:
            assert b1.fourth_power >= b2.fourth_power


def test_fourier_exponent_symbolic():
    branch, e = fourier_exponent(F(1, 12), F(-5, 6))
    assert branch == "low" and e == F(-1, 12)
    branches = fourier_branch_exponents(F(1, 12), F(-5, 6))
    assert branches["high"] == F(-1, 4)
    branch, e = fourier_exponent(F(1, 12), F(-1, 12))  # y above 1/M^2
    assert branch == "high"
    with pytest.raises(OutOfRange):
        fourier_exponent(F(1, 12), F(-3, 2))
    # at N = 2^12, M = N^mu and y = N^h the concrete bound takes the same
    # branch, and its exact fourth power is N^(4e) = 2^(48e)
    n = 2**12
    for k in range(7):
        for t in range(-12, 13):
            branch, e = fourier_exponent(F(k, 12), F(t, 12))
            b = fourier_sup_bound(n, 2**k, F(2) ** t)
            assert b.branch == branch, (k, t)
            assert b.fourth_power == F(2) ** int(48 * e), (k, t)


def test_theorem_pipeline_main():
    rep = theorem_pipeline("main")
    assert rep.ok
    assert rep.sup_norm_exponent == F(-1, 12)
    dom_steps = [s for s in rep.steps if s.op == "domination"]
    assert dom_steps and dom_steps[0].output == [
        F(-1, 6), F(-1, 3), F(-1, 4), F(-1, 6)
    ]
    assert rep.to_json()["sup_norm_exponent"] == "-1/12"


def test_theorem_pipeline_case2():
    rep = theorem_pipeline("case2")
    assert rep.ok
    assert [str(v) for v in rep.sup_norm_exponent] == [
        "N^(-1/6)", "N^(-1/4)*N0^(1/4)"
    ]
    assert rep.exponent_at(F(1, 2)) == F(-1, 8)
    assert rep.exponent_at(0) == F(-1, 6)
    assert rep.exponent_at(F(1, 3)) == max(F(-1, 6), F(-1, 4) + F(1, 12))
    with pytest.raises(ConfigError):
        theorem_pipeline("case3")


def test_pipelines_enumerate_each_polytope_once():
    # main has one polytope and case2 another; every maximization after the
    # first reads the cached vertex list, so two enumerations in all, even
    # across repeated runs
    bounds._vertices.cache_clear()
    for _ in range(2):
        theorem_pipeline("main")
        theorem_pipeline("case2")
    info = bounds._vertices.cache_info()
    assert info.misses == 2
    assert info.hits == 30
    # callers get a fresh list, so mutating it leaves the cache intact
    cs = _main_constraints()
    vertices(cs).clear()
    assert vertices(cs)


def test_evaluate_terms_examples():
    # 4^(5/2) / (1/3) = 96 and (1/3)^(-1/2) * 9^(1/2) = 3 sqrt(3), summed
    terms = (monomial(L=F(5, 2), y=-1), monomial(y=F(-1, 2), N=F(1, 2)))
    v = evaluate_terms(terms, L=4, y=F(1, 3), N=9)
    with mpmath.workdps(60):
        expected = 96 + 3 * mpmath.sqrt(3)
        assert mpmath.almosteq(v, expected, rel_eps=mpmath.mpf(10) ** -50)
    assert evaluate_terms((monomial(),)) == 1
    with pytest.raises(ConfigError):
        evaluate_terms((monomial(N=F(1, 3)),), N=8)


def test_smooth_count_examples():
    assert smooth_count(10, 2) == 4
    assert smooth_count(7, 1) == 1
    assert smooth_count(12, 6) == 8
    # brute force cross-check
    from cuspnorm.arith import factor

    for x, n in [(50, 6), (100, 10), (30, 12)]:
        brute = sum(
            1
            for t in range(1, x + 1)
            if all(n % p == 0 for p, _ in factor(t))
        )
        assert smooth_count(x, n) == brute


def test_smooth_count_growth_report():
    # the count grows far slower than any power: report-style check
    n = 12
    prev = None
    for x in (10**2, 10**3, 10**4, 10**5):
        val = smooth_count(x, n) / x**0.5
        if prev is not None:
            assert val < prev
        prev = val
