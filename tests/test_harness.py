import traceback

import mpmath
import pytest
from fractions import Fraction
from math import isqrt

from cuspnorm import conjugation, counting, harness
from cuspnorm.counting import classify_counts, is_in_G
from cuspnorm.errors import BudgetExceeded, ConfigError
from cuspnorm.harness import (
    HarnessConfig,
    default_l_values,
    harness_cells,
    lemma_harness,
    sample_point_in_g,
)
from cuspnorm.modgroup import PointH

import random

F = Fraction


def test_config_validation():
    with pytest.raises(ConfigError):
        HarnessConfig(lemma="eq9")
    with pytest.raises(ConfigError):
        HarnessConfig(lemma="eq1", n_lo=5, n_hi=2)
    with pytest.raises(ConfigError):
        HarnessConfig(lemma="eq1", delta=F(-1))
    with pytest.raises(ConfigError):
        HarnessConfig(lemma="eq1", samples=0)


def test_default_l_values():
    assert default_l_values(1) == (1, 2)
    assert default_l_values(8) == (2, 4)
    assert default_l_values(9) == (3, 6)
    assert default_l_values(60) == (4, 8)


def test_sampler_lands_in_G():
    rng = random.Random(5)
    for n, m in [(4, 1), (4, 2), (36, 3), (49, 1), (60, 2)]:
        z = sample_point_in_g(n, m, rng, F(1))
        assert z is not None
        assert is_in_G(z, n, m)
        # the sampler respects the height floor by construction
        assert z.y * z.y * 4 * n * n >= 3 * m**4


def test_region_g_scans_through_the_conjugation_namespace(monkeypatch):
    # the benchmark tracer wraps conjugation.verify_gap_certificate, so
    # is_in_G and the sampler must reach the lattice scan through that name
    calls = []
    real = conjugation.verify_gap_certificate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conjugation, "verify_gap_certificate", counted)
    assert is_in_G(PointH(0, 2), 4, 2)
    assert calls == [(PointH(0, 2), 4, 2)]
    z = sample_point_in_g(36, 3, random.Random(5), F(1))
    assert z is not None and calls[-1] == (z, 36, 3)


def test_sampler_infeasible_window():
    # y <= sqrt(y_hi_sq) below the height floor: no sample exists
    rng = random.Random(6)
    assert sample_point_in_g(4, 2, rng, F(1, 100)) is None


def test_cells_canonical_and_guarded():
    cfg = HarnessConfig(lemma="eq1", n_lo=1, n_hi=12, seed=0)
    cells = harness_cells(cfg)
    assert cells == sorted(set(cells))
    for (_lемma, n, m, lval, *_rest) in cells:
        assert m * m <= lval  # the general-count hypothesis M^2 <= L
    cfg = HarnessConfig(lemma="para", n_lo=9, n_hi=9, seed=0)
    cells = harness_cells(cfg)
    # para cells are one per determinant, l == 1 (mod M)
    for (_l, n, m, lval, *_rest) in cells:
        assert lval % m == 1 % m


def _hand_lhs(lemma, z, n, m, lval):
    """The lemma's left-hand side, one classify_counts call per term."""

    def count(l, stratum):
        return getattr(classify_counts(z, l, F(1), n, m), stratum)

    prog = [l0 for l0 in range(1, lval + 1) if l0 % m == 1 % m]
    primes = [
        p for p in range(2, lval + 1)
        if all(p % q for q in range(2, p)) and p % m == 1 % m
    ]
    singles = {
        "eq1": (lambda a: a, "n_star"),
        "eq2": (lambda a: a * a, "n_star"),
        "eq3": (lambda a: a * a, "n_star"),  # l1 = 1
        "eq7": (lambda a: a, "n_u"),
    }
    pairs = {
        "eq4": lambda p, q: p * q,
        "eq5": lambda p, q: p * q * q,
        "eq6": lambda p, q: p * p * q * q,
    }
    if lemma in singles:
        det, stratum = singles[lemma]
        return sum(count(det(a), stratum) for a in prog)
    if lemma in pairs:
        return sum(count(pairs[lemma](p, q), "n_u") for p in primes for q in primes)
    return count(lval, "n_p")


def _hand_rhs(lemma, n, m, lval, yf):
    """The lemma's envelope written out, with N^epsilon factors set to 1."""
    n0 = max(d for d in range(1, n + 1) if n % (d * d) == 0)
    L, sq_n = mpmath.mpf(lval), mpmath.sqrt(n)
    root = mpmath.sqrt(L)
    square = isqrt(lval) ** 2 == lval
    return {
        "eq1": L / (m * n * yf) + L**1.5 / (m * m * sq_n) + L**2 / (m * m * n),
        "eq2": L / (n * yf) + L**2 / (m * sq_n) + L**3 / (m * n),
        "eq3": L**1.5 / (n * yf) + L**3 / (m * sq_n) + L**4.5 / (m * n),
        "eq4": L / m + L**2 * yf * sq_n / (m * m) + L**3 * yf / (m * m),
        "eq5": L / m + L**2.5 * yf * sq_n / (m * m) + L**4 * yf / (m * m),
        "eq6": 1 + L**2 * yf * sq_n / m + L**4 * yf / m,
        "eq7": 1 + root * yf * sq_n / m + L * yf / m,
        "para": 1 + (root * yf * n0 / m + root * n0 / n if square else 0),
    }[lemma]


@pytest.mark.parametrize(
    "lemma", ["eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "para"]
)
def test_envelope_spot_check(lemma):
    # every row of one level recomputed by hand, sharing no code with the
    # harness's lemma table or the bounds envelope table
    res = lemma_harness(HarnessConfig(lemma=lemma, n_lo=4, n_hi=4, seed=2))
    assert res.rows
    for row in res.rows:
        n, m, lval = row["N"], row["M"], row["L_or_Lambda"]
        y = F(row["y"])
        z = PointH(F(row["x"]), y)
        assert mpmath.mpf(row["lhs"]) == _hand_lhs(lemma, z, n, m, lval)
        with mpmath.workdps(60):
            yf = mpmath.mpf(y.numerator) / y.denominator
            rhs = _hand_rhs(lemma, n, m, lval, yf)
            tol = mpmath.mpf(10) ** -45  # row values carry 50 significant digits
            assert mpmath.almosteq(mpmath.mpf(row["rhs"]), rhs, rel_eps=tol)
            assert mpmath.almosteq(
                mpmath.mpf(row["ratio"]), mpmath.mpf(row["lhs"]) / rhs, rel_eps=tol
            )


def test_para_nonsquare_rows_have_zero_lhs():
    res = lemma_harness(HarnessConfig(lemma="para", n_lo=8, n_hi=10, seed=4))
    seen_nonsquare = False
    for row in res.rows:
        lval = row["L_or_Lambda"]
        root = int(lval**0.5)
        if root * root != lval:
            seen_nonsquare = True
            assert mpmath.mpf(row["lhs"]) == 0
            assert mpmath.mpf(row["ratio"]) == 0
    assert seen_nonsquare


def test_eq3_l1_parameter():
    r1 = lemma_harness(HarnessConfig(lemma="eq3", n_lo=6, n_hi=6, seed=8, l1=1))
    r5 = lemma_harness(HarnessConfig(lemma="eq3", n_lo=6, n_hi=6, seed=8, l1=5))
    assert [row["x"] for row in r1.rows] == [row["x"] for row in r5.rows]
    # determinants differ, so at least the rhs/lhs strings can differ; the
    # run itself must stay deterministic per l1
    again = lemma_harness(HarnessConfig(lemma="eq3", n_lo=6, n_hi=6, seed=8, l1=5))
    assert r5.rows == again.rows


def test_rows_deterministic_across_jobs_and_reruns():
    cfg = dict(lemma="eq4", n_lo=1, n_hi=14, seed=11)
    a = lemma_harness(HarnessConfig(**cfg, jobs=1))
    b = lemma_harness(HarnessConfig(**cfg, jobs=2))
    c = lemma_harness(HarnessConfig(**cfg, jobs=1))
    assert a.rows == b.rows == c.rows
    assert a.max_ratio()[0] == b.max_ratio()[0]


def test_pool_size_is_capped_by_the_cells(monkeypatch):
    # under fork a pool starts every worker at its first submit, so jobs=64
    # over two cells must ask for two workers; the stub maps the cells
    # serially and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # lemma_harness imports the pool inside its jobs > 1 branch, so the stub
    # goes where that import looks it up
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    cfg = dict(lemma="para", n_lo=1, n_hi=1)
    pooled = lemma_harness(HarnessConfig(**cfg, jobs=64))
    assert sizes == [len(harness_cells(HarnessConfig(**cfg)))] == [2]
    assert pooled.rows == lemma_harness(HarnessConfig(**cfg)).rows


def test_csv_shape():
    res = lemma_harness(HarnessConfig(lemma="eq2", n_lo=2, n_hi=6, seed=3))
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "lemma,N,M,L_or_Lambda,delta,x,y,lhs,rhs,ratio"
    assert len(lines) == 2 + len(res.rows)
    for line in lines[2:]:
        assert len(line.split(",")) == 10


@pytest.mark.parametrize("lemma, probe", [
    ("eq1", "count_star"), ("para", "classify_counts"), ("ampl", "amplified_count_sum")
])
def test_budget_exceeded_names_the_cell(monkeypatch, lemma, probe):
    monkeypatch.setattr(counting, "C_BUDGET", 0)
    config = HarnessConfig(lemma=lemma, n_lo=1, n_hi=1)
    cell = harness_cells(config)[0]
    lemma_, n, m, lval, k = cell[:5]
    with pytest.raises(BudgetExceeded) as info:
        harness._run_cell(cell)
    assert f"lemma={lemma_} N={n} M={m} L={lval} k={k}: c-window" in str(info.value)
    # the budget tripped inside the lemma's own counting entry point
    frames = traceback.extract_tb(info.value.__cause__.__traceback__)
    assert probe in [frame.name for frame in frames]
    with pytest.raises(BudgetExceeded, match=f"lemma={lemma} N=1 M=1"):
        lemma_harness(config)


def test_upper_stratum_ignores_the_c_budget(monkeypatch):
    # n_u is read off the c = 0 windows alone, so no c-window is scanned
    cell = ("eq4", 1, 1, 2, 0, 0, "1", 1)
    row = harness._run_cell(cell)
    assert row["lhs"] != "0.0"
    monkeypatch.setattr(counting, "C_BUDGET", 0)
    assert harness._run_cell(cell) == row
