"""Sweep harness: evaluates the counting envelopes cell by cell and reports
exact left-hand sides, envelope right-hand sides (all N^epsilon factors set
to 1), and their ratios.

A cell is (lemma, N, M, L-or-Lambda, sample index); its point z is drawn
from a per-cell seeded generator and rejection-sampled into G(N; M), so the
output is byte-identical across reruns and worker counts.  Cells are
independent pure computations; with jobs > 1 they are fanned out to a
process pool and merged in canonical order.  The pool is imported only
then, so a jobs=1 sweep and every other importer of this module never load
multiprocessing.
"""

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from .arith import divisors, primes_up_to, squarefree_split
from .bounds import ENVELOPES, bound_rhs_ampl, evaluate_terms
from .conjugation import is_in_G
from .counting import amplified_count_sum, classify_counts, count_star, count_upper
from .errors import BudgetExceeded, ConfigError
from .modgroup import PointH
from .precision import default_dps, nstr, working_precision

LEMMAS = tuple(ENVELOPES)  # eq1..eq7, para, ampl

CSV_VERSION = "cuspnorm-harness-csv v1"
CSV_COLUMNS = ("lemma", "N", "M", "L_or_Lambda", "delta", "x", "y", "lhs", "rhs",
               "ratio")
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class HarnessConfig:
    lemma: str
    n_lo: int = 1
    n_hi: int = 60
    delta: Fraction = Fraction(1)
    samples: int = 1
    seed: int = 0
    jobs: int = 1
    l1: int = 1  # fixed first determinant factor for eq3

    def __post_init__(self):
        self.delta = Fraction(self.delta)
        if self.lemma not in LEMMAS:
            raise ConfigError(f"unknown lemma {self.lemma!r}; expected one of {LEMMAS}")
        if self.n_lo < 1 or self.n_hi < self.n_lo:
            raise ConfigError(f"bad level range {self.n_lo}..{self.n_hi}")
        if self.delta < 0:
            raise ConfigError("delta must be >= 0")
        if self.samples < 1 or self.jobs < 1:
            raise ConfigError("samples and jobs must be >= 1")
        if self.l1 < 1:
            raise ConfigError(f"--l1 must be >= 1, got {self.l1}")


def _cell_seed(seed: int, lemma: str, n: int, m: int, lval: int, k: int) -> int:
    """Stable per-cell seed, independent of execution order and platform."""
    key = f"{seed}|{lemma}|{n}|{m}|{lval}|{k}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


SAMPLE_TRIES = 200  # draws before sample_point_in_g gives up on a cell


def sample_point_in_g(
    n: int, m: int, rng: random.Random, y_hi_sq: Fraction
) -> PointH | None:
    """Rational z with x = k/(2N+1), y = j/(4N^2), rejection-sampled into
    G(N; M) in at most SAMPLE_TRIES draws; y ranges over
    [sqrt(3) M^2/(2N), sqrt(y_hi_sq)].  As gcd(2N+1, 4N^2) = 1, the draw is
    the triple (4N^2 k, (2N+1) j, (2N+1) 4N^2)."""
    den = 4 * n * n
    # least j with j^2 >= 12 M^4 N^2 = 3 (2 M^2 N)^2, which is never a square
    num_lo = isqrt(12 * m**4 * n * n) + 1
    num_hi = isqrt(y_hi_sq.numerator * den * den // y_hi_sq.denominator)
    if num_hi < num_lo:
        return None
    xden = 2 * n + 1
    for _ in range(SAMPLE_TRIES):
        k, j = rng.randint(-n, n), rng.randint(num_lo, num_hi)
        z = PointH.from_triple(k * den, j * xden, xden * den)
        if is_in_G(z, n, m):
            return z
    return None


def default_l_values(n: int) -> tuple[int, ...]:
    """The sweep's amplifier-length rule: ceil(N^(1/3)) and its double."""
    c = 1
    while c * c * c < n:
        c += 1
    return (c, 2 * c)


def _progression(lval: int, m: int) -> list[int]:
    """1 <= l0 <= L with l0 == 1 (mod M)."""
    return [l0 for l0 in range(1, lval + 1) if l0 % m == 1 % m]


def _prime_pairs(lval: int, m: int):
    """Ordered pairs of primes p, q <= L with p, q == 1 (mod M)."""
    primes = [p for p in primes_up_to(lval) if p % m == 1 % m]
    return product(primes, repeat=2)


def _count_parabolic(z: PointH, l: int, delta, n: int, m: int) -> int:
    # classify_counts is looked up here at call time, where the benchmark
    # tracer replaces it
    return classify_counts(z, l, delta, n, m).n_p


# lemma -> (determinant multiset {l: multiplicity} at (L, M, l1), count of
# the lemma's stratum at (z, l, delta, N, M)); the envelopes are
# bounds.ENVELOPES[lemma]
_LEMMA_COUNTS = {
    "eq1": (lambda L, m, l1: Counter(_progression(L, m)), count_star),
    "eq2": (lambda L, m, l1: Counter(a * a for a in _progression(L, m)), count_star),
    "eq3": (lambda L, m, l1: Counter(l1 * a * a for a in _progression(L, m)), count_star),
    "eq4": (lambda L, m, l1: Counter(p * q for p, q in _prime_pairs(L, m)), count_upper),
    "eq5": (
        lambda L, m, l1: Counter(p * q * q for p, q in _prime_pairs(L, m)), count_upper
    ),
    "eq6": (
        lambda L, m, l1: Counter(p * p * q * q for p, q in _prime_pairs(L, m)),
        count_upper,
    ),
    "eq7": (lambda L, m, l1: Counter(_progression(L, m)), count_upper),
    "para": (lambda L, m, l1: Counter([L]), _count_parabolic),
}


@lru_cache(maxsize=1024)
def _determinant_plan(lemma: str, lval: int, m: int, l1: int) -> tuple:
    """The determinant multiset of a cell as ascending (l, multiplicity)
    pairs, built once per (lemma, L, M, l1); a tuple, so no caller can
    change what the cache holds."""
    return tuple(sorted(_LEMMA_COUNTS[lemma][0](lval, m, l1).items()))


_parse_delta = lru_cache(maxsize=16)(Fraction)  # a sweep's one delta, parsed once


def _run_cell(args: tuple) -> dict | None:
    (lemma, n, m, lval, k, seed, delta_s, l1) = args
    delta = _parse_delta(delta_s)
    dps = default_dps()
    rng = random.Random(_cell_seed(seed, lemma, n, m, lval, k))
    if lemma == "ampl":
        y_hi_sq = Fraction(1, n)  # the amplifier envelope needs y <= N^(-1/2)
    else:
        y_hi_sq = Fraction(1)
    z = sample_point_in_g(n, m, rng, y_hi_sq)
    if z is None:
        return None
    x, y = z.x, z.y
    try:
        with working_precision():
            if lemma == "ampl":
                lhs, _pairs = amplified_count_sum(z, lval, delta, n, m)
                rhs = bound_rhs_ampl(n, m, lval, y)
            else:
                count = _LEMMA_COUNTS[lemma][1]
                lhs = Decimal(sum(
                    mult * count(z, l, delta, n, m)
                    for l, mult in _determinant_plan(lemma, lval, m, l1)
                ))
                terms = ENVELOPES[lemma]
                if lemma == "para" and isqrt(lval) ** 2 != lval:
                    terms = terms[:1]  # no matrix of non-square determinant is parabolic
                rhs = evaluate_terms(
                    terms, N=n, M=m, y=y, N0=squarefree_split(n)[1], L=lval
                )
            ratio = lhs / rhs
            return {
                "lemma": lemma,
                "N": n,
                "M": m,
                "L_or_Lambda": lval,
                "delta": str(delta),
                "x": f"{x.numerator}/{x.denominator}",
                "y": f"{y.numerator}/{y.denominator}",
                "lhs": nstr(lhs, dps),
                "rhs": nstr(rhs, dps),
                "ratio": nstr(ratio, dps),
            }
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"harness cell lemma={lemma} N={n} M={m} L={lval} k={k}: {exc}"
        ) from exc


def harness_cells(config: HarnessConfig) -> list[tuple]:
    """Canonical (sorted) cell list for a sweep."""
    cells = []
    delta_s = str(config.delta)
    for n in range(config.n_lo, config.n_hi + 1):
        for m in divisors(squarefree_split(n)[1]):
            for lval in default_l_values(n):
                if config.lemma == "para":
                    # one cell per determinant l <= L, l == 1 (mod M)
                    lvals = _progression(lval, m)
                elif m * m > lval:
                    continue
                else:
                    lvals = [lval]
                for lv in lvals:
                    for k in range(config.samples):
                        cells.append(
                            (config.lemma, n, m, lv, k, config.seed, delta_s,
                             config.l1)
                        )
    return sorted(set(cells))


@dataclass
class HarnessResult:
    config: HarnessConfig
    rows: list[dict]
    skipped: int

    def max_ratio(self) -> tuple[str, dict | None]:
        """Largest ratio over the rows, compared exactly as decimals; the
        first of several maximal rows."""
        best = max(self.rows, key=lambda r: Decimal(r["ratio"]), default=None)
        return (best["ratio"] if best else "0.0", best)

    def to_json(self) -> dict:
        ratio, argmax = self.max_ratio()
        return {
            "lemma": self.config.lemma,
            "levels": [self.config.n_lo, self.config.n_hi],
            "delta": str(self.config.delta),
            "samples": self.config.samples,
            "seed": self.config.seed,
            "skipped_cells": self.skipped,
            "max_ratio": ratio,
            "argmax": argmax,
            "rows": self.rows,
        }

    def to_csv(self) -> str:
        lines = [f"# {CSV_VERSION}", CSV_HEADER]
        lines += [",".join(str(row[k]) for k in CSV_COLUMNS) for row in self.rows]
        return "\n".join(lines) + "\n"


def lemma_harness(config: HarnessConfig) -> HarnessResult:
    """Run the sweep for one lemma; deterministic for a fixed seed,
    regardless of the jobs setting."""
    cells = harness_cells(config)
    if config.jobs > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so importers never load it
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(cells))) as pool:
            results = list(pool.map(_run_cell, cells, chunksize=8))
    else:
        results = [_run_cell(c) for c in cells]
    rows = [r for r in results if r is not None]
    skipped = sum(1 for r in results if r is None)
    return HarnessResult(config, rows, skipped)
