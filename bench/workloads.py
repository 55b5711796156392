"""The benchmark's four workloads: seeded input generation, the timed
execution of one pass, and the checks on what it produced (failure
accounting, output digest, exact counts and seed-independent invariants).

Inputs are generated here, from the workload seed, with the benchmark's own
small number-theory helpers, so that nothing in the package runs (and no
package cache or sieve warms up) before the timed region starts.  The
package receives only the generated inputs.

Every call into the package goes through a module attribute
(``hecke.coset_reps_delta(...)``, not an imported name), so that the
tracer in ``tracing.py`` can wrap it from outside.
"""

import functools
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from cuspnorm import bounds, conjugation, cusps, harness, hecke
from cuspnorm.modgroup import Mat2, PointH

STRATA_LEMMAS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "para")

# Sizes of the benchmark ("full") and of the variant the self-tests use.
SIZES = {
    "full": {
        "ampl_levels": (1, 8),
        "ampl_samples": 4,
        "strata_levels": (1, 60),
        "gap_levels": (1, 60),
        "gap_points": 100,
        "hecke_levels": (1, 60),
        "hecke_l_max": 12,
        "conj_levels": (4, 8, 9, 16, 25, 27, 36),
        "conj_l_max": 13,
        "conj_budget": 150,
        "census_max": 120,
    },
    "tiny": {
        "ampl_levels": (1, 6),
        "ampl_samples": 1,
        "strata_levels": (1, 8),
        "gap_levels": (1, 8),
        "gap_points": 8,
        "hecke_levels": (1, 8),
        "hecke_l_max": 4,
        "conj_levels": (4, 9),
        "conj_l_max": 5,
        "conj_budget": 10,
        "census_max": 12,
    },
}


# -- the benchmark's own arithmetic (independent of cuspnorm.arith) --------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _square_root_part(n: int) -> int:
    """Largest n0 with n0^2 | n."""
    return max(d for d in range(1, n + 1) if n % (d * d) == 0)


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def seeded_rng(*key) -> random.Random:
    raw = "|".join(str(k) for k in key).encode()
    return random.Random(int.from_bytes(hashlib.sha256(raw).digest()[:8], "big"))


# -- pass results ------------------------------------------------------------


@dataclass
class PassOutput:
    """The checked outcome of one pass over a workload's inputs."""

    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str = ""


class _CanonicalDigest:
    """sha256 over canonical JSON (or verbatim text), one document a line."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, doc) -> None:
        if not isinstance(doc, str):
            doc = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self._h.update(doc.encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _timed_items(run, items) -> tuple[list, list[float]]:
    """run(item) for each item; an exception is kept as the item's result."""
    results, item_s = [], []
    clock = time.perf_counter
    for item in items:
        started = clock()
        try:
            res = run(item)
        except Exception as exc:  # counted as a failed operation
            res = exc
        item_s.append(clock() - started)
        results.append(res)
    return results, item_s


# -- harness sweeps (ampl-sweep, strata-sweep) --------------------------------


def _clocked_run_cell(run_cell, directory: str):
    """harness._run_cell with each cell's duration appended to a file named
    after the process that ran it, so pool workers report theirs too."""

    @functools.wraps(run_cell)  # pickles by the name harness._run_cell
    def clocked(args):
        started = time.perf_counter()
        row = run_cell(args)
        elapsed = time.perf_counter() - started
        with open(os.path.join(directory, f"cells-{os.getpid()}.txt"), "a") as fh:
            fh.write(f"{elapsed!r}\n")
        return row

    return clocked


def _collect_cell_times(directory: str) -> list[float]:
    times = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("cells-"):
            path = os.path.join(directory, name)
            with open(path) as fh:
                times.extend(float(line) for line in fh)
            os.remove(path)
    return times


def harness_inputs(lemmas, levels, samples, seed, jobs):
    return [
        harness.HarnessConfig(
            lemma=lemma, n_lo=levels[0], n_hi=levels[1], samples=samples,
            seed=seed, jobs=jobs,
        )
        for lemma in lemmas
    ]


def execute_harness(configs, clock_dir: str | None):
    """One lemma_harness call per config.  With clock_dir set, per-cell
    times come from a clock around harness._run_cell; a traced pass leaves
    it unset and reads cell times from its spans instead."""
    original = harness._run_cell
    if clock_dir is not None:
        harness._run_cell = _clocked_run_cell(original, clock_dir)
    try:
        results = []
        for cfg in configs:
            try:
                results.append(harness.lemma_harness(cfg))
            except Exception as exc:  # an aborted sweep fails all its cells
                results.append(exc)
    finally:
        harness._run_cell = original
    item_s = _collect_cell_times(clock_dir) if clock_dir is not None else []
    return results, item_s


def check_harness(configs, results) -> PassOutput:
    out = PassOutput()
    digest = _CanonicalDigest()
    for cfg, res in zip(configs, results):
        n_cells = len(harness.harness_cells(cfg))
        out.attempted += n_cells
        if isinstance(res, Exception):
            out.failed += n_cells
            out.problems.append(f"{cfg.lemma}: sweep raised {res!r}")
            continue
        digest.add(res.to_csv())
        out.counts[cfg.lemma] = {"rows": len(res.rows), "skipped": res.skipped}
        if len(res.rows) + res.skipped != n_cells:
            out.problems.append(
                f"{cfg.lemma}: {len(res.rows)} rows + {res.skipped} skipped "
                f"!= {n_cells} cells"
            )
        for row in res.rows:
            if not (float(row["lhs"]) >= 0 and float(row["rhs"]) > 0):
                out.problems.append(f"{cfg.lemma}: bad row {row}")
                break
    out.digest = digest.hexdigest()
    return out


# -- gap-sweep ---------------------------------------------------------------


def gap_inputs(seed: int, levels, points: int) -> list[tuple[int, PointH]]:
    """The C3 point distribution: per level, seeded rationals x = a/den,
    y = b/den with den <= 64; seed 0 gives the acceptance sweep's points."""
    out = []
    for n in range(levels[0], levels[1] + 1):
        for k in range(points):
            rng = seeded_rng(seed, "gap", n, k)
            den = rng.randint(1, 64)
            x = Fraction(rng.randint(-2 * den, 2 * den), den)
            y = Fraction(rng.randint(1, 2 * den), den)
            out.append((n, PointH(x, y)))
    return out


def gap_outcome(cert) -> str:
    """construction or search, or failed when no certificate meets the target
    lattice floor (an honest result, not a failed operation)."""
    v = cert.verification
    if v["y_bound_ok"] and v["lattice_ok"]:
        return cert.method
    return "failed"


def execute_gap(points, clock_dir=None):
    return _timed_items(lambda p: conjugation.gap_reduce(p[1], p[0]), points)


def check_gap(points, certs) -> PassOutput:
    out = PassOutput(attempted=len(points))
    outcomes = {"construction": 0, "search": 0, "failed": 0}
    digest = _CanonicalDigest()
    for (n, z), cert in zip(points, certs):
        if isinstance(cert, Exception):
            out.failed += 1
            out.problems.append(f"gap_reduce({z.serialize()}, {n}) raised {cert!r}")
            continue
        outcomes[gap_outcome(cert)] += 1
        v = cert.verification
        if not (v["y_bound_ok"] and (v["lattice_ok"] or v["lattice_provable_ok"])):
            out.problems.append(f"C3' fails at N={n}, z={z.serialize()}")
        digest.add(cert.to_json())
    out.counts = outcomes
    out.digest = digest.hexdigest()
    return out


# -- hecke-tables --------------------------------------------------------------


def hecke_inputs(seed: int, size: dict) -> list[tuple]:
    """The C7 grid of coset tables and count comparisons, conjugation checks
    on powerful levels with seeded random translates, the cusp census and
    both theorem-pipeline cases."""
    ops = []
    lo, hi = size["hecke_levels"]
    for n in range(lo, hi + 1):
        for m in _divisors(_square_root_part(n)):
            for l in range(1, size["hecke_l_max"] + 1):
                if gcd(l, n) == 1:
                    ops.append(("table", l, n, m))
                    ops.append(("invariance", l, n, m))
    for n in size["conj_levels"]:
        for m in range(1, n + 1):
            if n % (m * m):
                continue
            for l in range(1, size["conj_l_max"] + 1):
                if l % m == 1 % m:
                    conj_seed = seeded_rng(seed, "conj", n, m, l).randrange(1 << 32)
                    ops.append(("conjugation", l, n, m, size["conj_budget"], conj_seed))
    ops.extend(("cusps", n) for n in range(1, size["census_max"] + 1))
    ops.extend(("pipeline", case) for case in ("main", "case2"))
    return ops


def _run_hecke_op(op):
    kind = op[0]
    if kind == "table":
        return hecke.coset_reps_delta(*op[1:])
    if kind == "invariance":
        return hecke.coset_count_invariance(*op[1:])
    if kind == "conjugation":
        l, n, m, budget, seed = op[1:]
        return hecke.conjugation_invariance(
            Mat2(1, 0, n // m, 1), l, n, m, budget=budget, seed=seed
        )
    if kind == "cusps":
        return cusps.enumerate_cusps(op[1])
    return bounds.theorem_pipeline(op[1])


PIPELINE_EXPONENTS = {"main": "-1/12", "case2": "max(N^(-1/6), N^(-1/4)*N0^(1/4))"}


def _check_hecke_op(op, res) -> tuple[object, str | None]:
    """The op's canonical document and, if an invariant fails, a message."""
    kind = op[0]
    if kind == "table":
        sigma = sum(_divisors(op[1]))
        bad = res.count != sigma
        return res.to_json(), bad and f"{op}: {res.count} cosets != sigma(l) = {sigma}"
    if kind == "invariance":
        return res.to_json(), (not res.equal) and f"{op}: counts differ"
    if kind == "conjugation":
        return res.to_json(), (not res.passed) and f"{op}: invariance fails"
    if kind == "cusps":
        n = op[1]
        formula = sum(_phi(gcd(c, n // c)) for c in _divisors(n))
        doc = [[k.a, k.c, k.denominator, k.width] for k in res]
        return doc, len(res) != formula and f"{op}: {len(res)} cusps != {formula}"
    doc = res.to_json()
    bad = not res.ok or doc["sup_norm_exponent"] != PIPELINE_EXPONENTS[op[1]]
    return doc, bad and f"{op}: pipeline gives {doc['sup_norm_exponent']}"


def execute_hecke(ops, clock_dir=None):
    return _timed_items(_run_hecke_op, ops)


def check_hecke(ops, results) -> PassOutput:
    out = PassOutput(attempted=len(ops))
    digest = _CanonicalDigest()
    counts = {"tables": 0, "reps": 0, "conjugations_checked": 0, "cusps": 0}
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            out.failed += 1
            out.problems.append(f"{op} raised {res!r}")
            continue
        doc, bad = _check_hecke_op(op, res)
        digest.add(doc)
        if bad:
            out.problems.append(bad)
        if op[0] == "table":
            counts["tables"] += 1
            counts["reps"] += res.count
        elif op[0] == "conjugation":
            counts["conjugations_checked"] += res.checked
        elif op[0] == "cusps":
            counts["cusps"] += len(res)
    out.counts = counts
    out.digest = digest.hexdigest()
    return out


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload of BENCHMARK.json, where its rationale is recorded."""

    name: str
    make_inputs: object  # (seed, size, jobs) -> inputs
    execute: object  # (inputs, clock_dir) -> (results, item seconds)
    check: object  # (inputs, results) -> PassOutput


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ampl-sweep",
            lambda seed, size, jobs: harness_inputs(
                ("ampl",), size["ampl_levels"], size["ampl_samples"], seed, jobs
            ),
            execute_harness,
            check_harness,
        ),
        Workload(
            "strata-sweep",
            lambda seed, size, jobs: harness_inputs(
                STRATA_LEMMAS, size["strata_levels"], 1, seed, 1
            ),
            execute_harness,
            check_harness,
        ),
        Workload(
            "gap-sweep",
            lambda seed, size, jobs: gap_inputs(
                seed, size["gap_levels"], size["gap_points"]
            ),
            execute_gap,
            check_gap,
        ),
        Workload(
            "hecke-tables",
            lambda seed, size, jobs: hecke_inputs(seed, size),
            execute_hecke,
            check_hecke,
        ),
    )
}
