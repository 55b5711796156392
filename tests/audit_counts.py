"""Count audit of the ampl sweep against the Hermite oracle, outside tier-1.

For each audited cell of `harness --lemma ampl --levels 1..60 --seed 0`,
the point is drawn exactly as `harness._run_cell` draws it, and at every
amplifier l of `amplifier_weights(8, M)` (1 up to 13^4 = 28,561) the
kernel's `count_delta_near(z, l, 1, N, M)` is compared with
`len(hermite_delta_near(z, l, 1, N, M))`, which shares no code with the
kernel.  At M = 1 the cells are the ten costliest of the sweep (M = 1,
Lambda = 8) and a seeded sample of 20 others that have a point; at M = 2
they are a seeded sample of 10 of the M = 2 cells that have a point.

Run from the repository root:

    PYTHONPATH=src python tests/audit_counts.py [--m 1|2]

It prints one line per (cell, l) with both counts and the seconds each
took, and exits 1 if any count differs.  Without --m both audits run.  The
name does not start with `test_`, so pytest does not collect it; a full run
takes several minutes.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from cuspnorm.counting import amplifier_weights, count_delta_near
from cuspnorm.harness import HarnessConfig, _cell_seed, harness_cells, sample_point_in_g
from oracles import hermite_delta_near

SEED = 0
COSTLIEST = tuple(("ampl", n, 1, 8, 0) for n in (53, 37, 41, 59, 49, 43, 29, 39, 55, 58))
SAMPLED = 20
SAMPLED_M2 = 10


def cell_point(cell):
    """The point `harness._run_cell` draws for an ampl cell, or None."""
    lemma, n, m, lval, k = cell
    rng = random.Random(_cell_seed(SEED, lemma, n, m, lval, k))
    return sample_point_in_g(n, m, rng, Fraction(1, n))


def audited_cells(m_audit: int):
    """(cell, z): at M = 1 the ten costliest cells, then the seeded sample;
    at M = 2 the seeded sample of M = 2 cells."""
    cells = [c[:5] for c in harness_cells(HarnessConfig(lemma="ampl", n_lo=1, n_hi=60))]
    if m_audit == 2:
        cells = [(c, cell_point(c)) for c in cells if c[2] == 2]
        return random.Random(SEED).sample([(c, z) for c, z in cells if z is not None], SAMPLED_M2)
    others = [(c, cell_point(c)) for c in cells if c not in COSTLIEST]
    others = [(c, z) for c, z in others if z is not None]
    return [(c, cell_point(c)) for c in COSTLIEST] + random.Random(SEED).sample(others, SAMPLED)


def main() -> int:
    parser = argparse.ArgumentParser(description="count audit against the Hermite oracle")
    parser.add_argument("--m", type=int, choices=(1, 2), default=None)
    args = parser.parse_args()
    mismatches = 0
    oracle_s = 0.0
    for m_audit in (1, 2) if args.m is None else (args.m,):
        for cell, z in audited_cells(m_audit):
            _lemma, n, m, lval, k = cell
            for l in amplifier_weights(8, m_audit):
                t0 = time.perf_counter()
                kernel = count_delta_near(z, l, 1, n, m_audit)
                t1 = time.perf_counter()
                oracle = len(hermite_delta_near(z, l, 1, n, m_audit))
                t2 = time.perf_counter()
                oracle_s += t2 - t1
                verdict = "ok" if kernel == oracle else "MISMATCH"
                mismatches += kernel != oracle
                print(f"audit M={m_audit} N={n} M={m} Lambda={lval} k={k} "
                      f"z={z.serialize()} l={l} kernel={kernel} oracle={oracle} "
                      f"kernel_s={t1 - t0:.3f} oracle_s={t2 - t1:.3f} {verdict}", flush=True)
    print(f"{mismatches} mismatches, oracle {oracle_s:.1f} s", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
