"""Count audit of the ampl sweep against the Hermite oracle, outside tier-1.

For each audited cell of `harness --lemma ampl --levels 1..60 --seed 0`,
the point is drawn exactly as `harness._run_cell` draws it, and at every
amplifier l of `amplifier_weights(8, 1)` (1 up to 13^4 = 28,561) the
kernel's `count_delta_near(z, l, 1, N, 1)` is compared with
`len(hermite_delta_near(z, l, 1, N, 1))`, which shares no code with the
kernel.  The cells are the ten costliest of the sweep (M = 1, Lambda = 8)
and a seeded sample of 20 others that have a point.

Run from the repository root:

    PYTHONPATH=src python tests/audit_counts.py

It prints one line per (cell, l) with both counts and the seconds each
took, and exits 1 if any count differs.  The name does not start with
`test_`, so pytest does not collect it; a full run takes several minutes.
"""

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
AUDIT_L = tuple(amplifier_weights(8, 1))


def cell_point(cell):
    """The point `harness._run_cell` draws for an ampl cell, or None."""
    lemma, n, m, lval, k = cell
    rng = random.Random(_cell_seed(SEED, lemma, n, m, lval, k))
    return sample_point_in_g(n, m, rng, Fraction(1, n))


def audited_cells():
    """(cell, z): the ten costliest cells, then the seeded sample."""
    cells = [c[:5] for c in harness_cells(HarnessConfig(lemma="ampl", n_lo=1, n_hi=60))]
    others = [(c, cell_point(c)) for c in cells if c not in COSTLIEST]
    others = [(c, z) for c, z in others if z is not None]
    return [(c, cell_point(c)) for c in COSTLIEST] + random.Random(SEED).sample(others, SAMPLED)


def main() -> int:
    mismatches = 0
    for cell, z in audited_cells():
        _lemma, n, m, lval, k = cell
        for l in AUDIT_L:
            t0 = time.perf_counter()
            kernel = count_delta_near(z, l, 1, n, 1)
            t1 = time.perf_counter()
            oracle = len(hermite_delta_near(z, l, 1, n, 1))
            t2 = time.perf_counter()
            verdict = "ok" if kernel == oracle else "MISMATCH"
            mismatches += kernel != oracle
            print(f"N={n} M={m} Lambda={lval} k={k} z={z.serialize()} l={l} "
                  f"kernel={kernel} oracle={oracle} kernel_s={t1 - t0:.3f} "
                  f"oracle_s={t2 - t1:.3f} {verdict}", flush=True)
    print(f"{mismatches} mismatches", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
