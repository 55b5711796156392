"""cuspnorm benchmark: one command for every workload, metric and check.

    python3 bench/run.py --workload ampl-sweep --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Workloads (see ``workloads.py``):

- ``ampl-sweep``: ``lemma_harness`` on the ampl lemma at jobs = nproc.
- ``strata-sweep``: the other eight lemmas, one sweep each, at jobs=1.
- ``gap-sweep``: ``gap_reduce`` over the C3 point distribution.
- ``hecke-tables``: the C7 coset grid and conjugation checks, the cusp
  census for N <= 120 and both theorem pipelines.

``--trace 0`` repeats passes of the named workload, each in a fresh
interpreter (so package caches and the factor sieve start cold and the peak
resident set is per pass), until ``--seconds`` have passed, and prints the
end-to-end metrics as medians over the passes.  The first two passes run the
inputs of ``--seed``; each later pass runs a further input set drawn from
it (see ``draw_seed``).

- ``items_per_s``: cells, points or operations completed per second of the
  timed region.
- ``setup_s``: interpreter start, imports and input generation.
- ``cpu_s``: CPU seconds of one pass, the process plus its pool workers.
- ``item_ms_p50``, ``item_ms_tail``: per-item time (harness cell, gap
  point, or Hecke operation).  The tail is the highest whole percentile with
  at least ten items of a pass beyond it; stderr names it.
- ``peak_rss_mb``: the largest resident set of the process or any worker.

Operations that raise are counted in ``failed`` (a harness sweep that
raises fails all of its cells); a gap point without a certificate is an
honest result, not a failure.

``--trace 1`` runs each of the four workloads at jobs=1 twice, untraced and
then traced, plus ampl-sweep untraced at jobs = nproc, and prints the
per-layer metrics of the whole benchmark, so every layer is measured
whichever workload is named.  ``harness.cells``, ``harness.skipped_cells``,
``harness.cell_*`` and ``harness.top10_share`` describe the ampl-sweep cells; ``harness.pool_utilisation`` is
cpu_s / (jobs x wall) of the untraced jobs = nproc pass;
``trace.overhead`` is traced over untraced wall time of the jobs=1 passes.
Times named ``*_self_s`` exclude the spans a call caused; other ``*_s``
times are inclusive.  Spans are written to ``.bench_out/``.

Correctness gate (both modes): every pass must satisfy the workload's
invariants; the two passes on the same inputs, traced and untraced passes,
and jobs=1 and jobs = nproc harness passes must give the same output digest
and exact counts; at seed 0 the outputs must equal those recorded in
``reference.json`` (``passrun.py --workload W --seed 0 --jobs 1 [--size
tiny]`` prints them).  Whatever the seed, each run also runs a canary: the
workload at the tiny size on the inputs of seed 0, checked against its
recorded output and not counted in the metrics.  A mismatch is reported on
stderr, sets ``correct`` to false and makes the command exit 1.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("ampl-sweep", "strata-sweep", "gap-sweep", "hecke-tables")
RUN_LIMIT_S = 165  # the whole run, so that it ends well within 180 s


class PassFailed(Exception):
    """A pass process crashed, timed out or printed no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_pass(
    workload: str, seed: int, jobs: int, trace: bool, size: str, deadline: float
) -> dict:
    """One pass in a fresh interpreter; killed (with its pool) at the deadline."""
    env = dict(os.environ)
    env.pop("CUSPNORM_PRECISION", None)  # reported reals at the default 50 digits
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, os.path.join(BENCH, "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
        "--size", size, "--out-dir", OUT_DIR,
    ]
    if trace:
        cmd.append("--trace")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        proc.communicate()
        raise PassFailed(f"{workload} pass did not finish within the run's time limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers a crash left behind
        except ProcessLookupError:
            pass
        raise PassFailed(
            f"{workload} pass exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    doc = json.loads(lines[-1])
    if os.path.realpath(doc["module"]) != os.path.realpath(os.path.join(SRC, "cuspnorm")):
        raise PassFailed(f"imported cuspnorm from {doc['module']}, not {SRC}")
    return doc


def workload_jobs(workload: str) -> int:
    return nproc() if workload == "ampl-sweep" else 1


def draw_seed(seed: int, draw: int) -> int:
    """Input seed of a run's draw-th input set; draw 0 is the run's own seed.

    Passes 0 and 1 run draw 0, so the run checks that outputs repeat; later
    passes run fresh draws, so the medians do not hinge on one set of inputs.
    """
    if draw == 0:
        return seed
    key = f"{seed}|draw|{draw}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(1, min(99, math.floor(100 * (1 - 10 / n))))


def end_to_end(passes: list[dict]) -> dict[str, float]:
    level = tail_level(len(passes[0]["item_s"]))
    per_pass = {
        "items_per_s": [p["attempted"] / p["wall_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "item_ms_p50": [1e3 * statistics.median(p["item_s"]) for p in passes],
        "item_ms_tail": [1e3 * percentile(p["item_s"], level) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    log(
        f"{len(passes)} passes; item_ms_tail is p{level} of "
        f"{len(passes[0]['item_s'])} items per pass"
    )
    return {name: statistics.median(values) for name, values in per_pass.items()}


def merge_summaries(summaries: list[dict]) -> dict:
    """Add up the span summaries (tracing.Tracer.summary) of several passes."""
    out = {"calls": {}, "total": {}, "self": {}, "work": {}, "searched": []}
    for summ in summaries:
        for key in ("calls", "total", "self", "work"):
            for name, value in summ[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["searched"] += summ["searched"]
    return out


def layer_metrics(traced: dict[str, dict], untraced: dict[str, dict], pool: dict) -> dict:
    """Per-layer metrics from the traced passes of every workload."""
    summ = merge_summaries([p["trace"] for p in traced.values()])
    calls, total, self_s, work = summ["calls"], summ["total"], summ["self"], summ["work"]
    cells = sorted(traced["ampl-sweep"]["trace"]["cells"], reverse=True)
    gap = traced["gap-sweep"]["counts"]
    found = work.get("counting.enumerate", 0)
    enumerate_s = total.get("counting.enumerate", 0.0)
    candidates = work.get("conjugation.candidates", 0)
    return {
        "counting.enumerate_calls": calls.get("counting.enumerate", 0),
        "counting.matrices_found": found,
        "counting.enumerate_s": enumerate_s,
        "counting.found_per_ms": found / (1e3 * enumerate_s),
        "counting.classify_self_s": self_s.get("counting.classify", 0.0),
        "counting.amplified_self_s": self_s.get("counting.amplified", 0.0),
        "harness.cells": len(cells),
        "harness.skipped_cells": traced["ampl-sweep"]["trace"]["work"].get("harness.cell", 0),
        "harness.cell_ms_p50": 1e3 * statistics.median(cells),
        "harness.cell_ms_max": 1e3 * cells[0],
        "harness.top10_share": sum(cells[:10]) / sum(cells),
        "harness.pool_utilisation": pool["cpu_s"] / (pool["jobs"] * pool["wall_s"]),
        "harness.sample_s": total.get("harness.sample", 0.0),
        "harness.self_s": self_s.get("harness.cell", 0.0),
        "bounds.bound_rhs_s": total.get("bounds.bound_rhs", 0.0),
        "conjugation.outcome_construction": gap["construction"],
        "conjugation.outcome_search": gap["search"],
        "conjugation.outcome_failed": gap["failed"],
        "conjugation.lattice_calls": calls.get("conjugation.lattice_target", 0)
        + calls.get("conjugation.lattice_provable", 0),
        "conjugation.lattice_target_s": total.get("conjugation.lattice_target", 0.0),
        "conjugation.lattice_provable_s": total.get("conjugation.lattice_provable", 0.0),
        "conjugation.search_point_s": sum(summ["searched"]),
        "conjugation.search_candidates": candidates,
        "conjugation.candidates_per_success": candidates / max(1, gap["search"]),
        "conjugation.width_one_s": total.get("conjugation.width_one", 0.0),
        "conjugation.gap_self_s": self_s.get("conjugation.gap_reduce", 0.0),
        "modgroup.fd_reduce_s": total.get("modgroup.fd_reduce", 0.0),
        "modgroup.mobius_act_calls": calls.get("modgroup.mobius_act", 0),
        "modgroup.mobius_act_s": total.get("modgroup.mobius_act", 0.0),
        "cusps.local_profile_s": total.get("cusps.local_profile", 0.0),
        "hecke.coset_reps_calls": calls.get("hecke.coset_reps", 0),
        "hecke.reps_built": work.get("hecke.coset_reps", 0),
        "hecke.coset_reps_s": total.get("hecke.coset_reps", 0.0),
        "hecke.count_invariance_s": total.get("hecke.count_invariance", 0.0),
        "hecke.conjugation_invariance_s": total.get("hecke.conjugation_invariance", 0.0),
        "hecke.conjugations_checked": work.get("hecke.conjugation_invariance", 0),
        "cusps.enumerate_cusps_s": total.get("cusps.enumerate_cusps", 0.0),
        "bounds.pipeline_s": total.get("bounds.pipeline", 0.0),
        "trace.overhead": sum(p["wall_s"] for p in traced.values())
        / sum(p["wall_s"] for p in untraced.values()),
    }


class Gate:
    """Collects correctness problems; any problem makes the run incorrect."""

    def __init__(self):
        self.problems: list[str] = []
        with open(os.path.join(BENCH, "reference.json")) as fh:
            self.references = json.load(fh)

    def check_pass(self, doc: dict) -> None:
        for problem in doc["problems"]:
            self.problems.append(f"{doc['workload']}: {problem}")

    def check_repeat(self, label: str, docs: list[dict]) -> None:
        first = docs[0]
        for doc in docs[1:]:
            if (doc["digest"], doc["counts"]) != (first["digest"], first["counts"]):
                self.problems.append(
                    f"{label}: outputs differ ({first['digest'][:12]} {first['counts']} "
                    f"vs {doc['digest'][:12]} {doc['counts']})"
                )

    def check_reference(self, doc: dict, size: str) -> None:
        """A pass on the inputs of seed 0 must reproduce the recorded output."""
        ref = self.references[size][doc["workload"]]
        if (doc["digest"], doc["counts"]) != (ref["digest"], ref["counts"]):
            self.problems.append(
                f"{doc['workload']} ({size}, seed 0): output {doc['digest'][:12]} "
                f"{doc['counts']} != reference {ref['digest'][:12]} {ref['counts']}"
            )


def describe_machine() -> str:
    return (
        f"nproc={nproc()} machine={platform.machine()} "
        f"python={platform.python_version()} "
        f"mpmath={importlib.metadata.version('mpmath')}"
    )


def load_units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cuspnorm", "__init__.py")):
        log(f"no cuspnorm package under {SRC}; run from a source checkout")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    log(describe_machine())

    gate = Gate()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    passes: list[dict] = []
    try:
        if args.trace:
            untraced, traced = {}, {}
            for name in WORKLOAD_NAMES:
                untraced[name] = run_pass(name, args.seed, 1, False, args.size, deadline)
                traced[name] = run_pass(name, args.seed, 1, True, args.size, deadline)
                gate.check_repeat(f"{name} traced", [untraced[name], traced[name]])
            pool = run_pass("ampl-sweep", args.seed, nproc(), False, args.size, deadline)
            gate.check_repeat("ampl-sweep jobs=nproc", [untraced["ampl-sweep"], pool])
            passes = [*untraced.values(), *traced.values(), pool]
            first_passes = list(untraced.values())
            metrics = layer_metrics(traced, untraced, pool)
        else:
            jobs = workload_jobs(args.workload)
            while True:
                seed = draw_seed(args.seed, max(0, len(passes) - 1))
                passes.append(run_pass(args.workload, seed, jobs, False, args.size, deadline))
                now = time.monotonic()
                out_of_time = now + 2 * passes[-1]["wall_s"] > deadline
                if now - started >= args.seconds or out_of_time:
                    break
            gate.check_repeat(f"{args.workload} repeat", passes[:2])
            first_passes = passes[:1]
            metrics = end_to_end(passes)
        if args.seed == 0:
            for doc in first_passes:
                gate.check_reference(doc, args.size)
        if args.size == "full":  # canaries: every run checks recorded outputs
            for doc in first_passes:
                name = doc["workload"]
                canary = run_pass(name, 0, workload_jobs(name), False, "tiny", deadline)
                gate.check_pass(canary)
                gate.check_reference(canary, "tiny")
    except PassFailed as exc:
        log(f"FAILED: {exc}")
        return 1
    for doc in passes:
        gate.check_pass(doc)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in gate.problems:
        log(f"INCORRECT: {problem}")
    log(f"attempted={attempted} failed={failed} wall={time.monotonic() - started:.1f}s")
    units = load_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not gate.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not gate.problems else 1


if __name__ == "__main__":
    sys.exit(main())
