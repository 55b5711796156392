"""The benchmark's own tests, at tiny input sizes (about half a minute).

    python3 bench/selftest.py

They check that every metric prints with its unit, that the digest gate
fails on a perturbed output, that traced and untraced passes give identical
outputs, that harness outputs agree between jobs=1 and jobs = nproc, and
that the command refuses to run without the package's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.SIZES["tiny"]


def bench_command(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class MetricsTest(unittest.TestCase):
    def check_output(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_workload_names_agree(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = [w["name"] for w in json.load(fh)["workloads"]]
        self.assertEqual(declared, list(run.WORKLOAD_NAMES))
        self.assertEqual(declared, list(workloads.WORKLOADS))

    def test_end_to_end_metrics_print_with_units(self):
        for name in run.WORKLOAD_NAMES:
            proc = bench_command(
                "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--size", "tiny",
            )
            self.check_output(proc, "end_to_end")

    def test_per_layer_metrics_print_with_units(self):
        proc = bench_command(
            "--workload", "gap-sweep", "--seed", "3", "--seconds", "1",
            "--trace", "1", "--size", "tiny",
        )
        self.check_output(proc, "per_layer")

    def test_refuses_without_package_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_command(
                "--workload", "gap-sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=bare,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class GateTest(unittest.TestCase):
    def passes(self, workload, seed=5):
        inputs = workloads.WORKLOADS[workload].make_inputs(seed, TINY, 1)
        results, _ = workloads.WORKLOADS[workload].execute(inputs, None)
        return inputs, results

    def doc(self, workload, out):
        return {"workload": workload, "digest": out.digest, "counts": out.counts,
                "problems": out.problems}

    def check_against(self, good, bad, workload):
        """The gate passes good as its own reference and fails bad."""
        gate = run.Gate()
        gate.references = {"tiny": {workload: {"digest": good.digest,
                                               "counts": good.counts}}}
        gate.check_reference(self.doc(workload, good), "tiny")
        self.assertEqual(gate.problems, [])
        gate.check_reference(self.doc(workload, bad), "tiny")
        self.assertTrue(gate.problems)

    def test_perturbed_hecke_table_fails(self):
        ops, results = self.passes("hecke-tables")
        good = workloads.check_hecke(ops, results)
        self.assertEqual(good.problems, [])
        table = next(r for op, r in zip(ops, results) if op[0] == "table" and r.count > 1)
        table.reps.pop()
        bad = workloads.check_hecke(ops, results)
        self.assertNotEqual(bad.digest, good.digest)
        self.assertTrue(any("sigma(l)" in p for p in bad.problems))
        self.check_against(good, bad, "hecke-tables")

    def test_perturbed_harness_row_fails(self):
        configs, results = self.passes("strata-sweep")
        good = workloads.check_harness(configs, results)
        row = results[0].rows[0]
        row["lhs"] = str(float(row["lhs"]) + 1)
        bad = workloads.check_harness(configs, results)
        self.assertNotEqual(bad.digest, good.digest)
        gate = run.Gate()
        gate.check_repeat("strata-sweep", [self.doc("strata-sweep", good),
                                           self.doc("strata-sweep", bad)])
        self.assertTrue(gate.problems)
        self.check_against(good, bad, "strata-sweep")

    def test_perturbed_gap_certificate_fails(self):
        points, certs = self.passes("gap-sweep")
        good = workloads.check_gap(points, certs)
        certs[0].verification["lattice_provable_ok"] = False
        certs[0].verification["lattice_ok"] = False
        bad = workloads.check_gap(points, certs)
        self.assertNotEqual(bad.digest, good.digest)
        self.assertTrue(any("C3'" in p for p in bad.problems))
        self.check_against(good, bad, "gap-sweep")

    def test_recorded_tiny_outputs_reproduce(self):
        gate = run.Gate()
        for name in run.WORKLOAD_NAMES:
            inputs, results = self.passes(name, seed=0)
            out = workloads.WORKLOADS[name].check(inputs, results)
            gate.check_reference(self.doc(name, out), "tiny")
        self.assertEqual(gate.problems, [])

    def test_raised_sweep_fails_all_its_cells(self):
        configs, results = self.passes("strata-sweep")
        results[1] = RuntimeError("simulated abort")
        out = workloads.check_harness(configs, results)
        self.assertEqual(out.failed, len(workloads.harness.harness_cells(configs[1])))


class AgreementTest(unittest.TestCase):
    def pass_doc(self, workload, jobs, trace):
        return run.run_pass(workload, 4, jobs, trace, "tiny", time.monotonic() + 150)

    def test_traced_and_untraced_outputs_match(self):
        for name in run.WORKLOAD_NAMES:
            plain = self.pass_doc(name, 1, False)
            traced = self.pass_doc(name, 1, True)
            self.assertEqual(plain["problems"], [])
            self.assertEqual((plain["digest"], plain["counts"]),
                             (traced["digest"], traced["counts"]), name)
            self.assertIn("trace", traced)

    def test_harness_digest_independent_of_jobs(self):
        sweeps = {
            "ampl-sweep": (("ampl",), TINY["ampl_levels"]),
            "strata-sweep": (workloads.STRATA_LEMMAS, TINY["strata_levels"]),
        }
        for name, (lemmas, levels) in sweeps.items():
            outs = []
            for jobs in (1, max(2, run.nproc())):
                configs = workloads.harness_inputs(lemmas, levels, 1, 4, jobs)
                with tempfile.TemporaryDirectory() as clock_dir:
                    results, item_s = workloads.execute_harness(configs, clock_dir)
                out = workloads.check_harness(configs, results)
                self.assertEqual(len(item_s), out.attempted)
                outs.append((out.digest, out.counts))
            self.assertEqual(outs[0], outs[1], name)


if __name__ == "__main__":
    unittest.main()
