"""The benchmark tracer wraps package functions by module and name; a
refactor that renames or moves one of them must fail here, in the ordinary
test run, and not only in the benchmark's self-tests."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

from cuspnorm import conjugation, counting, harness
from cuspnorm.modgroup import PointH

BENCH = Path(__file__).resolve().parents[1] / "bench"

# one small input for each probe whose work count is len of its result
LEN_PROBE_INPUTS = {
    ("cuspnorm.counting", "enumerate_delta_near"): (PointH(0, 1), 4, 1, 2, 1),
    ("cuspnorm.conjugation", "_first_column_candidates"): (
        PointH(Fraction(1, 3), Fraction(1, 50)), 1, 1,
    ),
}


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_probe_resolves_to_a_callable(monkeypatch):
    tracing = _tracing(monkeypatch)
    assert tracing.PROBES
    for module, attr, _span, _work in tracing.PROBES:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)


def test_len_probes_return_sized_results(monkeypatch):
    # a probe that returned a generator would pass the test above and fail
    # only once the tracer counted its work
    probes = [(m, a) for m, a, _span, work in _tracing(monkeypatch).PROBES if work is len]
    assert {(m.__name__, a) for m, a in probes} == set(LEN_PROBE_INPUTS)
    for module, attr in probes:
        assert len(getattr(module, attr)(*LEN_PROBE_INPUTS[module.__name__, attr])) > 0


def test_only_para_cells_enumerate_matrices(monkeypatch):
    # the tracer's counting.found_per_ms divides by the time strata-sweep
    # spends in counting.enumerate_delta_near, which only para cells reach,
    # through the harness.classify_counts name that the tracer also wraps
    calls = []

    def counted(module, attr):
        real = getattr(module, attr)

        def wrapper(*args):
            calls.append(attr)
            return real(*args)

        monkeypatch.setattr(module, attr, wrapper)

    counted(counting, "enumerate_delta_near")
    counted(harness, "classify_counts")
    for lemma, lval, reaches in (("para", 1, True), ("eq1", 2, False), ("eq6", 2, False)):
        calls.clear()
        row = harness._run_cell((lemma, 1, 1, lval, 0, 0, "1", 1))
        assert row["lhs"] != "0.0"
        expected = ["classify_counts", "enumerate_delta_near"] if reaches else []
        assert calls == expected, lemma


def test_gap_reduce_reaches_every_conjugation_probe(monkeypatch):
    # a helper that gap_reduce called directly, not through the conjugation
    # module, would leave the tracer's metric for it at zero; the provable
    # floor is scanned only for a returned certificate whose target floor
    # fails, so a search success never calls it
    wrapped = {a for m, a, _span, _work in _tracing(monkeypatch).PROBES if m is conjugation}
    names = (
        "fd_reduce",
        "width_one_conjugate",
        "local_profile",
        "mobius_act",
        "verify_gap_certificate",
        "verify_gap_provable",
        "_first_column_candidates",
    )
    assert wrapped == {"gap_reduce", *names}
    calls = []

    def counted(attr):
        real = getattr(conjugation, attr)

        def wrapper(*args):
            calls.append(attr)
            return real(*args)

        monkeypatch.setattr(conjugation, attr, wrapper)

    for attr in names:
        counted(attr)
    for n, z, method, lattice_ok, reached in (
        (4, PointH(Fraction(3, 5), Fraction(1, 4)), "construction", False,  # honest failure
         set(names)),
        (2, PointH(Fraction(-1, 17), Fraction(14, 17)), "search", True,
         set(names) - {"verify_gap_provable"}),
    ):
        calls.clear()
        cert = conjugation.gap_reduce(z, n)
        assert (cert.method, cert.verification["lattice_ok"]) == (method, lattice_ok)
        assert set(calls) == reached, (n, z)
