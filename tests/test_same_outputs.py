"""Byte-identity gate: sha256 digests of CLI stdout, recorded at commit
367463d, for the harness CSV of every lemma at N <= 12, three `reduce`
points (construction, the honest failure, search) and the README `count`,
`hecke` and `exponent` examples; recorded at commit 15e7f75, one
digest of `gap_reduce(z, n).to_json()` over the C3 points with N <= 12
(construction, search and one failed certificate, whose verdict strings
are not trivial); recorded at commit 90a3a5f, the same digest over
all 6,000 C3 points with N <= 60 (all seven failed certificates); and,
recorded at commit 535ee51, digests of `coset_reps_delta(l, N, M).to_json()`
over the C7 table grid and of `conjugation_invariance(...).to_json()` over
the C7 conjugation grid; recorded at commit 7f28a1c, the para harness CSV
at seed 5, the ampl harness CSV at --jobs 2 (the same digest as at
--jobs 1) and a `count --matrices` call at M = 3 whose output holds
matrices with c < 0 and with c = 0, a < 0 (the negated windows); and,
recorded at commit 0bb7bd9, the outputs whose inputs echo nothing else
pins: `cusps`, `smooth`, a harness JSON document with `--l1` off its
default, the `exponent --nu` JSON document and one error document.  The
`hecke` digest was re-recorded at the change that echoes the sigma of
`--check-conjugation` in `inputs`.

A refactoring must leave every digest unchanged.  A change that alters an
output on purpose updates the digest here and says why in CHANGES.md.
"""

import hashlib

import json
from math import gcd

import pytest

from cuspnorm.arith import divisors, squarefree_split
from cuspnorm.cli import run
from cuspnorm.conjugation import gap_reduce
from cuspnorm.hecke import conjugation_invariance, coset_reps_delta
from cuspnorm.modgroup import Mat2
from oracles import gap_sweep_points

LEMMAS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "para", "ampl")

CASES = {
    **{
        f"harness-{lemma}": [
            "harness", "--lemma", lemma, "--levels", "1..12", "--seed", "0",
            "--format", "csv",
        ]
        for lemma in LEMMAS
    },
    "harness-para-seed5": [
        "harness", "--lemma", "para", "--levels", "1..12", "--seed", "5",
        "--format", "csv",
    ],
    "harness-ampl-jobs2": [
        "harness", "--lemma", "ampl", "--levels", "1..12", "--seed", "0",
        "--format", "csv", "--jobs", "2",
    ],
    "reduce-construction": ["reduce", "--level", "4", "--point", "1/2,1/4"],
    "reduce-failed": ["reduce", "--level", "4", "--point", "3/5,1/4"],
    "reduce-search": ["reduce", "--level", "2", "--point=-1/17,14/17"],
    "count-matrices": [
        "count", "--level", "4", "--m", "2", "--l", "1", "--delta", "1/100",
        "--point", "0/1,2/1", "--matrices",
    ],
    "count-matrices-negated": [
        "count", "--level", "9", "--m", "3", "--l", "10", "--delta", "1",
        "--point", "1/3,1/2", "--matrices",
    ],
    "hecke": [
        "hecke", "--level", "9", "--m", "3", "--l", "4",
        "--check-conjugation", "1,0,3,1",
    ],
    "exponent-main": ["exponent", "--case", "main"],
    "exponent-case2-text": [
        "exponent", "--case", "case2", "--nu", "1/2", "--format", "text",
    ],
    "exponent-case2-json": ["exponent", "--case", "case2", "--nu", "1/2"],
    "cusps": ["cusps", "--level", "12"],
    "smooth": ["smooth", "--x", "12", "--level", "6"],
    "harness-eq3-l1-json": [
        "harness", "--lemma", "eq3", "--levels", "1..6", "--l1", "2",
    ],
}

DIGESTS = {
    "harness-eq1": "3fd1a7fedfe7e54a7fc6a6404be091d6b2e1caeb9ce4ebbf0ca5a098e6b1aa63",
    "harness-eq2": "e300ba33a87b265d0ea78ca63ab1066cd8faef4dfef54b17d2b17f38c4362eb7",
    "harness-eq3": "2267086f262d0280a9ea14978a1322aeb481836d22d28cfff36ed32c1e004988",
    "harness-eq4": "cf122b205b9ff2f422614c2587fd53bdc86b4fc87a9b131815675dc3a85af95b",
    "harness-eq5": "56c35b0f110844738f96f6c5c8e847b58f829c12545e3e9adea14e1d8ac12c15",
    "harness-eq6": "ed94f9e951a74730380128ae228a350c4fcba543d209d4dd2bc2fa22350f2b0e",
    "harness-eq7": "b6997a92a642c5f7d019f456b61560fe19d6ba00bd2fb7955f1528bff7077345",
    "harness-para": "d52230aadfa064177c33be943eb265dc2b3d276d5761ff99d5ab1ff4ceaa3035",
    "harness-ampl": "4f463d3e41d68dc5aa6fbc573e4c42cd5ea6f9276868a4db1504e0fd9c73f35d",
    "harness-para-seed5": "4124c52e953c337f0f5e3492c91f9403ad17df9ed591b7368217315efa56418d",
    "harness-ampl-jobs2": "4f463d3e41d68dc5aa6fbc573e4c42cd5ea6f9276868a4db1504e0fd9c73f35d",
    "reduce-construction": "c875de3eea079b3fd4375f8213096adba8140aeec2c83d21c6f26c31bf6377f8",
    "reduce-failed": "f9094223c8fcc360eff4f34936e1e616d158eba275953a9f7b1f4d709bd05c9f",
    "reduce-search": "cd6f5bc241499368c8018e3251b13c9f0a60ca63bb95bb71f77433986118c463",
    "count-matrices": "61d17f367606e5066215e79c36a774bbcebb5a5ce2bcc880d166d1fbed18958b",
    "count-matrices-negated": "6e67a0853a349be2a25158cab2c578daa6554beac9f91953953fe240fef12b21",
    "hecke": "c5daa5987e9b253f7815d83db3b5757981a45f90e8674203e6bd5868ed42fa15",
    "exponent-main": "4138f45b4cec1ad368832475f198ffc1562299e8e8ee31487c4cf927325cabaf",
    "exponent-case2-text": "3e2b64afaeefc687c861596d49a3ac1f4b131ab019bc505be26c7d5ec87fabe0",
    "exponent-case2-json": "c4c11597e46768631df90aff1f5a7e089cc6e43303e3f7f2943e395beb921757",
    "cusps": "e05332bba758a0c02fd302e429f8814a00e1073a1558bcc83dcdc23213d9144b",
    "smooth": "c34cfe8ebcf5c34c4ee906be06cf48c4c4bbb4d5bc60507516719c975762b0c7",
    "harness-eq3-l1-json": "b36a244deea5ae5a5c9f232e5c7ea090a78d274890a1511049ddb30aa5f25e3e",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest_unchanged(name, monkeypatch):
    monkeypatch.delenv("CUSPNORM_PRECISION", raising=False)  # digits as recorded
    result = run(CASES[name])
    assert result.exit_code == 0, result.payload
    digest = hashlib.sha256(result.rendered().encode()).hexdigest()
    assert digest == DIGESTS[name]


ERROR_DIGEST = "5b83c387cf145a51387e2476c4b3feae39c076a7e73ec8af0ae3af437dec87dd"


def test_error_document_digest_unchanged(monkeypatch):
    """A domain error exits 1 and echoes no inputs."""
    monkeypatch.delenv("CUSPNORM_PRECISION", raising=False)
    result = run(["count", "--level", "0", "--l", "1", "--point", "0,1"])
    assert result.exit_code == 1
    assert result.inputs == {}
    assert hashlib.sha256(result.rendered().encode()).hexdigest() == ERROR_DIGEST


GAP_DIGEST = "089a164f78732da94d0ca1ce5555444142df67bf11eb205de874e2abe01fbfc8"
GAP_SWEEP_DIGEST = "d5f0ea0d0c206c64052093c98f20c82fe9bfef0eb8a4bff9b4b9522978f07bc1"


def _json_digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _gap_digest(n_max: int) -> str:
    return _json_digest(gap_reduce(z, n).to_json() for n, z in gap_sweep_points(n_max))


def test_gap_reduce_digest_unchanged():
    assert _gap_digest(12) == GAP_DIGEST


def test_gap_sweep_digest_unchanged():
    assert _gap_digest(60) == GAP_SWEEP_DIGEST


COSET_TABLES_DIGEST = "34048b2ea4f87a3b9e7ad252643d2c79d77faec028e5250dc8f5a65b8a506bd7"
CONJUGATION_DIGEST = "370e8076319b9be223d79055456bda299bdb15ea5ca8d0f656341b3547c4e4db"


def test_coset_tables_digest_unchanged():
    """Every table of the C7 grid: N <= 60, M | N0, l <= 12, gcd(l, N) = 1."""
    docs = (
        coset_reps_delta(l, n, m).to_json()
        for n in range(1, 61)
        for m in divisors(squarefree_split(n)[1])
        for l in range(1, 13)
        if gcd(l, n) == 1
    )
    assert _json_digest(docs) == COSET_TABLES_DIGEST


def test_conjugation_invariance_digest_unchanged():
    """The C7 conjugation grid: sigma = (1, 0; N/M, 1), M^2 | N, l <= 13."""
    docs = (
        conjugation_invariance(
            Mat2(1, 0, n // m, 1), l, n, m, budget=150, seed=7
        ).to_json()
        for n in (4, 8, 9, 16, 25, 27, 36)
        for m in range(1, n + 1)
        if n % (m * m) == 0
        for l in range(1, 14)
        if l % m == 1 % m
    )
    assert _json_digest(docs) == CONJUGATION_DIGEST
