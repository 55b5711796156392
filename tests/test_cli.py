import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspnorm.cli import main, run
from cuspnorm.harness import CSV_HEADER, CSV_VERSION
from cuspnorm.modgroup import Mat2, PointH


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(**extra) -> dict:
    """os.environ with the repo's src first on PYTHONPATH, so a child
    `python -m cuspnorm.cli` imports this checkout without an install."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def payload(argv):
    result = run(argv)
    assert result.exit_code == 0, result.payload
    return result.payload


def test_cusps_command():
    doc = payload(["cusps", "--level", "12"])
    assert doc["level"] == 12
    assert len(doc["cusps"]) == 6
    widths = sorted(k["width"] for k in doc["cusps"])
    assert widths == [1, 1, 3, 3, 4, 12]


def test_reduce_command_roundtrip():
    doc = payload(["reduce", "--level", "4", "--point", "1/2,1/4"])
    assert doc["verification"]["y_bound_ok"] is True
    assert doc["verification"]["lattice_ok"] is True
    # matrices in the payload re-parse into domain types
    sigma = Mat2(*[e for row in doc["sigma"] for e in row])
    assert sigma.is_sl2()
    z_prime = PointH.parse(doc["z_prime"])
    assert z_prime.y > 0


def test_count_command():
    doc = payload([
        "count", "--level", "4", "--m", "2", "--l", "1",
        "--delta", "1/100", "--point", "0/1,2/1",
    ])
    assert (doc["n_star"], doc["n_u"], doc["n_p"]) == (0, 0, 2)
    assert "star" not in doc
    doc = payload([
        "count", "--level", "4", "--m", "2", "--l", "1",
        "--delta", "1/100", "--point", "0/1,2/1", "--matrices",
    ])
    assert doc["parabolic"] == [[[1, 0], [0, 1]]] or len(doc["parabolic"]) == 2


def test_exponent_command():
    doc = payload(["exponent", "--case", "main"])
    assert doc["sup_norm_exponent"] == "-1/12"
    # the derivations hold for 0 <= nu <= 1/2 only (N0^2 | N)
    for case, nu, expected in (
        ("case2", "1/2", "-1/8"), ("case2", "0", "-1/6"), ("main", "1/4", "-1/12"),
    ):
        doc = payload(["exponent", "--case", case, "--nu", nu])
        assert doc["exponent_at_nu"] == expected, (case, nu)
    for argv in (
        ["exponent", "--case", "case2", "--nu", "3"],
        ["exponent", "--case", "case2", "--nu", "3", "--format", "text"],
        ["exponent", "--case", "main", "--nu=-1/4"],
    ):
        res = run(argv)
        assert res.exit_code == 1, argv
        assert res.payload["error"]["type"] == "OutOfRange"


def test_smooth_command():
    doc = payload(["smooth", "--x", "12", "--level", "6"])
    assert doc["count"] == 8


def test_hecke_command():
    doc = payload(["hecke", "--level", "4", "--m", "2", "--l", "3"])
    assert doc["count"] == 4
    assert doc["count_invariance"]["equal"] is True
    doc = payload([
        "hecke", "--level", "9", "--m", "3", "--l", "4",
        "--check-conjugation", "1,0,3,1",
    ])
    assert doc["conjugation"]["passed"] is True
    # l = 2 is not 1 (mod M = 2): the check runs but asserts nothing
    doc = payload([
        "hecke", "--level", "4", "--m", "2", "--l", "2",
        "--check-conjugation", "1,0,2,1",
    ])
    conj = doc["conjugation"]
    assert conj["passed"] is False and conj["checked"] == 1
    assert conj["witness"] == [[1, 0], [4, 2]]
    assert "not asserted" in conj["note"]


def test_harness_command_json_and_csv():
    argv = ["harness", "--lemma", "eq7", "--levels", "1..8", "--seed", "3"]
    doc = payload(argv)
    assert doc["lemma"] == "eq7"
    assert doc["rows"]
    row = doc["rows"][0]
    assert set(row) == {
        "lemma", "N", "M", "L_or_Lambda", "delta", "x", "y", "lhs", "rhs", "ratio"
    }
    res = run(argv + ["--format", "csv"])
    lines = res.payload.splitlines()
    assert lines[0] == f"# {CSV_VERSION}"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(doc["rows"])


def test_harness_echoes_l1_off_its_default():
    argv = ["harness", "--lemma", "eq3", "--levels", "1..6"]
    one, two = run(argv + ["--l1", "1"]), run(argv + ["--l1", "2"])
    assert one.exit_code == two.exit_code == 0
    assert "l1" not in one.inputs and two.inputs["l1"] == 2
    assert one.rendered() == run(argv).rendered()
    assert one.payload["rows"] != two.payload["rows"]
    csv_one = run(argv + ["--l1", "1", "--format", "csv"]).payload
    csv_two = run(argv + ["--l1", "2", "--format", "csv"]).payload
    assert csv_one != csv_two


def test_harness_rejects_l1_below_one():
    for lemma in ("eq1", "eq3"):
        res = run(["harness", "--lemma", lemma, "--levels", "1..3", "--l1", "0"])
        assert res.exit_code == 1, lemma
        assert res.payload["error"]["type"] == "ConfigError"
        assert "--l1" in res.payload["error"]["message"]


def test_harness_determinism_across_jobs():
    argv = ["harness", "--lemma", "para", "--levels", "1..10", "--seed", "9"]
    one = run(argv + ["--jobs", "1"]).rendered()
    two = run(argv + ["--jobs", "2"]).rendered()
    again = run(argv + ["--jobs", "1"]).rendered()
    assert one == two == again


def test_domain_error_exit_code():
    res = run(["count", "--level", "4", "--m", "3", "--l", "0",
               "--point", "0/1,1/1"])
    assert res.exit_code == 1
    assert "error" in res.payload
    res = run(["reduce", "--level", "0", "--point", "0/1,1/1"])
    assert res.exit_code == 1
    for level in ("0", "-4"):
        res = run(["hecke", "--level", level, "--l", "1"])
        assert res.exit_code == 1, level
        assert res.payload["error"]["type"] == "ValueError"


def test_negative_point_as_separate_argument():
    # a value that starts with '-' follows --point as its own argument
    for argv in (
        ["count", "--level", "4", "--l", "1"],
        ["reduce", "--level", "2"],
    ):
        spaced = run(argv + ["--point", "-2/7,1/9"])
        glued = run(argv + ["--point=-2/7,1/9"])
        assert spaced.exit_code == 0, spaced.payload
        assert spaced.inputs["point"] == "-2/7,1/9"
        assert spaced.rendered() == glued.rendered()
    with pytest.raises(SystemExit) as exc:
        run(["reduce", "--level", "2", "--point"])
    assert exc.value.code == 2


def test_negative_point_after_abbreviated_flag():
    # argparse accepts --p ... --poin for --point; each takes a negative x
    argv = ["count", "--level", "4", "--l", "1"]
    glued = run(argv + ["--point=-2/7,1/9"])
    for flag in ("--p", "--po", "--poi", "--poin"):
        spaced = run(argv + [flag, "-2/7,1/9"])
        assert spaced.exit_code == 0, spaced.payload
        assert spaced.rendered() == glued.rendered()


def test_hecke_echoes_sigma():
    # two passing checks with different sigma print different documents
    hecke = ["hecke", "--level", "4", "--m", "2", "--l", "1", "--check-conjugation"]
    docs = {sigma: run(hecke + [sigma]) for sigma in ("1,0,2,1", "3,1,2,1")}
    for sigma, res in docs.items():
        assert res.payload["conjugation"]["passed"] is True
        assert res.inputs["check_conjugation"] == sigma
    assert docs["1,0,2,1"].rendered() != docs["3,1,2,1"].rendered()
    assert "check_conjugation" not in run(hecke[:-1]).inputs


def test_negated_sigma_as_separate_argument():
    # -sigma acts as sigma does, and may follow --check-conjugation, whole or
    # abbreviated, as a separate argument
    hecke = ["hecke", "--level", "4", "--m", "2", "--l", "1"]
    sigma = payload(hecke + ["--check-conjugation", "1,0,2,1"])["conjugation"]
    assert sigma["passed"] is True
    for flag in ("--check-conjugation", "--c", "--check"):
        res = run(hecke + [flag, "-1,0,-2,-1"])
        assert res.exit_code == 0, res.payload
        assert res.payload["conjugation"] == sigma


@pytest.mark.parametrize("argv, flags, error", [
    (["count", "--level", "4", "--l", "1", "--point", "0/1,1/1"],
     ("--delta", "--d", "--del"), "ValueError"),
    (["exponent", "--case", "case2"], ("--nu", "--n"), "OutOfRange"),
])
def test_negative_value_as_separate_argument(argv, flags, error):
    # a negative --delta or --nu is a domain error in either form, not a
    # usage error
    glued = run(argv + [f"{flags[0]}=-1/4"])
    for flag in flags:
        res = run(argv + [flag, "-1/4"])
        assert res.exit_code == 1, (flag, res.payload)
        assert res.payload["error"]["type"] == error
        assert res.rendered() == glued.rendered()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["count", "--level", "notanint", "--l", "1", "--point", "0/1,1/1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["reduce", "--level", "4", "--point", "zzz"])
    assert exc.value.code == 2
    for levels in ("1-3", "1.."):
        with pytest.raises(SystemExit) as exc:
            run(["harness", "--lemma", "eq7", "--levels", levels])
        assert exc.value.code == 2


def test_cli_subprocess_byte_identical(tmp_path):
    env = child_env()
    cmd = [sys.executable, "-m", "cuspnorm.cli", "exponent", "--case", "main"]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["result"]["sup_norm_exponent"] == "-1/12"


def test_out_file(tmp_path):
    out = tmp_path / "table.csv"
    for out_args in (["--out", str(out)], [f"--out={out}"]):
        cmd = [
            sys.executable, "-m", "cuspnorm.cli", "harness", "--lemma", "eq7",
            "--levels", "1..6", "--seed", "1", "--format", "csv", *out_args,
        ]
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), check=True)
        assert proc.stdout == b""
        text = out.read_text()
        assert text.startswith(f"# {CSV_VERSION}")
        out.unlink()
    # an --out that cannot be opened is a structured error on stdout, found
    # before the sweep runs
    missing = tmp_path / "missing" / "x.csv"
    cmd = [
        sys.executable, "-m", "cuspnorm.cli", "harness", "--lemma", "eq1",
        "--levels", "1..2", "--format", "csv", "--out", str(missing),
    ]
    proc = subprocess.run(cmd, capture_output=True, env=child_env())
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["result"]["error"]["type"] == "FileNotFoundError"
    assert b"Traceback" not in proc.stderr
    assert not missing.parent.exists()


def test_json_out_file_is_stdout(tmp_path, capsys):
    # --out is not echoed, so the JSON document it writes is the one stdout
    # gets without it
    argv = ["harness", "--lemma", "eq1", "--levels", "1..3", "--format", "json"]
    out = tmp_path / "doc.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert out.read_text() == capsys.readouterr().out


def test_precision_env(tmp_path):
    env = child_env(CUSPNORM_PRECISION="12")
    cmd = [sys.executable, "-m", "cuspnorm.cli", "harness", "--lemma", "eq7",
           "--levels", "4..4", "--seed", "1"]
    short = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    env["CUSPNORM_PRECISION"] = "50"
    long = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    doc_s = json.loads(short)
    doc_l = json.loads(long)
    rs, rl = doc_s["result"]["rows"][0], doc_l["result"]["rows"][0]
    assert len(rs["rhs"]) < len(rl["rhs"])
    # a malformed setting is a structured domain error, even for commands
    # that report no reals
    env["CUSPNORM_PRECISION"] = "abc"
    proc = subprocess.run(
        [sys.executable, "-m", "cuspnorm.cli", "cusps", "--level", "4"],
        capture_output=True, env=env,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["result"]["error"]["type"] == "ValueError"
    assert b"Traceback" not in proc.stderr
