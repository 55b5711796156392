import json
import os
import subprocess
import sys
from pathlib import Path

import cuspnorm


def test_all_exports_resolve():
    for name in cuspnorm.__all__:
        assert getattr(cuspnorm, name) is not None


def test_version():
    assert cuspnorm.__version__


def test_no_module_imports_mpmath():
    # mpmath is a test reference only: importing every module of the package
    # in a fresh interpreter leaves it unloaded.  So must numpy, which alone
    # adds about 10 MB of peak RSS to every run of the package.  The process
    # pool (multiprocessing, pickle, socket, subprocess, ...) is loaded only
    # by a harness sweep that fans out: not on import, not by a jobs=1 sweep
    # and not by a CLI command that runs no sweep
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import importlib, json, pkgutil, sys, cuspnorm\n"
        "def pool(): return ['concurrent.futures.process' in sys.modules,"
        " 'multiprocessing' in sys.modules]\n"
        "names = [m.name for m in pkgutil.iter_modules(cuspnorm.__path__, 'cuspnorm.')]\n"
        "for name in names: importlib.import_module(name)\n"
        "from cuspnorm import cli, harness\n"
        "out = dict(count=len(names), mpmath='mpmath' in sys.modules,"
        " numpy='numpy' in sys.modules, imported=pool())\n"
        "cfg = dict(lemma='para', n_lo=1, n_hi=2)\n"
        "serial = harness.lemma_harness(harness.HarnessConfig(**cfg)).rows\n"
        "out['serial'] = pool()\n"
        "assert cli.run(['hecke', '--level', '12', '--l', '5']).exit_code == 0\n"
        "out['cli'] = pool()\n"
        "pooled = harness.lemma_harness(harness.HarnessConfig(**cfg, jobs=2)).rows\n"
        "out['pooled'] = pool()\n"
        "out['rows'] = len(serial), pooled == serial\n"
        "print(json.dumps(out))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["count"] == len(list((src / "cuspnorm").glob("*.py"))) - 1  # all but __init__
    assert out["mpmath"] is False
    assert out["numpy"] is False
    assert out["imported"] == out["serial"] == out["cli"] == [False, False]
    assert out["pooled"] == [True, True]
    assert out["rows"][0] > 1 and out["rows"][1] is True
