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
    # adds about 10 MB of peak RSS to every run of the package
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import importlib, pkgutil, sys, cuspnorm\n"
        "names = [m.name for m in pkgutil.iter_modules(cuspnorm.__path__, 'cuspnorm.')]\n"
        "for name in names: importlib.import_module(name)\n"
        "print(len(names), 'mpmath' in sys.modules, 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    count, mpmath_loaded, numpy_loaded = proc.stdout.split()
    assert int(count) == len(list((src / "cuspnorm").glob("*.py"))) - 1  # all but __init__
    assert mpmath_loaded == "False"
    assert numpy_loaded == "False"
