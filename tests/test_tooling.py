"""Guards for the code outside the package that drives its API: the
benchmark's tracer (perfbench/tracing.py) and the demos."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_exist():
    # load the tracer by path: perfbench is not a package on the test path
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"grinv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"grinv.{layer}.{name}"
    for layer, cls, meth in tracing.METHODS:
        owner = getattr(importlib.import_module(f"grinv.{layer}"), cls)
        assert meth in owner.__dict__, f"grinv.{layer}.{cls}.{meth}"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
