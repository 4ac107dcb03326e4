"""Guards for the code outside the package that drives its API: the
benchmark's tracer (perfbench/tracing.py), its workloads and their
recorded output digests (perfbench/reference.json), and the demos."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def load_perfbench(name: str):
    # by path: perfbench is not a package on the test path
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_perfbench("tracing")
    for layer, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"grinv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"grinv.{layer}.{name}"
    for layer, cls, meth in tracing.METHODS:
        owner = getattr(importlib.import_module(f"grinv.{layer}"), cls)
        assert meth in owner.__dict__, f"grinv.{layer}.{cls}.{meth}"


def test_the_tracer_installs_after_a_bare_import():
    """In a fresh interpreter, as perfbench/run.py goes: `import grinv`,
    the workloads and the tracer loaded by path, the tracer installed
    (it looks each traced layer up in sys.modules) and undone."""
    code = f"""
import importlib.util, sys
import grinv

def load(name):
    spec = importlib.util.spec_from_file_location(name, {str(ROOT / "perfbench")!r} + f"/{{name}}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

load("workloads")
tracing = load("tracing")
invariants = sys.modules["grinv.invariants"]
gri = invariants.gri
undo = tracing.install(tracing.Tracer())
assert invariants.gri is not gri
undo()
assert invariants.gri is gri
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload,seed", [(w, s) for w in sorted(REFERENCE) for s in sorted(REFERENCE[w])])
def test_workload_digests_match_the_reference(workload, seed, tmp_path):
    # one full-size benchmark pass: its self-checks hold and every output
    # (tables, diagrams, distances, barcodes, all in canonical order) is
    # byte-for-byte the recorded one
    workloads = load_perfbench("workloads")
    setup, run, check = workloads.WORKLOADS[workload]
    inputs = setup(np.random.default_rng(int(seed)), workloads.SIZES["full"][workload], str(tmp_path))
    outputs, _ = run(inputs, lambda job: None)
    results = check(inputs, outputs)
    assert [(job, problem) for job, _, problem in results if problem] == []
    assert {job: digest for job, digest, _ in results} == REFERENCE[workload][seed]
