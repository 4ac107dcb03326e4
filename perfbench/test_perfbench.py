"""The benchmark's own test: every workload at a tiny size, metric names and units,
count determinism, output checks that catch wrong answers, refusal without sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--scale", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric_and_repeats_its_counts(workload):
    e2e = result(run(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())

    first, second = (result(run(workload, 1))["metrics"] for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = {k: v["value"] for k, v in first.items() if v["unit"] != "s"}
    assert counts == {k: v["value"] for k, v in second.items() if v["unit"] != "s"}


def one_pass(name: str, tmp_path):
    setup, run_pass, check = workloads.WORKLOADS[name]
    inputs = setup(np.random.default_rng(3), workloads.SIZES["tiny"][name], str(tmp_path))
    outputs, _ = run_pass(inputs, lambda job: None)
    assert all(problem is None for _, _, problem in check(inputs, outputs))
    return inputs, outputs, check


def test_checks_catch_a_wrong_rank(tmp_path):
    inputs, outputs, check = one_pass("rank_table", tmp_path)
    table = outputs["table0"]
    ranks = list(table.ranks)
    ranks[-1] += 1
    outputs["table0"] = type(table)(table.collection, tuple(ranks))
    assert check(inputs, outputs)[0][2] is not None


def test_checks_catch_a_wrong_diagram_and_exit_code(tmp_path):
    inputs, outputs, check = one_pass("signed_diagram", tmp_path)
    code, out = outputs["sparse1.gpd"]
    lines = out.splitlines()
    members, value = lines[0].rsplit("\t", 1)
    outputs["sparse1.gpd"] = (code, "\n".join([f"{members}\t{int(value) + 1}"] + lines[1:]))
    outputs["dense.gri"] = (4, outputs["dense.gri"][1])
    problems = {job: problem for job, _, problem in check(inputs, outputs)}
    assert problems["sparse1.gpd"] is not None and problems["dense.gri"] is not None
    assert problems["sparse2.gpd"] is None


def test_checks_catch_a_wrong_barcode(tmp_path):
    inputs, outputs, check = one_pass("zigzag_paths", tmp_path)
    bc = outputs["barcode0"]
    (span, mult), *rest = bc.bars
    outputs["barcode0"] = type(bc)(bc.path, ((span, mult + 1), *rest))
    problems = {job: problem for job, _, problem in check(inputs, outputs)}
    assert problems["barcode0"] is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(BENCH["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
