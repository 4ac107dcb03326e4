"""grinv benchmark: one seeded workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload rank_table --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; grinv is imported from ``src/`` there and
nowhere else.  One process, one thread.  The run repeats passes until
the next one would end after ``--seconds``; each pass builds its inputs
from the seed (timed as set-up), runs the pipeline (timed), then checks
the outputs (untimed).

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pipeline's wall and CPU seconds and set-up seconds, all scaled to a
reference CPU speed (see ``speed.py``), peak RSS and the share of jobs
whose outputs were correct.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones; see
``tracing.py`` and README.md.

The last line of stdout is the result object.  The line before it is
the environment stamp.  Both, plus the spans of a traced run, are also
written under ``.perfbench_out/`` in the checkout.

``--record-reference`` rewrites ``reference.json``: the output digests
of one pass of every workload on the named seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
NAMED_SEEDS = (1, 2)  # default seed and held-out seed, with recorded digests
IMPORT_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
             "ok_ratio": "ratio"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Median wall time of `import grinv` (numpy included) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import grinv; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(args, sizes) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "grinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(), "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "processes": 1, "threads": 1,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "sizes": sizes,
    }


def git_sha() -> str | None:
    """HEAD of a `.git` directory in the checkout itself; None when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args, workloads, tracing, speed):
    import numpy as np

    setup, run, check = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.scale][args.workload]
    reference = {}
    if args.scale == "full" and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(args.seed), {})
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    job_names: list[str] = []

    def begin_job(name):
        job_names.append(name)
        if tracer is not None:
            tracer.job = len(job_names) - 1

    setups, walls, cpus, scales, traced_walls, layer_runs = [], [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    sizes = dict(size)
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        inputs = setup(np.random.default_rng(args.seed), size, str(workdir))
        setups.append(time.perf_counter() - pass_start)
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset_totals()
            uninstall = tracing.install(tracer)
        probe = speed.SpeedProbe() if tracer is None else contextlib.nullcontext()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with probe:
                outputs, pass_sizes = run(inputs, begin_job)
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if traced:
                uninstall()
        sizes.update(pass_sizes)
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tracing.layer_metrics(tracer, pass_sizes.get("stdout_bytes", 0)))
        else:
            walls.append(wall)
            cpus.append(cpu)
            if tracer is None:
                scales.append(probe.scale())
        for job, digest, problem in check(inputs, outputs):
            attempted += 1
            if problem is None and reference and reference.get(job) != digest:
                problem = "output digest differs from the reference"
            if problem is not None:
                failed += 1
                problems.append(f"{job}: {problem}")
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        enough = len(walls) >= 1 and (tracer is None or traced_walls)
        if enough and now - start + longest > args.seconds:
            break

    for problem in dict.fromkeys(problems):
        print(f"perfbench: failed job {problem}", file=sys.stderr)
    if tracer is None:
        # seconds at the reference speed (see speed.py); the imports run in
        # other processes, so they take the run's median scale
        metrics = {
            "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
            "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
            "setup_s": import_seconds() * statistics.median(scales)
            + statistics.median(s * k for s, k in zip(setups, scales)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - failed / attempted,
        }
        units = E2E_UNITS
    else:
        # times are medians over the traced passes; counts, bytes and ratios
        # must repeat exactly, so they come from the first traced pass
        units = tracing.LAYER_UNITS
        metrics = {k: statistics.median(run[k] for run in layer_runs) if units[k] == "s" else v
                   for k, v in layer_runs[0].items()}
        counts = [{k: v for k, v in run.items() if units[k] != "s"} for run in layer_runs]
        if any(c != counts[0] for c in counts):
            print("perfbench: traced passes of one input gave different counts", file=sys.stderr)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"), job_names)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    passes = {"setup_s": setups, "wall_s": walls, "cpu_s": cpus, "scale": scales,
              "traced_wall_s": traced_walls}
    return result, sizes, passes


def record_reference(workloads) -> dict:
    import numpy as np

    workdir = OUT / "work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, (setup, run, check) in workloads.WORKLOADS.items():
        for seed in NAMED_SEEDS:
            inputs = setup(np.random.default_rng(seed), workloads.SIZES["full"][name], str(workdir))
            outputs, _ = run(inputs, lambda job: None)
            jobs = {}
            for job, digest, problem in check(inputs, outputs):
                if problem is not None:
                    raise SystemExit(f"perfbench: {name} seed {seed} {job}: {problem}")
                jobs[job] = digest
            out.setdefault(name, {})[str(seed)] = jobs
            print(f"recorded {name} seed {seed}: {len(jobs)} jobs", file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("rank_table", "signed_diagram", "erosion_shift",
                                           "zigzag_paths"))
    ap.add_argument("--seed", type=int, default=NAMED_SEEDS[0])
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's own test")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the named seeds and exit")
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        return fail("--workload is required")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (SRC / "grinv" / "__init__.py").is_file():
        return fail(f"no grinv sources under {SRC}; run from the root of a grinv checkout")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import grinv

    if Path(grinv.__file__).resolve().parent != SRC / "grinv":
        return fail(f"imported grinv from {grinv.__file__}, not from {SRC}")
    import speed
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        REFERENCE.write_text(json.dumps(record_reference(workloads), indent=1, sort_keys=True)
                             + "\n")
        return 0
    result, sizes, passes = run_workload(args, workloads, tracing, speed)
    env = environment(args, sizes)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "passes": passes, "result": result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
