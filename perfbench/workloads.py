"""The four seeded workloads: input generation, the timed pipeline, output checks.

Each workload is three functions:

* ``setup(rng, size, workdir)`` builds the inputs from the seed (input
  generation, module construction, file writing).  It is timed as set-up.
* ``run(inputs, begin_job)`` is the timed pipeline.  It drives grinv only
  through module attributes looked up at call time (``inv.gri``, not a
  name bound at import), so the traced run's wrappers see every call.
  Each job runs under its own ``try`` so one failure does not hide the
  others; a raised exception is the job's output.
* ``check(inputs, outputs)`` returns ``[(job, digest, problem)]``: the
  digest is compared with the recorded reference on the named seeds, and
  ``problem`` is the first broken self-check (``None`` when all hold).

The self-checks are written here, independently of grinv, and cost far
less than the pipeline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

from grinv import cli, erosion, invariants as inv, posets, zigzag
from grinv.modules import direct_sum, grid_interval_module
from grinv.sampling import random_faithful_path, random_grid_interval, random_interval_decomposable, random_module

SIZES = {
    "full": {
        "rank_table": {"side": 5, "tables": 2, "extra_summands": 4, "budget": (2, 2), "p": 2},
        "signed_diagram": {"side": 4, "sparse_modules": 2, "extra_summands": 4,
                           "collection": "int:2,2", "p": 2},
        "erosion_shift": {"side": 5, "max_summands": 3, "shift": 1, "budget": (2, 2), "p": 2},
        "zigzag_paths": {"side": 5, "extra_summands": 4, "p": 3, "paths": 48, "length": 10,
                         "bound_paths": 6},
    },
    # Small enough that every workload finishes a pass in well under a second;
    # used by the benchmark's own test.
    "tiny": {
        "rank_table": {"side": 3, "tables": 2, "extra_summands": 2, "budget": (2, 2), "p": 2},
        "signed_diagram": {"side": 3, "sparse_modules": 2, "extra_summands": 2,
                           "collection": "intervals", "p": 2},
        "erosion_shift": {"side": 3, "max_summands": 2, "shift": 1, "budget": (2, 2), "p": 2},
        "zigzag_paths": {"side": 3, "extra_summands": 2, "p": 3, "paths": 6, "length": 6,
                         "bound_paths": 2},
    },
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dense_module(rng, side: int, extra: int, p: int):
    """Full-window interval summand plus `extra` random interval summands, scrambled.

    Every point carries at least dimension 1, so no interval rank of this
    module is forced to 0 by the trivial-zero filter.  Each random summand
    covers 40-45% of the window (rejection sampling): with unconstrained
    areas the elimination work of one table varies by more than 2x between
    seeds, which would swamp the timings.
    """
    window = posets.grid_poset(side, side)
    bbox = (0, 0, side - 1, side - 1)
    gis = [posets.GridInterval.rectangle((0, 0), (side - 1, side - 1))]
    while len(gis) <= extra:
        gi = random_grid_interval(rng, bbox)
        if 0.4 <= len(gi) / side**2 <= 0.45:
            gis.append(gi)
    return window, direct_sum(*(grid_interval_module(window, gi, p) for gi in gis)).scramble(rng)


def one_point_extensions(members: frozenset):
    for x, y in members:
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q not in members:
                yield members | {q}


def monotone_problem(ranks: dict) -> str | None:
    """Ranks must not grow under containment; checked on one-point extensions."""
    for ms, r in ranks.items():
        for bigger in one_point_extensions(ms):
            if ranks.get(bigger, -1) > r:
                return f"rank grows from {sorted(ms)} to one more point"
    return None


def parse_tsv(text: str) -> dict:
    """`x,y x,y<TAB>value` lines to {frozenset of points: value}."""
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        members, value = line.rsplit("\t", 1)
        pts = frozenset(tuple(int(t) for t in tok.split(",")) for tok in members.split())
        out[pts] = int(value)
    return out


def guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - a raising job is a failed job, reported by check()
        return e


def raised(*outputs):
    for out in outputs:
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
    return None


# -- rank_table -----------------------------------------------------------------------


def rank_table_setup(rng, size, workdir):
    modules = [dense_module(rng, size["side"], size["extra_summands"], size["p"])
               for _ in range(size["tables"])]
    return {"modules": modules, "side": size["side"], "budget": size["budget"]}


def rank_table_run(inputs, begin_job):
    def table(window, module):
        coll = posets.enumerate_grid_intervals(window, *inputs["budget"])
        return inv.gri(module, coll, cache=inv.RankCache(module))

    outputs = {}
    for k, (window, module) in enumerate(inputs["modules"]):
        begin_job(f"table{k}")
        outputs[f"table{k}"] = guarded(table, window, module)
    return outputs, {"members": sum(len(t.collection) for t in outputs.values()
                                    if not isinstance(t, Exception))}


def rank_table_check(inputs, outputs):
    results = []
    for k, (window, module) in enumerate(inputs["modules"]):
        table = outputs[f"table{k}"]
        problem = raised(table)
        if problem:
            results.append((f"table{k}", None, problem))
            continue
        ranks = {it.member_set: r for it, r in zip(table.collection, table.ranks)}
        expected = posets.count_grid_intervals(inputs["side"], inputs["side"], *inputs["budget"])
        if len(ranks) != expected:
            problem = f"{len(ranks)} members, expected {expected}"
        elif min(table.ranks) < 1:
            problem = "a rank below 1 on a module with a full-window summand"
        else:
            for i, pt in enumerate(window.grid_coords):
                if ranks[frozenset([pt])] != module.dims[i]:
                    problem = f"rank at point {pt} differs from its dimension"
                    break
            else:
                problem = monotone_problem(ranks)
        results.append((f"table{k}", sha(table.to_tsv()), problem))
    return results


# -- signed_diagram -------------------------------------------------------------------

COMMANDS = ("gri", "gpd", "invertible")


def signed_diagram_setup(rng, size, workdir):
    window = posets.grid_poset(size["side"], size["side"])
    modules = {f"sparse{i + 1}": random_module(rng, window, size["p"])
               for i in range(size["sparse_modules"])}
    modules["dense"] = dense_module(rng, size["side"], size["extra_summands"], size["p"])[1]
    files = {}
    for name, module in modules.items():
        files[name] = os.path.join(workdir, f"{name}.txt")
        with open(files[name], "w") as fh:
            fh.write(module.to_text())
    return {"files": files, "collection": size["collection"]}


def signed_diagram_run(inputs, begin_job):
    outputs = {}
    for name, path in inputs["files"].items():
        for cmd in COMMANDS:
            job = f"{name}.{cmd}"
            begin_job(job)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = guarded(cli.main, [cmd, path, "--collection", inputs["collection"]])
            outputs[job] = (code, buf.getvalue())
    stdout_bytes = sum(len(out.encode()) for _, out in outputs.values())
    return outputs, {"stdout_bytes": stdout_bytes}


def signed_diagram_check(inputs, outputs):
    results = []
    for name in inputs["files"]:
        runs = {cmd: outputs[f"{name}.{cmd}"] for cmd in COMMANDS}
        problem = raised(*(code for code, _ in runs.values()))
        if problem is None:
            bad = [cmd for cmd, (code, _) in runs.items() if code != cli.EXIT_OK]
            problem = f"exit codes {[runs[c][0] for c in bad]} from {bad}" if bad else None
        if problem is None:
            problem = _diagram_problem(runs)
        for cmd, (code, out) in runs.items():
            results.append((f"{name}.{cmd}", sha(f"{code}\n{out}"), problem))
    return results


def _diagram_problem(runs) -> str | None:
    """The diagram's superset sums rebuild the table, which is monotone, and
    the invertibility check over the positive-rank support finds the same diagram."""
    table = parse_tsv(runs["gri"][1])
    diagram = parse_tsv(runs["gpd"][1])
    for ms, r in table.items():
        if sum(v for big, v in diagram.items() if ms <= big) != r:
            return f"superset sum of the diagram differs from the rank at {sorted(ms)}"
    problem = monotone_problem(table)
    if problem:
        return problem
    head, _, rest = runs["invertible"][1].partition("\n")
    if head != "invertible":
        return f"invertible printed {head!r}"
    lines = [ln.removeprefix("multiplicity ").replace(" = ", "\t") for ln in rest.splitlines()]
    if parse_tsv("\n".join(lines)) != diagram:
        return "invertible diagram differs from gpd"
    return None


# -- erosion_shift ----------------------------------------------------------------------


def erosion_shift_setup(rng, size, workdir):
    window = posets.grid_poset(size["side"], size["side"])
    module, _ = random_interval_decomposable(rng, window, size["max_summands"], size["p"])
    return {"m1": module, "m2": erosion.shift_module(module, size["shift"]),
            "shift": size["shift"], "budget": size["budget"]}


def erosion_shift_run(inputs, begin_job):
    begin_job("distance")
    m1, m2 = inputs["m1"], inputs["m2"]

    def distance():
        # as `grinv erosion --witness`: one collection and one cache pair for both steps
        collection = erosion.ThickeningFamily(*inputs["budget"]).members_within(
            erosion.union_bbox(m1, m2))
        caches = (inv.RankCache(m1), inv.RankCache(m2))
        d = erosion.erosion_distance(m1, m2, collection, caches=caches)
        witness = erosion.verify_erosion(m1, m2, collection, d - 1, *caches) if d >= 1 else None
        return d, witness, len(collection)

    out = guarded(distance)
    sizes = {} if isinstance(out, Exception) else {"members": out[2]}
    return {"distance": out}, sizes


def erosion_shift_check(inputs, outputs):
    out = outputs["distance"]
    problem = raised(out)
    if problem:
        return [("distance", None, problem)]
    d, witness, _ = out
    if d > inputs["shift"]:
        problem = f"distance {d} exceeds the shift {inputs['shift']}"
    elif d >= 1:
        problem = _witness_problem(inputs["m1"], inputs["m2"], witness, d - 1)
    text = "-" if witness is None else inv.format_members(witness)
    return [("distance", sha(f"{d}\t{text}"), problem)]


def _witness_problem(m1, m2, witness, eps) -> str | None:
    if witness is None:
        return f"no witness at radius {eps} below the distance"
    thick = witness.thicken(eps)
    c1, c2 = inv.RankCache(m1), inv.RankCache(m2)
    if c1.rank(thick) > c2.rank(witness) or c2.rank(thick) > c1.rank(witness):
        return None
    return f"witness {inv.format_members(witness)} satisfies both inequalities at radius {eps}"


# -- zigzag_paths -----------------------------------------------------------------------


def zigzag_paths_setup(rng, size, workdir):
    window, module = dense_module(rng, size["side"], size["extra_summands"], size["p"])
    paths = [random_faithful_path(rng, window, size["length"]) for _ in range(size["paths"])]
    return {"module": module, "paths": paths, "bound_paths": size["bound_paths"]}


def zigzag_paths_run(inputs, begin_job):
    module, paths = inputs["module"], inputs["paths"]
    outputs = {}
    for k, path in enumerate(paths):
        begin_job(f"barcode{k}")
        outputs[f"barcode{k}"] = guarded(zigzag.zigzag_barcode, module, path)
    cache = inv.RankCache(module)

    def bounds(path):
        n = len(path.points)
        spans = [(i, j) for i in range(n) for j in range(i, n)]
        return (zigzag.rank_bounds_from_gri(path, cache.rank),
                {s: zigzag.multiplicity_bounds(path, s, cache.rank) for s in spans})

    for k, path in enumerate(paths[: inputs["bound_paths"]]):
        begin_job(f"bounds{k}")
        outputs[f"bounds{k}"] = guarded(bounds, path)
    return outputs, {"cache_misses": cache.queries}


def zigzag_paths_check(inputs, outputs):
    module = inputs["module"]
    idx = module.poset.id_of_coord()
    results = []
    for k, path in enumerate(inputs["paths"]):
        bc = outputs[f"barcode{k}"]
        problem = raised(bc)
        if problem is None:
            for i, pt in enumerate(path.points):
                if bc.total_at(i) != module.dims[idx[pt]]:
                    problem = f"bars over index {i} total {bc.total_at(i)}, not the dimension"
                    break
        digest = None if isinstance(bc, Exception) else sha(bc.to_tsv())
        results.append((f"barcode{k}", digest, problem))
    for k, path in enumerate(inputs["paths"][: inputs["bound_paths"]]):
        out, bc = outputs[f"bounds{k}"], outputs[f"barcode{k}"]
        problem = raised(out, bc)
        if problem is None:
            (lo, hi), spans = out
            if not lo <= bc.full_bar() <= hi:
                problem = f"full bar {bc.full_bar()} outside its rank bounds [{lo}, {hi}]"
            for (i, j), (mlo, mhi) in spans.items():
                if problem is None and not mlo <= bc.multiplicity(i, j) <= mhi:
                    problem = f"bar ({i}, {j}) outside its multiplicity bounds [{mlo}, {mhi}]"
        digest = None if isinstance(out, Exception) else sha(repr(out))
        results.append((f"bounds{k}", digest, problem))
    return results


WORKLOADS = {
    name: (globals()[f"{name}_setup"], globals()[f"{name}_run"], globals()[f"{name}_check"])
    for name in ("rank_table", "signed_diagram", "erosion_shift", "zigzag_paths")
}
