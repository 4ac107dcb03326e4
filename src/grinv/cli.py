"""Command-line surface.

Subcommands: gri, gpd, decompose, invertible, zib, bounds, erosion,
enumerate, fixtures.  Exit codes: 0 ok, 2 input error, 3 enumeration cap
exceeded, 4 invariant violation detected (an internal-consistency alarm,
e.g. a non-monotone rank table).  Identical inputs and options produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .erosion import ThickeningFamily, timed_distance, union_bbox
from .fixtures import FIXTURES, build_fixture
from .gf import check_modulus
from .invariants import (
    RankCache,
    containment_dot,
    format_members,
    gpd,
    gri,
    minimal_rank_decomposition,
    verify_invertibility,
)
from .modules import PModule, generalized_rank
from .posets import (
    EnumerationCapError,
    FinitePoset,
    GridInterval,
    check_ids,
    check_interval_cap,
    check_segment,
    containment_poset,
    content_lines,
    count_grid_intervals,
    enumerate_connected,
    enumerate_intervals,
    enumerate_segments,
    subposet,
)
from .zigzag import ZigzagPath, multiplicity_bounds, rank_bounds_from_gri, zigzag_barcode

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4

ENV_FIELD = "GRINV_FIELD"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _default_field() -> int:
    raw = os.environ.get(ENV_FIELD)
    if raw is None:
        return 2
    try:
        p = int(raw)
    except ValueError:
        raise CliError(f"{ENV_FIELD} must be an integer, got {raw!r}")
    return p


def _read(path: str, what: str) -> str:
    """The text of an input file; one that cannot be opened or decoded is
    an input error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {what} file: {e}")


def _load_module(path: str, args) -> PModule:
    """Parse a module file.  The file's `field p` line is authoritative; an
    explicitly given --field (or env default) must agree with it."""
    text = _read(path, "module")
    try:
        module = PModule.from_text(text)
    except (ValueError, IndexError) as e:
        raise CliError(f"cannot parse module file {path}: {e}")
    if getattr(args, "field_explicit", False) and args.field != module.p:
        raise CliError(
            f"module file declares field {module.p} but --field {args.field} was given"
        )
    return module


def _table(args):
    """The module file and its rank table over the selected collection."""
    module = _load_module(args.module, args)
    return module, gri(module, _collection(module, args.collection, args.cap))


def _collection(module: PModule, spec: str, cap: int):
    """Resolve a collection selector: segments | intervals | connected |
    int:M,N | file:PATH."""
    if spec in ("segments", "intervals", "connected"):
        return _enumerate(module.poset, spec, None, None, cap)
    if spec.startswith("int:"):
        try:
            m, n = (int(t) for t in spec[4:].split(","))
        except ValueError:
            raise CliError(f"bad collection selector {spec!r}; expected int:M,N")
        _check_budgets(m, n, f"collection selector {spec!r}")
        return _enumerate(module.poset, "intervals", m, n, cap)
    if spec.startswith("file:"):
        return _read_collection_file(module, spec[5:])
    raise CliError(f"unknown collection selector {spec!r}")


def _enumerate(poset: FinitePoset, what: str, mm, nn, cap: int):
    """Segments, intervals within the min/max point budgets, or connected
    subsets; a grid window's segments are its (1, 1) plane intervals."""
    if what == "connected":
        return enumerate_connected(poset)
    if what == "segments":
        if poset.grid_coords is None:
            return enumerate_segments(poset)
        mm = nn = 1
    return enumerate_intervals(poset, mm, nn, cap)


def _check_budgets(mm, nn, given: str) -> None:
    """Budgets count minimal and maximal points, so each given one must be >= 1."""
    if (mm is not None and mm < 1) or (nn is not None and nn < 1):
        raise CliError(f"{given}: min/max point budgets must be >= 1")


def _parse_members(module: PModule, tokens: list[str], kind: str | None = None):
    """One subset per line: `x,y` coordinate tokens or plain element ids.
    Connected non-intervals stay id-based subsets; intervals become
    plane grid intervals when the module has coordinates."""
    if all("," in t for t in tokens):
        if module.poset.grid_coords is None:
            raise ValueError("coordinates need a module on a grid window")
        pts = []
        for t in tokens:
            x, y = t.split(",")
            pts.append((int(x), int(y)))
        if kind == "connected":
            idx = module.poset.id_of_coord()
            return subposet(module.poset, (idx[pt] for pt in pts), kind="connected")
        return _plane_member(pts, kind)
    ids = tuple(int(t) for t in tokens)
    if module.poset.grid_coords is not None and kind != "connected":
        check_ids(ids, module.poset.n)
        return _plane_member((module.poset.grid_coords[i] for i in ids), kind)
    return subposet(module.poset, ids, kind=kind)


def _plane_member(pts, kind: str | None) -> GridInterval:
    """The plane interval on the points; a segment line must have one
    minimal and one maximal point."""
    gi = GridInterval.from_points(pts)
    if kind == "segment":
        mins, maxs = gi.antichains()
        check_segment(len(mins), len(maxs))
    return gi


def _read_collection_file(module: PModule, path: str):
    lines = content_lines(_read(path, "collection"))
    out = []
    for ln in lines:
        tokens = ln.split()
        kind = None
        if tokens[0] in ("interval", "connected", "segment"):
            kind = tokens[0]
            tokens = tokens[1:]
        try:
            out.append(_parse_members(module, tokens, kind))
        except (ValueError, KeyError, IndexError) as e:
            raise CliError(f"bad collection line {ln!r}: {e}")
    if not out:
        raise CliError("collection file is empty")
    # a collection must live in one member-key space: if any entry is an
    # id-based subset, re-house the plane intervals as id subsets too
    if any(not isinstance(it, GridInterval) for it in out) and any(
        isinstance(it, GridInterval) for it in out
    ):
        idx = module.poset.id_of_coord()
        rehoused = []
        for it in out:
            if isinstance(it, GridInterval):
                try:
                    ids = tuple(sorted(idx[pt] for pt in it.points()))
                except KeyError:
                    raise CliError(
                        "collections mixing connected subsets with intervals must "
                        "stay inside the window"
                    )
                rehoused.append(subposet(module.poset, ids, kind="interval"))
            else:
                rehoused.append(it)
        out = rehoused
    seen = set()
    for ln, it in zip(lines, out):
        if it in seen:
            raise CliError(f"duplicate collection line {ln!r}")
        seen.add(it)
    return out


def _emit_table(table, fmt: str):
    if fmt == "tsv":
        print(table.to_tsv())
    else:
        print(f"# collection size {len(table.collection)}")
        for it, r in zip(table.collection, table.ranks):
            print(f"rank {format_members(it)} = {r}")


def cmd_gri(args) -> int:
    table = _table(args)[1]
    bad = table.check_monotone()
    if bad is not None:
        print(f"invariant violation: non-monotone table at {format_members(bad[0])} "
              f"vs {format_members(bad[1])}", file=sys.stderr)
        return EXIT_INVARIANT
    _emit_table(table, args.format)
    return EXIT_OK


def cmd_gpd(args) -> int:
    table = _table(args)[1]
    diagram = gpd(table)
    if args.format == "dot":
        print(containment_dot(containment_poset(table.collection), diagram))
    elif args.format == "tsv":
        print(diagram.to_tsv())
    else:
        for it, v in diagram.support:
            print(f"multiplicity {format_members(it)} = {v:+d}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    diagram = gpd(_table(args)[1])
    plus, minus = minimal_rank_decomposition(diagram)
    for it, m in plus:
        print(f"R\t{format_members(it)}\t{m}")
    for it, m in minus:
        print(f"S\t{format_members(it)}\t{m}")
    return EXIT_OK


def cmd_invertible(args) -> int:
    module, table = _table(args)
    if args.support:
        support = _read_collection_file(module, args.support)
        for it in support:
            try:
                table.rank_of(it)
            except KeyError:
                raise CliError(f"support member {format_members(it)} is not in the collection")
    else:
        support = [it for it, r in zip(table.collection, table.ranks) if r > 0]
    report = verify_invertibility(table, support)
    if report.ok:
        print("invertible")
        for it, v in report.diagram.support:
            print(f"multiplicity {format_members(it)} = {v:+d}")
        return EXIT_OK
    print(f"fails at {format_members(report.witness)}")
    return EXIT_OK


def cmd_zib(args) -> int:
    module = _load_module(args.module, args)
    if module.poset.grid_coords is None:
        raise CliError("zib needs modules on grid windows")
    paths = _read_paths(args.paths)
    for path in paths:
        bc = zigzag_barcode(module, path)
        print(f"path {' '.join(f'{x},{y}' for x, y in path.points)}")
        for (i, j), m in bc.bars:
            print(f"{i}\t{j}\t{m}")
    return EXIT_OK


def _read_paths(path: str) -> list[ZigzagPath]:
    lines = content_lines(_read(path, "path"))
    chunks = []  # each path's header line and the point lines after it
    for ln in lines:
        if ln.split()[0] == "path" or not chunks:
            chunks.append([])
        chunks[-1].append(ln)
    if not chunks:
        raise CliError("path file is empty")
    try:
        return [ZigzagPath.from_text("\n".join(chunk)) for chunk in chunks]
    except ValueError as e:
        raise CliError(f"bad path: {e}")


def cmd_bounds(args) -> int:
    module = _load_module(args.module, args)
    if module.poset.grid_coords is None:
        raise CliError("bounds needs modules on grid windows")
    paths = _read_paths(args.paths)
    cache = RankCache(module)
    for path in paths:
        m, ell = rank_bounds_from_gri(path, cache.rank)
        print(f"path {' '.join(f'{x},{y}' for x, y in path.points)}")
        print(f"rank_bounds\t{m}\t{ell}")
        n = len(path.points)
        for i in range(n):
            for j in range(i, n):
                lo, hi = multiplicity_bounds(path, (i, j), cache.rank)
                print(f"bar\t{i}\t{j}\t{lo}\t{hi}")
    return EXIT_OK


def cmd_erosion(args) -> int:
    m1 = _load_module(args.module, args)
    m2 = _load_module(args.other, args)
    if m1.p != m2.p:
        raise CliError(f"modules are over different fields: {m1.p} and {m2.p}")
    if m1.poset.grid_coords is None or m2.poset.grid_coords is None:
        raise CliError("erosion needs modules on grid windows")
    budgets = []
    for spec in args.mn:
        try:
            mm, nn = (int(t) for t in spec.split(","))
        except ValueError:
            raise CliError(f"bad --mn value {spec!r}; expected M,N")
        _check_budgets(mm, nn, f"--mn value {spec!r}")
        budgets.append((mm, nn))
    x0, y0, x1, y1 = union_bbox(m1, m2)
    for mm, nn in budgets:
        check_interval_cap(x1 - x0 + 1, y1 - y0 + 1, mm, nn, args.cap)
    # wall time is printed only on request, so default output is byte-reproducible
    head = "min_pts\tmax_pts\tcollection\tdistance\trank_queries"
    print(head + "\tseconds" if args.timing else head)
    for mm, nn in budgets:
        # the walk needs only the members inside a window; the column
        # counts the family over the union box
        collection = ThickeningFamily(mm, nn).members_near(m1, m2)
        witnesses, caches, dt = timed_distance(m1, m2, collection)
        size = count_grid_intervals(x1 - x0 + 1, y1 - y0 + 1, mm, nn)
        row = (f"{mm}\t{nn}\t{size}\t{len(witnesses)}\t"
               f"{caches[0].queries + caches[1].queries}")
        print(row + f"\t{dt:.4f}" if args.timing else row)
        if args.witness:
            for eps, w in enumerate(witnesses):
                print(f"witness\teps={eps}\t{format_members(w)}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    # a module file starts with its poset block, so parsing the poset works for both
    text = _read(args.module, "poset")
    try:
        poset = FinitePoset.from_text(text)
    except (ValueError, IndexError) as e:
        raise CliError(f"cannot parse poset: {e}")
    if args.what == "intervals":
        _check_budgets(args.min_pts, args.max_pts, "--min-pts/--max-pts")
    for it in _enumerate(poset, args.what, args.min_pts, args.max_pts, args.cap):
        print(format_members(it))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in sorted(FIXTURES):
            print(name)
        return EXIT_OK
    kwargs = {"window": args.window} if args.window is not None else {}
    try:
        bundle = build_fixture(args.name, p=args.field, **kwargs)
    except KeyError as e:
        raise CliError(str(e))
    except (TypeError, ValueError) as e:
        raise CliError(f"cannot build fixture: {e}")
    if args.describe:
        print(f"{bundle.name}: {bundle.description}")
        return EXIT_OK
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for mname, module in sorted(bundle.modules.items()):
            path = os.path.join(args.emit, f"{bundle.name}-{mname}.txt")
            with open(path, "w") as fh:
                fh.write(module.to_text() + "\n")
            print(f"wrote {path}")
        return EXIT_OK
    if args.action == "run":
        return _run_fixture(bundle, args)
    raise CliError(f"unknown fixtures action {args.action!r}")


def _run_fixture(bundle, args) -> int:
    print(f"fixture {bundle.name}")
    if bundle.name == "thm-tame-counterexample":
        module = bundle.modules["m"]
        cache = RankCache(module)
        for label, gi in sorted(bundle.intervals.items()):
            print(f"rank {label} = {cache.rank(gi)}")
        from .fixtures import claim2_supersets

        import numpy as np

        rng = np.random.default_rng(7)
        samples = claim2_supersets(bundle, rng, count=8)
        for i, members in enumerate(samples):
            print(f"superset[{i}] rank = {generalized_rank(module, members)}")
        return EXIT_OK
    for mname, module in sorted(bundle.modules.items()):
        dims = " ".join(str(d) for d in module.dims)
        print(f"module {mname}: dims {dims}")
    caches = {mname: RankCache(module) for mname, module in bundle.modules.items()}
    for label, gi in sorted(bundle.intervals.items()):
        for mname in sorted(caches):
            try:
                r = caches[mname].rank(gi)
            except ValueError:
                continue
            print(f"rank[{mname}] {label} = {r}")
    for label, path in sorted(bundle.paths.items()):
        for mname, module in sorted(bundle.modules.items()):
            bc = zigzag_barcode(module, path)
            bars = " ".join(f"[{i},{j}]x{m}" for (i, j), m in bc.bars)
            print(f"barcode[{mname}] {label}: {bars}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grinv", description=__doc__)
    ap.add_argument("--field", type=int, default=None,
                    help=f"prime field modulus (default: ${ENV_FIELD} or 2)")
    ap.add_argument("--cap", type=int, default=5_000_000,
                    help="enumeration guard: refuse collections larger than this")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("module", help="module file")
        sp.add_argument("--collection", default="intervals",
                        help="segments | intervals | connected | int:M,N | file:PATH")

    sp = sub.add_parser("gri", help="rank table over a collection")
    common(sp)
    sp.add_argument("--format", choices=("tsv", "structured"), default="tsv")
    sp.set_defaults(fn=cmd_gri)

    sp = sub.add_parser("gpd", help="signed diagram (Mobius inversion of the rank table)")
    common(sp)
    sp.add_argument("--format", choices=("tsv", "structured", "dot"), default="tsv")
    sp.set_defaults(fn=cmd_gpd)

    sp = sub.add_parser("decompose", help="minimal rank decomposition (R, S)")
    common(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("invertible", help="check a table against a candidate support")
    common(sp)
    sp.add_argument("--support", default=None, help="collection file of candidate supports")
    sp.set_defaults(fn=cmd_invertible)

    sp = sub.add_parser("zib", help="barcodes of the module over given paths")
    sp.add_argument("module")
    sp.add_argument("--paths", required=True, help="path file")
    sp.set_defaults(fn=cmd_zib)

    sp = sub.add_parser("bounds", help="rank/multiplicity bounds for paths from interval ranks")
    sp.add_argument("module")
    sp.add_argument("--paths", required=True)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("erosion", help="erosion distance between two modules")
    sp.add_argument("module")
    sp.add_argument("other")
    sp.add_argument("--mn", nargs="+", default=["2,2"],
                    help="one or more M,N interval budgets (timing table rows)")
    sp.add_argument("--witness", action="store_true",
                    help="print a witness interval for each infeasible radius")
    sp.add_argument("--timing", action="store_true",
                    help="append wall seconds to each row (non-reproducible column)")
    sp.set_defaults(fn=cmd_erosion)

    sp = sub.add_parser("enumerate", help="enumerate intervals/segments/connected subsets")
    sp.add_argument("module", help="module or poset file")
    sp.add_argument("--what", choices=("intervals", "segments", "connected"),
                    default="intervals")
    sp.add_argument("--min-pts", type=int, default=None)
    sp.add_argument("--max-pts", type=int, default=None)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("fixtures", help="list or run built-in example modules")
    sp.add_argument("action", choices=("list", "run"))
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--describe", action="store_true")
    sp.add_argument("--emit", default=None, metavar="DIR",
                    help="write the fixture's modules as files instead of running it")
    sp.set_defaults(fn=cmd_fixtures)

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.field_explicit = args.field is not None or ENV_FIELD in os.environ
    if args.field is None:
        try:
            args.field = _default_field()
        except CliError as e:
            print(f"error: {e}", file=sys.stderr)
            return e.code
    try:
        check_modulus(args.field)
    except ValueError as e:
        print(f"error: field {e}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "command", None) == "fixtures" and args.action == "run" and not args.name:
        print("error: fixtures run needs a name", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except EnumerationCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except AssertionError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
