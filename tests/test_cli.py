import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grinv
from grinv import cli
from grinv.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, main
from grinv.fixtures import build_fixture
from grinv.invariants import RankCache
from grinv.modules import PModule, zero_module
from grinv.posets import FinitePoset, grid_poset
from grinv.sampling import random_faithful_path, random_interval_decomposable, random_module
from grinv.zigzag import ZigzagPath, multiplicity_bounds, rank_bounds_from_gri


@pytest.fixture
def square_module_file(tmp_path):
    fx = build_fixture("ex-2x2-indicator")
    path = tmp_path / "m.txt"
    path.write_text(fx.modules["m"].to_text())
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    fx = build_fixture("ex-2x2-indicator")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(fx.modules["m"].to_text())
    b.write_text(fx.modules["n"].to_text())
    return str(a), str(b)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gri_tsv(capsys, square_module_file):
    code, out, err = run(capsys, "gri", square_module_file, "--collection", "intervals")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 11  # intervals of the 2x2 window
    assert all("\t" in ln for ln in lines)


def test_gri_deterministic(capsys, square_module_file):
    _, out1, _ = run(capsys, "gri", square_module_file)
    _, out2, _ = run(capsys, "gri", square_module_file)
    assert out1 == out2


def test_all_subcommands_byte_deterministic(capsys, tmp_path, square_module_file):
    paths = tmp_path / "p.txt"
    paths.write_text("path 3\n0 0\n1 0\n1 1\n")
    invocations = [
        ("gri", square_module_file, "--collection", "segments"),
        ("gpd", square_module_file, "--format", "structured"),
        ("gpd", square_module_file, "--format", "dot"),
        ("decompose", square_module_file),
        ("invertible", square_module_file),
        ("zib", square_module_file, "--paths", str(paths)),
        ("bounds", square_module_file, "--paths", str(paths)),
        ("erosion", square_module_file, square_module_file),
        ("enumerate", square_module_file, "--what", "intervals"),
        ("fixtures", "run", "ex-2x2-indicator"),
        ("fixtures", "run", "thm-tame-counterexample", "--window", "4"),
    ]
    for argv in invocations:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2, argv


def test_gri_of_zero_module(capsys, tmp_path):
    win = grid_poset(2, 2, (0, 0))
    from grinv.modules import zero_module

    f = tmp_path / "z.txt"
    f.write_text(zero_module(win).to_text())
    code, out, _ = run(capsys, "gri", str(f))
    assert code == EXIT_OK
    assert all(ln.endswith("\t0") for ln in out.strip().splitlines())


def test_gpd_structured_and_dot(capsys, square_module_file):
    code, out, _ = run(capsys, "gpd", square_module_file, "--format", "structured")
    assert code == EXIT_OK
    assert "multiplicity" in out
    code, dot, _ = run(capsys, "gpd", square_module_file, "--format", "dot")
    assert code == EXIT_OK
    assert dot.startswith("digraph")


@pytest.mark.parametrize("argv, code", [
    (("gri", "--format", "tsv"), EXIT_OK),
    (("gri", "--format", "structured"), EXIT_OK),
    (("gri", "--format", "dot"), EXIT_INPUT),
    (("gpd", "--format", "dot"), EXIT_OK),
    (("decompose", "--format", "tsv"), EXIT_INPUT),
    (("invertible", "--format", "structured"), EXIT_INPUT),
])
def test_format_is_accepted_only_where_it_is_read(capsys, square_module_file, argv, code):
    """gri reads tsv|structured, gpd also dot; decompose and invertible take no --format."""
    cmd, *rest = argv
    try:
        got = main([cmd, square_module_file, *rest])
    except SystemExit as e:
        got = e.code
    out, err = capsys.readouterr()
    assert got == code, err
    if code == EXIT_INPUT:
        assert out == "" and "--format" in err


def test_decompose(capsys, square_module_file):
    code, out, _ = run(capsys, "decompose", square_module_file)
    assert code == EXIT_OK
    tags = {ln.split("\t")[0] for ln in out.strip().splitlines()}
    assert tags == {"R"}  # interval-decomposable: no negative part


def test_invertible(capsys, square_module_file):
    code, out, _ = run(capsys, "invertible", square_module_file)
    assert code == EXIT_OK
    assert out.startswith("invertible")


def bounds_lines_per_span(module, paths):
    """`grinv bounds` output built from one library call per line, each
    with a fresh rank function and so a cold bracket memo."""
    cache = RankCache(module)
    lines = []
    for path in paths:
        n = len(path.points)
        lines.append(f"path {' '.join(f'{x},{y}' for x, y in path.points)}")
        lines.append("rank_bounds\t%d\t%d" % rank_bounds_from_gri(path, lambda gi: cache.rank(gi)))
        for i in range(n):
            for j in range(i, n):
                lo, hi = multiplicity_bounds(path, (i, j), lambda gi: cache.rank(gi))
                lines.append(f"bar\t{i}\t{j}\t{lo}\t{hi}")
    return lines


def test_zib_and_bounds(capsys, tmp_path, square_module_file):
    paths = tmp_path / "p.txt"
    paths.write_text("path 3\n0 0\n1 0\n1 1\n")
    code, out, _ = run(capsys, "zib", square_module_file, "--paths", str(paths))
    assert code == EXIT_OK
    assert out.startswith("path 0,0 1,0 1,1")
    code, out, _ = run(capsys, "bounds", square_module_file, "--paths", str(paths))
    assert code == EXIT_OK
    square = PModule.from_text(Path(square_module_file).read_text())
    assert out.splitlines() == bounds_lines_per_span(square, [ZigzagPath(((0, 0), (1, 0), (1, 1)))])
    # long paths, one inside a window off the origin and one leaving it:
    # every span's line must match its own cold library call
    rng = np.random.default_rng(7)
    win = grid_poset(4, 4, (1, -1))
    module = random_module(rng, win, 3, max_summands=6)
    long_paths = [
        random_faithful_path(rng, win, 14),
        ZigzagPath(((0, -1), (1, -1), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (2, 2),
                    (2, 3), (3, 3), (4, 3), (5, 3), (5, 2))),
    ]
    module_file = tmp_path / "long.txt"
    module_file.write_text(module.to_text())
    paths.write_text("\n".join(path.to_text() for path in long_paths) + "\n")
    code, out, _ = run(capsys, "bounds", str(module_file), "--paths", str(paths))
    assert code == EXIT_OK
    assert out.splitlines() == bounds_lines_per_span(module, long_paths)


def test_erosion_cli(capsys, pair_files):
    a, b = pair_files
    code, out, _ = run(capsys, "erosion", a, b, "--mn", "1,1", "2,2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "min_pts\tmax_pts\tcollection\tdistance\trank_queries"
    assert len(lines) == 3
    # default output is byte-reproducible; --timing appends a wall column
    _, out2, _ = run(capsys, "erosion", a, b, "--mn", "1,1", "2,2")
    assert out == out2
    _, timed, _ = run(capsys, "erosion", a, b, "--timing")
    assert timed.splitlines()[0].endswith("seconds")


def test_erosion_over_different_fields_is_an_input_error(capsys, tmp_path, square_module_file, rng):
    win = grid_poset(2, 2, (0, 0))
    m3, _ = random_interval_decomposable(rng, win, 2, p=3)
    f3 = tmp_path / "m3.txt"
    f3.write_text(m3.to_text())
    code, out, err = run(capsys, "erosion", square_module_file, str(f3))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: modules are over different fields: 2 and 3\n"


def test_one_parser_serves_a_sequence_of_commands(capsys, pair_files, monkeypatch):
    """gri, gpd, erosion and an argparse error run in one process on one
    parser, with the stdout and exit codes of fresh processes."""
    a, b = pair_files
    invocations = [
        ("gri", a, "--collection", "segments"),
        ("gpd", a, "--format", "structured"),
        ("erosion", a, b, "--mn", "1,1", "2,2"),
        ("gri", a, "--format", "nope"),
        ("--field", "3", "gri", a),
        ("gri", b),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(grinv.__file__).resolve().parents[1]))
    env.pop("GRINV_FIELD", None)
    monkeypatch.delenv("GRINV_FIELD", raising=False)
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for argv in invocations:
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "grinv.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert len(builds) == 1
    cli._parser.cache_clear()


def test_erosion_self_is_zero(capsys, square_module_file):
    code, out, _ = run(capsys, "erosion", square_module_file, square_module_file)
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split("\t")[3] == "0"


def test_erosion_witness_trace(capsys, tmp_path):
    fx = build_fixture("ex-2x2-indicator")
    from grinv.erosion import shift_module

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(fx.modules["m"].to_text())
    b.write_text(shift_module(fx.modules["m"], 1).to_text())
    code, out, _ = run(capsys, "erosion", str(a), str(b), "--witness")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    dist = int(lines[1].split("\t")[3])
    witnesses = [ln for ln in lines if ln.startswith("witness")]
    assert len(witnesses) == dist  # one witness per infeasible radius


def test_collection_file_with_connected_subsets(capsys, tmp_path, square_module_file):
    coll = tmp_path / "c.txt"
    coll.write_text(
        "connected 0,1 0,0 1,0\n"   # hook as a connected set
        "interval 0,0 0,1\n"        # same length as the antichain line below
        "connected 0,1 1,0\n"       # antichain: connected fails -> see below
    )
    # the antichain is not connected: the parser must reject it loudly
    code, _, err = run(capsys, "gri", square_module_file, "--collection", f"file:{coll}")
    assert code == EXIT_INPUT
    coll.write_text(
        "connected 0,1 0,0 1,0\n"
        "interval 0,0 0,1\n"
        "connected 1,0 1,1\n"       # a 2-element chain, same size as the interval
    )
    code, out, _ = run(capsys, "gri", square_module_file, "--collection", f"file:{coll}")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 3


def test_keyword_and_bare_id_lines_on_an_abstract_poset(capsys, tmp_path):
    """On the 4-chain every subset is connected: a bare-id line may be any
    of them, an interval or segment line must be convex."""
    module = tmp_path / "plus.txt"
    module.write_text(build_fixture("chain4-pair").modules["plus"].to_text())
    coll = tmp_path / "c.txt"
    coll.write_text("interval 0 1\nsegment 1 2\n0 1 2\nconnected 2 3\n1\n")
    code, out, err = run(capsys, "gri", str(module), "--collection", f"file:{coll}")
    assert (code, err) == (EXIT_OK, "")
    assert out == "1\t2\n0 1\t1\n1 2\t2\n2 3\t1\n0 1 2\t1\n"
    coll.write_text("0 2\n")  # connected, not convex
    assert run(capsys, "gri", str(module), "--collection", f"file:{coll}")[:2] == (
        EXIT_OK, "0 2\t1\n")
    coll.write_text("interval 0 2\n")
    code, out, err = run(capsys, "gri", str(module), "--collection", f"file:{coll}")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: bad collection line 'interval 0 2': subset is not an interval: (0, 2)\n"


@pytest.mark.parametrize("line, counts", [
    ("segment 0 1 2", (1, 2)), ("segment 0,1 1,0 1,1", (2, 1)), ("segment 1,0 0,1 1,1", (2, 1)),
])
def test_segment_lines_need_one_minimal_and_one_maximal_point(capsys, tmp_path, square_module_file,
                                                                line, counts):
    """A segment line on a grid window is a plane interval with a unique
    minimum and maximum, by ids or coordinates; otherwise an input error."""
    coll = tmp_path / "c.txt"
    coll.write_text(f"segment 0 1 2 3\nsegment 1,0 1,1\n{line}\n")
    want = (f"error: bad collection line {line!r}: subset is not a segment: "
            f"it has {counts[0]} minimal and {counts[1]} maximal points\n")
    for argv in (("gri", square_module_file, "--collection", f"file:{coll}"),
                 ("invertible", square_module_file, "--support", str(coll))):
        assert run(capsys, *argv) == (EXIT_INPUT, "", want)
    coll.write_text("segment 0 1 2 3\nsegment 1,0 1,1\n")
    code, out, err = run(capsys, "gri", square_module_file, "--collection", f"file:{coll}")
    assert (code, err) == (EXIT_OK, "") and len(out.splitlines()) == 2


def test_fence_corner_alarm_of_a_box_exits_4(capsys, skewed_box_steps, square_module_file):
    """Step tables that put a fence corner outside a staircase trip the
    box walk's alarm, which the CLI reports as an invariant violation."""
    code, out, err = run(capsys, "gri", square_module_file, "--collection", "intervals")
    assert (code, out) == (4, "")
    assert err == "invariant violation: fence point (1, 1) escaped the interval\n"


@pytest.mark.parametrize("fixture, name", [("chain4-pair", "plus"), ("ex-2x2-indicator", "m")])
@pytest.mark.parametrize("line", ["0 99", "interval 0 99", "segment 0 99", "connected 0 99",
                                  "-1 0", "interval -1 0"])
def test_out_of_range_ids_are_one_input_error(capsys, tmp_path, fixture, name, line):
    """An id outside 0..n-1 on a bare, interval, segment or connected line
    of a collection or support file, over an abstract poset or a grid
    window, gets the same message."""
    module = tmp_path / "m.txt"
    module.write_text(build_fixture(fixture).modules[name].to_text())
    coll = tmp_path / "c.txt"
    coll.write_text(f"0\n{line}\n")
    bad = "-1" if "-1" in line else "99"
    want = f"error: bad collection line {line!r}: element id {bad} is not in 0..3\n"
    for argv in (("gri", str(module), "--collection", f"file:{coll}"),
                 ("invertible", str(module), "--support", str(coll))):
        assert run(capsys, *argv) == (EXIT_INPUT, "", want)


def test_oversized_poset_header_is_refused_before_it_is_built(tmp_path):
    """A two-line module file whose header declares more than 2**14
    elements is an input error, found before the poset's bitsets (about
    n**2 / 4 bytes) are built: in a fresh interpreter it exits quickly and
    small."""
    env = dict(os.environ, PYTHONPATH=str(Path(grinv.__file__).resolve().parents[1]))
    env.pop("GRINV_FIELD", None)
    f = tmp_path / "big.txt"
    for header, n in (("grid 180 180 0 0", 32400), ("poset 40000", 40000)):
        f.write_text(f"{header}\nfield 2\n")
        for argv in (["gri", str(f), "--collection", "int:1,1"], ["enumerate", str(f)]):
            # VmHWM is the peak RSS of this process image; ru_maxrss would
            # also count the forking test process
            code = ("import re, time\nfrom grinv.cli import main\n"
                    f"t = time.perf_counter()\ncode = main({argv!r})\n"
                    "print(code, time.perf_counter() - t, re.search(r'VmHWM:\\s*(\\d+)',"
                    " open('/proc/self/status').read())[1])\n")
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            exit_code, seconds, rss_kib = proc.stdout.split()
            assert int(exit_code) == EXIT_INPUT, proc.stderr
            assert f"{header!r} declares {n} elements, more than 16384" in proc.stderr
            assert float(seconds) < 1.0
            assert int(rss_kib) < 64 * 1024  # the 180 x 180 grid alone took 377 MiB


def test_invertible_with_support_file(capsys, tmp_path, square_module_file):
    support = tmp_path / "s.txt"
    support.write_text("0,0\n")  # the corner alone cannot explain the table
    code, out, _ = run(
        capsys, "invertible", square_module_file, "--support", str(support)
    )
    assert code == EXIT_OK
    assert out.startswith("fails at ")


def test_support_member_outside_the_collection_is_an_input_error(capsys, tmp_path, rng):
    module = tmp_path / "m.txt"
    module.write_text(random_interval_decomposable(rng, grid_poset(3, 3), 3)[0].to_text())
    support = tmp_path / "s.txt"
    support.write_text("0,0\n7,7\n")
    code, out, err = run(capsys, "invertible", str(module), "--collection", "int:1,1",
                         "--support", str(support))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "7,7" in err


@pytest.mark.parametrize("argv", [
    ("gri", "{m}", "--collection", "int:0,1"),
    ("erosion", "{m}", "{m}", "--mn", "2,2", "0,2"),
    ("enumerate", "{m}", "--min-pts", "0"),
    ("enumerate", "{m}", "--max-pts", "0"),
])
def test_budget_below_one_is_an_input_error(capsys, square_module_file, argv):
    code, out, err = run(capsys, *(a.format(m=square_module_file) for a in argv))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.endswith("min/max point budgets must be >= 1\n")


def test_erosion_checks_the_cap_before_printing(capsys, pair_files):
    a, b = pair_files
    code, out, err = run(capsys, "--cap", "10", "erosion", a, b, "--mn", "1,1", "2,2")
    assert code == EXIT_CAP and out == ""
    assert err == "error: more than the cap of 10 intervals; raise the cap explicitly to proceed\n"
    code, out, _ = run(capsys, "--cap", "11", "erosion", a, b, "--mn", "1,1", "2,2")
    assert code == EXIT_OK and out.splitlines()[2].startswith("2\t2\t11\t")


ABSTRACT_MODULE = ("poset 3\ncover 0 1\ncover 0 2\nfield 2\ndims 0 1\ndims 1 1\ndims 2 1\n"
                   "map 0 1\n1 1\n1\nmap 0 2\n1 1\n1\n")


@pytest.mark.parametrize("grid", [True, False])
def test_an_indented_module_file_reads_as_the_flat_one(capsys, tmp_path, square_module_file, grid):
    """Module files take the line rule of every input file: each line
    stripped, blank and '#' lines skipped, indented cover lines too."""
    flat = tmp_path / "flat.txt"
    flat.write_text(open(square_module_file).read() if grid else ABSTRACT_MODULE)
    indented = tmp_path / "indented.txt"
    indented.write_text("# indented\n" + "".join(f"{'  ' * (i % 3)}{ln}\t\n\n"
                                                    for i, ln in enumerate(flat.read_text().splitlines())))
    if not grid:
        assert "  cover 0 1" in indented.read_text()
    want = run(capsys, "gri", str(flat), "--collection", "intervals")
    assert want[0] == EXIT_OK and want[1]
    assert run(capsys, "gri", str(indented), "--collection", "intervals") == want


@pytest.mark.parametrize("command", ["gri", "enumerate"])
@pytest.mark.parametrize("header", ["grid 2 2 0 0 junk", "grid 2 2 0", "poset 3 junk"])
def test_a_poset_header_with_a_token_too_many_or_few_is_an_input_error(capsys, tmp_path, command, header):
    """Poset headers are checked for their token count as module headers are."""
    module = tmp_path / "m.txt"
    body = ABSTRACT_MODULE if header.startswith("poset") else "grid 2 2 0 0\nfield 2\ndims 0 1\n"
    module.write_text(header + body[body.index("\n"):])
    code, out, err = run(capsys, command, str(module))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: cannot parse ")
    assert err.endswith(f"malformed {header.split()[0]} line: {header!r}\n")


def test_erosion_on_an_abstract_poset_is_an_input_error(capsys, tmp_path):
    module = tmp_path / "abs.txt"
    module.write_text(
        "poset 3\ncover 0 1\ncover 0 2\nfield 2\ndims 0 1\ndims 1 1\ndims 2 1\n"
        "map 0 1\n1 1\n1\nmap 0 2\n1 1\n1\n"
    )
    code, out, err = run(capsys, "erosion", str(module), str(module))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: erosion needs modules on grid windows\n"


@pytest.mark.parametrize("command", ["zib", "bounds"])
def test_paths_over_an_abstract_poset_are_an_input_error(capsys, tmp_path, command):
    module = tmp_path / "plus.txt"
    module.write_text(build_fixture("chain4-pair").modules["plus"].to_text())
    paths = tmp_path / "paths.txt"
    paths.write_text("path 2\n0 0\n1 0\n")
    code, out, err = run(capsys, command, str(module), "--paths", str(paths))
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {command} needs modules on grid windows\n"


def test_coordinate_collection_on_an_abstract_poset_is_an_input_error(capsys, tmp_path):
    module = tmp_path / "abs.txt"
    module.write_text(
        "poset 3\ncover 0 1\ncover 0 2\nfield 2\ndims 0 1\ndims 1 1\ndims 2 1\n"
        "map 0 1\n1 1\n1\nmap 0 2\n1 1\n1\n"
    )
    coll = tmp_path / "c.txt"
    coll.write_text("0,0\n")
    code, out, err = run(capsys, "gri", str(module), "--collection", f"file:{coll}")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "grid" in err


@pytest.mark.parametrize("command", ["gri", "gpd"])
def test_duplicate_collection_line_is_an_input_error(capsys, tmp_path, square_module_file, command):
    coll = tmp_path / "dup.txt"
    coll.write_text("0,0\n0,0 1,0\n1,0 0,0\n")
    code, out, err = run(capsys, command, square_module_file, "--collection", f"file:{coll}")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "'1,0 0,0'" in err


@pytest.mark.parametrize("command, flag, entries", [
    ("gri", "--collection", ["0,0", "interval 0,0 0,1", "0,0 1,0 0,1 1,1"]),
    ("invertible", "--support", ["0,0", "0,0 0,1"]),
    ("bounds", "--paths", ["path 2\n0 0\n1 0", "path 3\n0 0\n1 0\n1 1"]),
    ("enumerate", None, None),
])
def test_indented_comment_lines_are_comments(capsys, tmp_path, square_module_file, command, flag, entries):
    """A comment line may be indented, as the first line of a file and
    between its entries."""
    results = []
    for comment in ("# note", "  # note", "\t# note"):
        f = tmp_path / "in.txt"
        if entries is None:  # the module file itself
            f.write_text(f"{comment}\n{Path(square_module_file).read_text()}")
            argv = (command, str(f))
        else:
            f.write_text(f"{comment}\n" + f"\n{comment}\n".join(entries) + "\n")
            value = f"file:{f}" if flag == "--collection" else str(f)
            argv = (command, square_module_file, flag, value)
        results.append(run(capsys, *argv))
    assert results[0][0] == EXIT_OK and results[0][1]
    assert results[1:] == [results[0]] * 2


def test_enumerate_segments(capsys, tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("grid 2 2 0 0\n")
    code, out, _ = run(capsys, "enumerate", str(f), "--what", "segments")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 9


def test_enumerate_cap_exit_code(capsys, tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("grid 10 10 0 0\n")
    code, _, err = run(capsys, "enumerate", str(f))
    assert code == EXIT_CAP
    assert "cap" in err


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("this is not a module\n")
    code, _, err = run(capsys, "gri", str(f))
    assert code == EXIT_INPUT
    assert "error" in err


def test_non_commuting_square_of_a_large_grid_module_is_an_input_error(capsys, tmp_path):
    win = grid_poset(23, 23, (0, 0))
    assert win.n == 529
    idx = win.id_of_coord()
    maps = {e: [[1]] for e in win.covers}
    maps[(idx[(0, 0)], idx[(1, 0)])] = [[0]]
    f = tmp_path / "m.txt"
    f.write_text(PModule(win, [1] * win.n, maps, validate=False).to_text())
    code, out, err = run(capsys, "gri", str(f))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "unit square from (0, 0) to (1, 1)" in err


def test_non_functorial_module_over_a_large_abstract_poset_is_an_input_error(capsys, tmp_path):
    """A non-commuting diamond 0 < 1, 2 < 3 under a chain of 600 points."""
    n = 604
    covers = [(0, 1), (0, 2), (1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)]
    lines = [f"poset {n}", *(f"cover {a} {b}" for a, b in covers), "field 2",
             *(f"dims {i} 1" for i in range(n))]
    for a, b in covers:
        lines += [f"map {a} {b}", "1 1", "0" if (a, b) == (1, 3) else "1"]
    f = tmp_path / "m.txt"
    f.write_text("\n".join(lines) + "\n")
    coll = tmp_path / "c.txt"
    coll.write_text("0 1 2 3\n")
    code, out, err = run(capsys, "gri", str(f), "--collection", f"file:{coll}")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "functoriality violated between 0 and 3" in err


@pytest.mark.parametrize("text, named", [
    ("grid 2 1 0 0\ndims -1 1\n", "'dims -1 1'"),  # id below 0
    ("grid 2 1 0 0\ndims 2 1\n", "'dims 2 1'"),  # id above n - 1
    ("grid 2 1 0 0\ndims 0 1\ndims 1 1\ndims 1 2\n", "'dims 1 2'"),  # repeated dims
    ("grid 2 1 0 0\nfield 2\ndims 0 1\ndims 1 1\nmap 0 1\n1 1\n1\nmap 0 1\n1 1\n0\n",
     "'map 0 1'"),  # repeated map
    ("grid 2 1 0 0\nfield 2\nfield 3\n", "'field 3'"),  # repeated field
    ("grid 2 1 0 0\nfield 2 3\n", "'field 2 3'"),  # extra token
    ("grid 2 1 0 0\ndims 0 1 7\n", "'dims 0 1 7'"),  # extra token
    ("grid 2 1 0 0\nfield 2\ndims 0 1\ndims 1 1\nmap 0 1 junk\n1 1\n1\n",
     "'map 0 1 junk'"),  # extra token
    ("poset -3\n", "'poset -3'"),  # no elements
    ("poset 0\n", "'poset 0'"),
    ("poset 3\ncover 1 -1\n", "cover 1 -1"),  # id below 0
    ("poset 3\ncover 1 3\n", "cover 1 3"),  # id above n - 1
    ("poset 3\ncover 1 1\n", "cover 1 1"),  # self-cover
    ("poset 3\ncover 0 1\ncover 1 2\ncover 2 0\n", "leq is not antisymmetric"),  # cycle
    # a block without rows still declares its width, which must be dims 0
    ("grid 2 1 0 0\nfield 2\ndims 0 1\nmap 0 1\n0 2\n", "map 0->1 has shape (0, 2)"),
])
def test_malformed_module_file_is_an_input_error(capsys, tmp_path, text, named):
    f = tmp_path / "m.txt"
    f.write_text(text)
    code, out, err = run(capsys, "gri", str(f), "--collection", "segments")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_huge_map_entries_read_as_their_residues(capsys, tmp_path):
    # 2**70 does not fit an int64; it is 1 mod 3
    text = "grid 2 2 0 0\nfield 3\n" + "".join(f"dims {i} 1\n" for i in range(4)) + (
        "map 0 1\n1 1\n{0}\nmap 0 2\n1 1\n{0}\nmap 1 3\n1 1\n1\nmap 2 3\n1 1\n1\n")
    huge, reduced = tmp_path / "huge.txt", tmp_path / "reduced.txt"
    huge.write_text(text.format(1180591620717411303424))
    reduced.write_text(text.format(1))
    code, out, err = run(capsys, "gri", str(huge), "--collection", "intervals")
    assert (code, err) == (EXIT_OK, "")
    assert (code, out, err) == run(capsys, "gri", str(reduced), "--collection", "intervals")
    assert out.splitlines()[-1] == "0,0 0,1 1,0 1,1\t1"
    assert PModule.from_text(huge.read_text()).to_text() == reduced.read_text().rstrip("\n")


def test_numpy_stays_off_the_import_and_cli_paths(capsys, tmp_path):
    """`import grinv` and CLI runs on module files, each in a fresh
    interpreter, leave numpy unloaded, and nothing loads the exact
    rational or decimal types.  `import grinv` loads grinv.mobius and no
    other layer, the table subcommands leave the zigzag, erosion,
    fixtures and sampling layers unloaded, and no path imports
    dataclasses (stdlib imports made at startup do not count)."""
    emit = tmp_path / "emit"
    assert main(["fixtures", "run", "ex-2x2-indicator", "--emit", str(emit)]) == EXIT_OK
    capsys.readouterr()
    m, n = (str(emit / f"ex-2x2-indicator-{name}.txt") for name in "mn")
    paths = tmp_path / "p.txt"
    paths.write_text("path 3\n0 0\n1 0\n1 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(grinv.__file__).resolve().parents[1]))
    env.pop("GRINV_FIELD", None)
    unused = {"grinv.zigzag", "grinv.erosion", "grinv.fixtures", "grinv.sampling"}
    for argv in (None, ["gri", m, "--collection", "intervals"], ["gpd", m], ["decompose", m],
                 ["invertible", m], ["erosion", m, n], ["zib", m, "--paths", str(paths)],
                 ["bounds", m, "--paths", str(paths)], ["fixtures", "list"]):
        code = "import sys\nbefore = set(sys.modules)\nimport grinv\n"
        code += ("assert {name for name in sys.modules if name.startswith('grinv')}"
                 " == {'grinv', 'grinv.mobius'}, sorted(sys.modules)\n")
        code += "import grinv.cli\n"
        if argv:
            code += f"assert grinv.cli.main({argv!r}) == 0\n"
        if argv is None or argv[0] in ("gri", "gpd", "decompose", "invertible"):
            code += f"assert not {unused!r} & set(sys.modules), sorted(sys.modules)\n"
        code += "assert 'dataclasses' not in set(sys.modules) - before, 'dataclasses loaded'\n"
        code += "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        code += "assert not {'fractions', 'decimal'} & set(sys.modules), 'fractions loaded'\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)


@pytest.mark.parametrize("text", [
    "path x\n0 0\n",  # no point count
    "path\n0 0\n",  # bare header
    "path 3\n0 0\n1 0\n",  # fewer points than declared
])
def test_malformed_path_file_is_an_input_error(capsys, tmp_path, square_module_file, text):
    paths = tmp_path / "p.txt"
    paths.write_text(text)
    code, out, err = run(capsys, "zib", square_module_file, "--paths", str(paths))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "gri", "/nonexistent/m.txt")
    assert code == EXIT_INPUT


# each input file each subcommand reads, as BAD beside good files
_INPUT_FILES = [
    *((command, "BAD") for command in ("gri", "gpd", "decompose", "invertible", "enumerate")),
    *((command, "MODULE", "--collection", "file:BAD")
      for command in ("gri", "gpd", "decompose", "invertible")),
    ("invertible", "MODULE", "--support", "BAD"),
    *((command, "BAD", "--paths", "PATHS") for command in ("zib", "bounds")),
    *((command, "MODULE", "--paths", "BAD") for command in ("zib", "bounds")),
    ("erosion", "BAD", "MODULE"),
    ("erosion", "MODULE", "BAD"),
]


@pytest.mark.parametrize("bad", ["missing", "directory", "undecodable"])
@pytest.mark.parametrize("argv", _INPUT_FILES, ids="-".join)
def test_unreadable_input_file_is_an_input_error(capsys, tmp_path, square_module_file, argv, bad):
    target = tmp_path / bad
    if bad == "directory":
        target.mkdir()
    elif bad == "undecodable":
        target.write_bytes(b"grid 2 2 0 0\n\xff\xfe\n")  # not UTF-8
    paths = tmp_path / "p.txt"
    paths.write_text("path 2\n0 0\n1 0\n")
    files = {"BAD": str(target), "file:BAD": f"file:{target}",
             "MODULE": square_module_file, "PATHS": str(paths)}
    argv = [files.get(t, t) for t in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: cannot read ") and "Traceback" not in err


def test_field_mismatch_rejected(capsys, square_module_file):
    code, _, err = run(capsys, "--field", "3", "gri", square_module_file)
    assert code == EXIT_INPUT
    assert "field" in err


def test_module_file_field_is_authoritative(capsys, tmp_path, rng):
    # a GF(3) module file works without any --field flag
    win = grid_poset(2, 2, (0, 0))
    m, _ = random_interval_decomposable(rng, win, 2, p=3)
    f = tmp_path / "m3.txt"
    f.write_text(m.to_text())
    code, out, _ = run(capsys, "gri", str(f))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "--field", "3", "gri", str(f))
    assert code == EXIT_OK


def test_env_field_default(capsys, square_module_file, monkeypatch):
    monkeypatch.setenv("GRINV_FIELD", "2")
    code, _, _ = run(capsys, "gri", square_module_file)
    assert code == EXIT_OK
    monkeypatch.setenv("GRINV_FIELD", "4")
    code, _, err = run(capsys, "gri", square_module_file)
    assert code == EXIT_INPUT
    assert "prime" in err


def test_field_too_large_for_exact_arithmetic(capsys, square_module_file, monkeypatch, tmp_path):
    """--field, GRINV_FIELD and a module file's field line all exit 2 on a
    prime above the cap, without a primality test (2**61 - 1 would take
    minutes of trial division)."""
    import grinv.gf as gf

    def no_trial_division(p):
        if p > gf.MAX_P:
            raise AssertionError(f"primality of {p} tested above the cap")
        return real(p)

    real = gf.is_prime
    monkeypatch.setattr(gf, "is_prime", no_trial_division)
    for big in map(str, (2**31 - 1, 2**61 - 1)):
        code, _, err = run(capsys, "--field", big, "gri", square_module_file)
        assert code == EXIT_INPUT and "exceeds" in err
        monkeypatch.setenv("GRINV_FIELD", big)
        code, _, err = run(capsys, "gri", square_module_file)
        assert code == EXIT_INPUT and "exceeds" in err
        monkeypatch.delenv("GRINV_FIELD")
        f = tmp_path / "big.txt"
        f.write_text(open(square_module_file).read().replace("field 2", f"field {big}"))
        code, _, err = run(capsys, "gri", str(f))
        assert code == EXIT_INPUT and "exceeds" in err


def test_fixtures_list_and_describe(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == EXIT_OK
    names = out.strip().splitlines()
    assert "ex-2x2-indicator" in names and "thm-tame-counterexample" in names
    code, out, _ = run(capsys, "fixtures", "run", "ex-2x2-indicator", "--describe")
    assert code == EXIT_OK
    assert out.startswith("ex-2x2-indicator:")


def test_fixtures_run_square(capsys):
    code, out, _ = run(capsys, "fixtures", "run", "ex-2x2-indicator")
    assert code == EXIT_OK
    assert "rank[m] I = 1" in out
    assert "rank[n] I = 0" in out


def test_fixtures_emit_and_reuse(capsys, tmp_path):
    out_dir = str(tmp_path / "emitted")
    code, out, _ = run(capsys, "fixtures", "run", "staircase-zz-pair", "--emit", out_dir)
    assert code == EXIT_OK
    emitted = [ln.split()[-1] for ln in out.strip().splitlines()]
    assert len(emitted) == 2
    code, table, _ = run(capsys, "gri", emitted[0], "--collection", "segments")
    assert code == EXIT_OK
    assert table.strip()


def test_fixtures_run_counterexample(capsys):
    code, out, _ = run(capsys, "fixtures", "run", "thm-tame-counterexample", "--window", "6")
    assert code == EXIT_OK
    for ln in out.splitlines():
        if ln.startswith("rank serrated"):
            assert ln.endswith("= 1")
        if ln.startswith("superset"):
            assert ln.endswith("= 0")


def test_module_round_trip_through_cli_format(tmp_path, rng):
    win = grid_poset(3, 2, (0, 0))
    m, _ = random_interval_decomposable(rng, win, 3, p=3)
    text = m.to_text()
    back = PModule.from_text(text)
    assert back.to_text() == text


def test_table_tsv_round_trip(capsys, square_module_file):
    from grinv.invariants import gri
    from grinv.posets import enumerate_grid_intervals

    _, out, _ = run(capsys, "gri", square_module_file)
    fx = build_fixture("ex-2x2-indicator")
    table = gri(fx.modules["m"], enumerate_grid_intervals(fx.poset))
    assert out.rstrip("\n") == table.to_tsv()


def test_invariant_violation_exit_code(capsys, square_module_file, monkeypatch):
    from grinv.invariants import GriTable

    fake = build_fixture("ex-2x2-indicator").intervals
    monkeypatch.setattr(
        GriTable, "check_monotone", lambda self: (fake["J1"], fake["I"])
    )
    code, _, err = run(capsys, "gri", square_module_file)
    assert code == 4
    assert "invariant violation" in err


def test_enumerate_segments_on_a_chain_past_the_brute_force_limit(capsys, tmp_path):
    # 30 elements are too many for the brute-force interval filter, but
    # segments are listed directly, as for `--collection segments`
    f = tmp_path / "chain.txt"
    f.write_text(zero_module(FinitePoset.chain(30)).to_text() + "\n")
    code, out, err = run(capsys, "enumerate", str(f), "--what", "segments")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert len(lines) == 465 and lines[0] == "0" and lines[-1] == " ".join(map(str, range(30)))
    code, table, _ = run(capsys, "gri", str(f), "--collection", "segments")
    assert code == EXIT_OK
    assert [ln.split("\t")[0] for ln in table.splitlines()] == lines
    code, _, err = run(capsys, "enumerate", str(f), "--what", "intervals")
    assert code == EXIT_CAP and "30 elements refused" in err


def test_commands_key_an_enumeration_never_and_a_file_once(capsys, tmp_path, rng, frame_key_calls):
    module = tmp_path / "m.txt"
    module.write_text(random_module(rng, grid_poset(3, 3, (2, 1))).to_text())
    coll = tmp_path / "c.txt"
    coll.write_text("3,1 3,2\n2,1\n2,1 3,1 2,2 3,2\n4,3\n2,1 2,2\n")
    commands = (("gpd",), ("gpd", "--format", "dot"), ("decompose",), ("invertible",))
    for argv in commands:
        code, out, _ = run(capsys, argv[0], str(module), "--collection", "int:2,2", *argv[1:])
        assert code == EXIT_OK and out
    assert frame_key_calls == []
    for argv in commands:
        code, out, _ = run(capsys, argv[0], str(module), "--collection", f"file:{coll}", *argv[1:])
        assert code == EXIT_OK and out
        assert frame_key_calls == [5]
        frame_key_calls.clear()
