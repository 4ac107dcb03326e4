"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from grinv.erosion import (
    ThickeningFamily,
    erosion_distance,
    erosion_study,
    shift_module,
    study_table,
    union_bbox,
)
from grinv.fixtures import build_fixture, claim2_supersets
from grinv.invariants import RankCache, gpd, gri, indicator_inversion, realize
from grinv.mobius import delta, mobius_function, multiply, zeta
from grinv.modules import PModule, generalized_rank, generalized_rank_fast
from grinv.posets import (
    EnumerationCapError,
    GridInterval,
    containment_poset,
    count_grid_intervals,
    enumerate_connected,
    enumerate_grid_intervals,
    enumerate_intervals,
    grid_poset,
)
from grinv.sampling import (
    random_chain_module,
    random_faithful_path,
    random_interval_decomposable,
    random_module,
    random_poset,
)
from grinv.zigzag import (
    ZigzagPath,
    boundary_cap,
    enumerate_simple_paths,
    interval_hull,
    is_tame,
    maximal_simple_paths,
    multiplicity_bounds,
    rank_bounds_from_gri,
    zigzag_barcode,
    zigzag_rank,
)

from conftest import brute_force_connected, brute_force_intervals, member_ids


def report(num, name, t0, budget):
    dt = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {name} ({dt:.2f}s, budget {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def chain_window_module(rng, n, p=2):
    """A random chain module housed on a 1-row grid window."""
    win = grid_poset(n, 1, (0, 0))
    idx = win.id_of_coord()
    mod = random_chain_module(rng, n, p)
    maps = {(idx[(i, 0)], idx[(i + 1, 0)]): mod._edge(i, i + 1) for i in range(n - 1)}
    return PModule(win, mod.dims, maps, p)


def chain_segments(n):
    return [GridInterval.rectangle((i, 0), (j, 0)) for i in range(n) for j in range(i, n)]


def test_criterion_01_mobius_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        p = random_poset(rng, int(rng.integers(1, 13)))
        d = dict(delta(p).values)
        assert dict(multiply(zeta(p), mobius_function(p)).values) == d
        assert dict(multiply(mobius_function(p), zeta(p)).values) == d
    for w in (1, 2, 3):
        for h in (1, 2, 3):
            cont = containment_poset(enumerate_grid_intervals(grid_poset(w, h)))
            d = dict(delta(cont.poset).values)
            assert dict(multiply(zeta(cont.poset), mobius_function(cont.poset)).values) == d
            assert dict(multiply(mobius_function(cont.poset), zeta(cont.poset)).values) == d
    report(1, "zeta * mu = delta on 200 random posets and all small containment posets", t0, 10)


def test_criterion_02_fundamental_lemma_on_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = chain_window_module(rng, n)
        table = gri(m, chain_segments(n))
        diagram = gpd(table)
        got = {it.member_set: v for it, v in diagram.support}
        path = ZigzagPath(tuple((i, 0) for i in range(n)))
        bars = zigzag_barcode(m, path)
        want = {
            frozenset((x, 0) for x in range(i, j + 1)): mult
            for (i, j), mult in bars.bars
        }
        assert got == want
        assert all(v >= 0 for v in got.values())
    report(2, "chain diagrams equal zigzag barcode multiplicities, all nonnegative", t0, 5)


def test_criterion_03_completeness_on_3x3():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    win = grid_poset(3, 3, (0, 0))
    ints = enumerate_grid_intervals(win)
    for _ in range(100):
        module, barcode = random_interval_decomposable(rng, win, 6)
        diagram = gpd(gri(module, ints))
        got = {it.member_set: v for it, v in diagram.support}
        assert got == barcode
        realized = realize(diagram.positive_part(), win)
        assert gri(realized, ints).ranks == gri(module, ints).ranks
    report(3, "diagrams over the 3x3 interval collection recover exact summand multisets", t0, 60)


def test_criterion_04_example_reproductions():
    t0 = time.perf_counter()
    # (a) the 4-chain pair
    rng = np.random.default_rng(104)
    win = grid_poset(4, 1, (0, 0))
    seg = lambda i, j: GridInterval.rectangle((i, 0), (j, 0))
    from grinv.modules import direct_sum, grid_interval_module

    plus = direct_sum(grid_interval_module(win, seg(0, 3)), grid_interval_module(win, seg(1, 2)))
    minus = direct_sum(grid_interval_module(win, seg(0, 2)), grid_interval_module(win, seg(1, 3)))
    small = [seg(1, 2), seg(0, 2), seg(1, 3)]
    assert gri(plus, small).ranks == gri(minus, small).ranks
    assert generalized_rank(plus, seg(0, 3)) == 1
    assert generalized_rank(minus, seg(0, 3)) == 0

    # (b) the 2x2 indicator inversion
    fx = build_fixture("ex-2x2-indicator")
    coll = [fx.intervals[k] for k in ("I", "J1", "J2", "J3")]
    d = indicator_inversion(coll, fx.intervals["I"])
    want = {
        fx.intervals["I"].member_set: 1,
        fx.intervals["J1"].member_set: -1,
        fx.intervals["J2"].member_set: -1,
        fx.intervals["J3"].member_set: 1,
    }
    assert {it.member_set: v for it, v in d.support} == want

    # (c) the 3x3 pair: equal interval tables, different path restrictions
    fx3 = build_fixture("grid3-zib-pair")
    ints3 = enumerate_grid_intervals(fx3.poset)
    assert gri(fx3.modules["m"], ints3).ranks == gri(fx3.modules["n"], ints3).ranks
    gam = fx3.paths["gamma"]
    assert len(gam.points) == 7
    bm = dict(zigzag_barcode(fx3.modules["m"], gam).bars)
    bn = dict(zigzag_barcode(fx3.modules["n"], gam).bars)
    assert bm != bn

    # (d) the staircase pair
    fs = build_fixture("staircase-zz-pair")
    stair = fs.intervals["I"]
    assert generalized_rank(fs.modules["m"], stair) == 1
    assert generalized_rank(fs.modules["n"], stair) == 0
    paths = maximal_simple_paths(stair.points())
    assert len(paths) == 6
    for path in paths:
        assert dict(zigzag_barcode(fs.modules["m"], path).bars) == dict(
            zigzag_barcode(fs.modules["n"], path).bars
        )

    # (e) the graded-Betti counterexample
    fb = build_fixture("betti-pair")
    gam = fb.paths["gamma"]
    assert zigzag_rank(fb.modules["m"], gam) == 1
    assert zigzag_rank(fb.modules["n"], gam) == 0
    report(4, "all five worked examples reproduce exactly", t0, 5)


def test_criterion_05_tame_path_equivalence_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    win = grid_poset(3, 3, (0, 0))
    ints = enumerate_grid_intervals(win)
    # module-independent preparation: every tame simple path, plus the
    # boundary caps (the canonical non-simple tame family)
    coords = [c for c in win.grid_coords]
    tame_paths = [p for p in enumerate_simple_paths(coords) if is_tame(p)]
    tame_paths += [boundary_cap(gi) for gi in ints]
    hulls = [interval_hull(p) for p in tame_paths]
    for _ in range(20):
        module = random_module(rng, win)
        cache = RankCache(module)
        for path, hull in zip(tame_paths, hulls):
            assert zigzag_rank(module, path) == cache.rank(hull)
    report(
        5,
        f"rank over every tame path equals its hull rank "
        f"({len(tame_paths)} paths x 20 modules)",
        t0,
        120,
    )


def test_criterion_06_bounds_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    win = grid_poset(4, 4, (0, 0))
    paths_checked = 0
    for _ in range(50):
        module = random_module(rng, win)
        cache = RankCache(module)
        for k in range(4):
            if k == 3:  # guarantee monotone coverage
                xs = sorted(int(rng.integers(0, 4)) for _ in range(2))
                ys = sorted(int(rng.integers(0, 4)) for _ in range(2))
                pts = [(x, ys[0]) for x in range(xs[0], xs[1] + 1)]
                pts += [(xs[1], y) for y in range(ys[0] + 1, ys[1] + 1)]
                path = ZigzagPath(tuple(pts))
            else:
                path = random_faithful_path(rng, win, int(rng.integers(2, 9)))
            paths_checked += 1
            lo, hi = rank_bounds_from_gri(path, cache.rank)
            true_rank = zigzag_rank(module, path)
            assert lo <= true_rank <= hi
            if is_tame(path):
                assert lo == hi == true_rank
            barcode = zigzag_barcode(module, path)
            n = len(path.points)
            for i in range(n):
                for j in range(i, n):
                    blo, bhi = multiplicity_bounds(path, (i, j), cache.rank)
                    mult = barcode.multiplicity(i, j)
                    assert blo <= mult <= bhi
                    if path.monotone:
                        assert blo == bhi == mult
    assert paths_checked == 200
    report(6, "rank and multiplicity bounds bracket the oracle on 200 paths", t0, 120)


def test_criterion_07_counterexample_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for window in (4, 6, 8):
        fx = build_fixture("thm-tame-counterexample", window=window)
        module = fx.modules["m"]
        shifts = fx.extras["shifts"]
        assert len(fx.intervals) == len(shifts)
        for gi in fx.intervals.values():
            assert generalized_rank(module, gi) == 1
            assert generalized_rank_fast(module, gi) == 1
        supersets = claim2_supersets(fx, rng, count=50)
        assert len(supersets) == 50
        for members in supersets:
            assert generalized_rank(module, members) == 0
    report(7, "serrated ranks are 1 and 50 sampled strict supersets are 0 at windows 4/6/8", t0, 60)


def test_criterion_08_stability_and_pseudometric():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    win = grid_poset(3, 3, (0, 0))
    fam = ThickeningFamily(2, 2)
    for _ in range(50):
        module = random_module(rng, win)
        for delta_ in (0, 1, 2):
            shifted = shift_module(module, delta_)
            coll = fam.members_within(union_bbox(module, shifted))
            assert erosion_distance(module, shifted, coll) <= delta_
    for _ in range(50):
        mods = [random_module(rng, win) for _ in range(3)]
        coll = fam.members_within(union_bbox(mods[0], mods[1]))
        d = {}
        for i in range(3):
            for j in range(i, 3):
                d[i, j] = d[j, i] = erosion_distance(mods[i], mods[j], coll)
        assert d[0, 0] == d[1, 1] == d[2, 2] == 0
        assert d[0, 2] <= d[0, 1] + d[1, 2]
        assert d[0, 1] <= d[0, 2] + d[2, 1]
        assert d[1, 2] <= d[1, 0] + d[0, 2]
    report(8, "erosion distance bounded by the shift and pseudometric on 50 triples", t0, 120)


def test_criterion_09_tradeoff_instrumentation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)

    def builder(side):
        win = grid_poset(side, side, (0, 0))
        module, _ = random_interval_decomposable(rng, win, 3)
        return module, shift_module(module, 1)

    sides = (4, 6, 8)
    budgets = ((1, 1), (2, 1), (2, 2))
    rows = erosion_study(builder, sides, budgets)
    print(study_table(rows))
    by_key = {(r.side, r.max_min_pts, r.max_max_pts): r for r in rows}
    for side in sides:
        seq = [by_key[(side, mm, nn)] for mm, nn in budgets]
        assert seq[0].rank_queries < seq[1].rank_queries < seq[2].rank_queries
        assert seq[0].wall_seconds < seq[1].wall_seconds < seq[2].wall_seconds
    for mm, nn in budgets:
        seq = [by_key[(side, mm, nn)] for side in sides]
        assert seq[0].rank_queries < seq[1].rank_queries < seq[2].rank_queries
        assert seq[0].wall_seconds < seq[1].wall_seconds < seq[2].wall_seconds
    report(9, "erosion work and wall time grow with the window and the interval budget", t0, 600)


def test_criterion_10_enumeration_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    posets = [random_poset(rng, int(rng.integers(1, 9))) for _ in range(12)]
    posets += [grid_poset(2, 2), grid_poset(3, 3), grid_poset(4, 3), grid_poset(2, 6)]
    for p in posets:
        assert p.n <= 12
        fast = [member_ids(p, s) for s in enumerate_intervals(p)]
        assert fast == sorted(brute_force_intervals(p), key=lambda ms: (len(ms), ms))
        if p.n <= 10:
            conn = [s.members for s in enumerate_connected(p)]
            assert conn == sorted(brute_force_connected(p), key=lambda ms: (len(ms), ms))
    assert count_grid_intervals(10, 10) == 1_497_925_315
    with pytest.raises(EnumerationCapError):
        enumerate_intervals(grid_poset(10, 10))
    report(10, "enumeration matches brute force; the 10x10 window is refused by default", t0, 60)
