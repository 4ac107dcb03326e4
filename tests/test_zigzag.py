import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grinv.fixtures import build_fixture
from grinv.gf import rref_rows
from grinv.invariants import RankCache, gri
from grinv.modules import PModule, generalized_rank, generalized_rank_fast, grid_interval_module
from grinv.posets import (
    GridInterval,
    canonical_grid_intervals,
    enumerate_grid_intervals,
    grid_poset,
    lower_fence,
    straight_path,
    upper_fence,
)
from grinv.sampling import (
    random_faithful_path,
    random_grid_interval,
    random_interval_decomposable,
    random_module,
)
from grinv.zigzag import (
    EXHAUSTIVE_CAP,
    ZigzagPath,
    _exact_span,
    _span_ranks,
    boundary_cap,
    enumerate_simple_paths,
    gri_bounds_from_zib,
    interval_hull,
    is_solid,
    is_tame,
    is_thin,
    max_zz,
    maximal_simple_paths,
    min_zz,
    multiplicity_bounds,
    negative_cover_path,
    path_module,
    rank_bounds_from_gri,
    simple_tame_path,
    zib,
    zigzag_barcode,
    zigzag_rank,
)


def chain_barcode_oracle(module, points):
    """Classical persistence of a monotone run, via plain composite-map ranks."""
    idx = module.poset.id_of_coord()
    ids = [idx[pt] for pt in points]
    n = len(ids)

    def r(i, j):
        if i > j:
            return 0
        a, b = ids[i], ids[j]
        t = np.array(module.transition(a, b), dtype=np.int64).reshape(module.dims[b], module.dims[a])
        return len(rref_rows(t.tolist(), t.shape[1], module.p)[1])

    bars = {}
    for i in range(n):
        for j in range(i, n):
            m = r(i, j)
            if i > 0:
                m -= r(i - 1, j)
            if j < n - 1:
                m -= r(i, j + 1)
            if i > 0 and j < n - 1:
                m += r(i - 1, j + 1)
            if m:
                bars[(i, j)] = m
    return bars


# -- paths and hulls ----------------------------------------------------------------


def test_path_validation():
    with pytest.raises(ValueError):
        ZigzagPath(())
    with pytest.raises(ValueError):
        ZigzagPath(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        ZigzagPath(((0, 1), (1, 0)))  # incomparable step
    p = ZigzagPath(((0, 0), (2, 2), (2, 0)))  # comparable but not faithful
    assert not p.faithful


def test_path_flags():
    mono = ZigzagPath(((0, 0), (1, 0), (1, 1)))
    assert mono.faithful and mono.simple and mono.monotone and not mono.negative
    neg = ZigzagPath(((2, 0), (1, 0), (1, 1), (0, 1)))
    assert neg.negative and not neg.monotone
    assert neg.reverse().negative
    revisit = ZigzagPath(((0, 0), (1, 0), (0, 0)))
    assert revisit.faithful and not revisit.simple


def test_canonical_orientation():
    p = ZigzagPath(((1, 1), (1, 0), (0, 0)))
    assert p.canonical().points[0] == (0, 0)
    assert p.canonical() == p.reverse().canonical()


def test_hull_of_single_point_and_segment():
    assert interval_hull(ZigzagPath(((2, 3),))).member_set == {(2, 3)}
    seg = ZigzagPath(((0, 0), (1, 0), (1, 1)))
    assert interval_hull(seg).member_set == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_matches_brute_scan(rng, grid33):
    for _ in range(20):
        path = random_faithful_path(rng, grid33, int(rng.integers(1, 8)))
        hull = interval_hull(path)
        pts = set(path.points)
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        scan = {
            (x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if any(px <= x and py <= y for px, py in pts)
            and any(x <= px and y <= py for px, py in pts)
        }
        assert hull.member_set == scan


def test_path_text_round_trip():
    p = ZigzagPath(((0, 0), (1, 0), (1, 1), (1, 2)))
    assert ZigzagPath.from_text(p.to_text()) == p
    # comment lines may be indented, the first one too
    head, *points = p.to_text().splitlines()
    assert ZigzagPath.from_text("\n".join(["  # note", head, "\t# note", *points])) == p


# -- fences, tameness, thin/solid ----------------------------------------------------


def test_fences_of_rectangle():
    rect = GridInterval.rectangle((0, 0), (2, 1))
    assert min_zz(rect).points == ((0, 0),)
    assert max_zz(rect).points == ((2, 1),)


def test_boundary_cap_is_tame(rng):
    for _ in range(25):
        gi = random_grid_interval(rng, (0, 0, 4, 4))
        cap = boundary_cap(gi)
        assert cap.faithful
        assert is_tame(cap)
        assert interval_hull(cap).member_set == gi.member_set


def test_tame_detection_on_handmade_paths():
    stair = GridInterval(0, ((1, 3), (0, 2)))
    cap = boundary_cap(stair)
    assert is_tame(cap)
    # same hull shape, but the lower fence never appears contiguously
    around = ZigzagPath(((1, 0), (2, 0), (2, 1), (1, 1), (0, 1)))
    assert not is_tame(around)
    single = ZigzagPath(((1, 1),))
    assert is_tame(single)


def slice_tame(points) -> bool:
    """Oracle: both fences of the hull, forwards or backwards, at some offset of the path."""
    hull = interval_hull(ZigzagPath(points))
    for fence in (lower_fence(hull), upper_fence(hull)):
        k = len(fence)
        if not any(points[i:i + k] in (fence, fence[::-1]) for i in range(len(points) - k + 1)):
            return False
    return True


_UNIT = ((1, 0), (-1, 0), (0, 1), (0, -1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.integers(-3, 3), st.lists(st.integers(0, 3), max_size=14),
       st.integers(0, 2 ** 32 - 1))
# spans that a fence run crossing either end of the span would wrongly pass
@example(1, -3, [2, 1, 0, 0, 3, 1, 2, 0, 0], 0)
@example(1, 0, [1, 1, 2, 0, 3, 0, 2, 3, 3], 0)
def test_tameness_matches_the_slice_oracle(x, y, steps, seed):
    # unit walks that may revisit points, and boundary caps, which often do
    walk = [(x, y)]
    for s in steps:
        dx, dy = _UNIT[s]
        walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
    cap = boundary_cap(random_grid_interval(np.random.default_rng(seed), (x, y, x + 3, y + 3)))
    for path in (ZigzagPath(tuple(walk)), cap):
        pts = path.points
        assert is_tame(path) == slice_tame(pts)
        for (a, b), (hull, tame) in path._span_table.items():
            assert hull == interval_hull(ZigzagPath(pts[a:b + 1]))
            assert tame == slice_tame(pts[a:b + 1]), (pts, a, b)


def test_monotone_and_negative_paths_are_tame(rng, grid33):
    mono = ZigzagPath(((0, 0), (0, 1), (1, 1), (2, 1), (2, 2)))
    assert is_tame(mono)
    neg = ZigzagPath(((2, 0), (1, 0), (1, 1), (0, 1), (0, 2)))
    assert is_tame(neg)


def test_thin_and_solid_classification():
    row = GridInterval.rectangle((0, 0), (3, 0))
    assert is_thin(row) and is_solid(row)
    square = GridInterval.rectangle((0, 0), (1, 1))
    assert not is_thin(square) and is_solid(square)
    stair = GridInterval(0, ((1, 3), (0, 2)))
    assert not is_thin(stair) and not is_solid(stair)
    elbow = GridInterval(0, ((1, 2), (0, 1)))
    assert is_thin(elbow)  # one overlap column: traced by a negative path
    fat = GridInterval(0, ((0, 2), (0, 1)))
    assert not is_thin(fat)  # contains a 2x2 square
    vee = GridInterval(0, ((1, 1), (0, 1)))
    assert is_thin(vee)


def test_negative_cover_path_traces_thin_intervals(rng):
    vee = GridInterval(0, ((2, 3), (1, 2), (0, 1)))
    path = negative_cover_path(vee)
    assert path.negative and path.simple
    assert set(path.points) == vee.member_set
    with pytest.raises(ValueError):
        negative_cover_path(GridInterval.rectangle((0, 0), (1, 1)))


def test_simple_tame_path_for_solid_intervals(rng):
    found = 0
    for _ in range(40):
        gi = random_grid_interval(rng, (0, 0, 4, 4))
        path = simple_tame_path(gi)
        if path is None:
            continue
        found += 1
        assert path.simple and is_tame(path)
        assert interval_hull(path).member_set == gi.member_set
    assert found > 10


def test_staircase_pair_interval_is_not_solid():
    stair = GridInterval(0, ((1, 3), (0, 2)))
    assert simple_tame_path(stair) is None


# -- zigzag ranks and barcodes ----------------------------------------------------------


def test_single_point_barcode_is_dimension(grid33, rng):
    m = random_module(rng, grid33)
    idx = grid33.id_of_coord()
    for pt in ((0, 0), (1, 1), (2, 2)):
        bc = zigzag_barcode(m, ZigzagPath((pt,)))
        total = sum(v for _, v in bc.bars)
        assert total == m.dims[idx[pt]]


def test_chain_barcode_matches_composite_rank_oracle(rng):
    win = grid_poset(6, 1, (0, 0))
    for _ in range(10):
        m = random_module(rng, win, allow_nondecomposable=False)
        pts = tuple((i, 0) for i in range(6))
        bc = zigzag_barcode(m, ZigzagPath(pts))
        assert dict(bc.bars) == chain_barcode_oracle(m, pts)


def test_barcode_counts_dimensions_at_every_index(rng, grid33):
    idx = grid33.id_of_coord()
    for _ in range(8):
        m = random_module(rng, grid33)
        path = random_faithful_path(rng, grid33, int(rng.integers(2, 9)))
        bc = zigzag_barcode(m, path)
        for i, pt in enumerate(path.points):
            assert bc.total_at(i) == m.dims[idx[pt]]


def test_barcode_reversal_symmetry(rng, grid33):
    for _ in range(8):
        m = random_module(rng, grid33)
        path = random_faithful_path(rng, grid33, 6)
        fwd = zigzag_barcode(m, path)
        bwd = zigzag_barcode(m, path.reverse())
        n = len(path)
        assert {(n - 1 - b, n - 1 - a): m for (a, b), m in fwd.bars} == dict(bwd.bars)


def test_full_bar_of_covering_interval_module(grid33, rng):
    gi = GridInterval.from_points([(1, 0), (2, 0), (0, 1), (1, 1)])
    m = grid_interval_module(grid33, gi)
    cap = boundary_cap(gi)
    assert zigzag_rank(m, cap) == 1


def test_tame_paths_compute_hull_rank(rng, grid33):
    cache_hits = 0
    for _ in range(6):
        m = random_module(rng, grid33)
        for _ in range(10):
            path = random_faithful_path(rng, grid33, int(rng.integers(1, 9)))
            if not is_tame(path):
                continue
            cache_hits += 1
            assert zigzag_rank(m, path) == generalized_rank_fast(m, interval_hull(path))
    assert cache_hits > 8


def test_tame_paths_on_5x5_sampled(rng):
    win = grid_poset(5, 5, (0, 0))
    hits = 0
    for _ in range(3):
        m = random_module(rng, win)
        cache = RankCache(m)
        for _ in range(40):
            path = random_faithful_path(rng, win, int(rng.integers(1, 11)))
            if not is_tame(path):
                continue
            hits += 1
            assert zigzag_rank(m, path) == cache.rank(interval_hull(path))
        for _ in range(4):
            gi = random_grid_interval(rng, (0, 0, 4, 4))
            hits += 1
            assert zigzag_rank(m, boundary_cap(gi)) == cache.rank(gi)
    assert hits > 20


def test_zigzag_rank_on_nonfaithful_path():
    fx = build_fixture("betti-pair")
    gam = fx.paths["gamma"]
    assert not gam.faithful
    assert zigzag_rank(fx.modules["m"], gam) == 1
    assert zigzag_rank(fx.modules["n"], gam) == 0
    bc = zigzag_barcode(fx.modules["m"], gam)
    assert bc.full_bar() == 1
    bcn = zigzag_barcode(fx.modules["n"], gam)
    assert bcn.full_bar() == 0


def test_zib_over_monotone_paths_reproduces_segment_ranks(rng, grid33):
    m, _ = random_interval_decomposable(rng, grid33, 4)
    mono = ZigzagPath(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)))
    bc = zib(m, [mono])[mono.canonical()]
    cache = RankCache(m)
    pts = mono.points
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            seg = GridInterval.from_points(
                interval_hull(ZigzagPath(pts[i : j + 1])).points()
            )
            full = sum(v for (a, b), v in bc.bars if a <= i and j <= b)
            assert full == cache.rank(seg)


def test_zib_of_zero_module(grid33):
    from grinv.modules import zero_module

    z = zero_module(grid33)
    path = ZigzagPath(((0, 0), (1, 0), (1, 1)))
    assert zib(z, [path])[path.canonical()].bars == ()


def test_staircase_fixture_six_maximal_paths_and_ranks():
    fx = build_fixture("staircase-zz-pair")
    m, n = fx.modules["m"], fx.modules["n"]
    stair = fx.intervals["I"]
    paths = maximal_simple_paths(stair.points())
    assert len(paths) == 6
    for path in paths:
        assert dict(zigzag_barcode(m, path).bars) == dict(zigzag_barcode(n, path).bars)
    assert generalized_rank(m, stair) == 1
    assert generalized_rank(n, stair) == 0


def test_grid3_fixture_path_barcodes_differ():
    fx = build_fixture("grid3-zib-pair")
    gam = fx.paths["gamma"]
    bm = zigzag_barcode(fx.modules["m"], gam)
    bn = zigzag_barcode(fx.modules["n"], gam)
    assert dict(bm.bars) != dict(bn.bars)


def draw_module_and_path(data, max_len, origin=(0, 0), length=None):
    """A random 3x3 or 4x4 module on the window at ``origin`` and a path
    for it: of at most ``length`` points if given, else of a drawn length
    up to ``max_len`` (corner paths then grow by their joins and meets).

    Walks take unit steps; bounces walk out and straight back, so they
    revisit every point; corner paths join consecutive drawn points
    through their join or meet, so steps need not be unit steps.  Corner
    paths may leave the window, where the module (extended by zero) is 0;
    summands rarely cover the window, so zero-dimensional points inside
    it are common too.
    """
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    side = data.draw(st.sampled_from([3, 4]), label="side")
    seed = data.draw(st.integers(0, 10**9), label="seed")
    kind = data.draw(st.sampled_from(["walk", "bounce", "corners"]), label="kind")
    rng = np.random.default_rng(seed)
    win = grid_poset(side, side, origin)
    m = random_module(rng, win, p, max_summands=int(rng.integers(1, 9)))
    n = int(rng.integers(2, max_len + 1)) if length is None else length
    if kind == "walk":
        return m, random_faithful_path(rng, win, n)
    if kind == "bounce":
        out = random_faithful_path(rng, win, (n + 1) // 2).points
        return m, ZigzagPath(out + out[-2::-1])
    ox, oy = origin
    pts = draw_corner_path(data, (-1, side), n).points[:length]
    return m, ZigzagPath(tuple((x + ox, y + oy) for x, y in pts))


def draw_corner_path(data, span, length):
    """A path through ``length`` points drawn from span x span, joining
    consecutive incomparable points through their join or meet."""
    point = st.tuples(st.integers(*span), st.integers(*span))
    drawn = data.draw(st.lists(point, min_size=length, max_size=length), label="corners")
    pts = [drawn[0]]
    for q in drawn[1:]:
        a = pts[-1]
        if not ((a[0] <= q[0] and a[1] <= q[1]) or (q[0] <= a[0] and q[1] <= a[1])):
            pick = max if data.draw(st.booleans()) else min
            pts.append((pick(a[0], q[0]), pick(a[1], q[1])))
        if q != pts[-1]:
            pts.append(q)
    return ZigzagPath(tuple(pts))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_span_ranks_match_the_limit_colimit_oracle(data):
    m, path = draw_module_and_path(data, 7)
    n = len(path.points)
    table = _span_ranks(m, path, range(n))
    for i in range(n):
        assert len(table[i]) == n - i
        for j in range(i, n):
            zz = path_module(m, path.subpath(i, j))
            assert table[i][j - i] == generalized_rank(zz, range(zz.poset.n)), (i, j)
    assert zigzag_rank(m, path) == table[0][-1]


def oracle_barcode(module, path):
    """Bars by inclusion-exclusion over the ranks of the limit-to-colimit
    maps of the path modules of every subpath (`path_module`), with no
    sweep and no move memo."""
    n = len(path.points)

    def rank(i, j):
        if i < 0 or j == n:
            return 0
        zz = path_module(module, path.subpath(i, j))
        return generalized_rank(zz, range(zz.poset.n))

    bars = {}
    for i in range(n):
        for j in range(i, n):
            mult = rank(i, j) - rank(i - 1, j) - rank(i, j + 1) + rank(i - 1, j + 1)
            if mult:
                bars[i, j] = mult
    return bars


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([3, 4]),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
       st.integers(0, 10**9), st.data())
def test_warm_move_memo_keeps_path_barcodes(p, side, origin, seed, data):
    """A module whose memo of subspace moves was filled by gri over its
    window and by the barcodes of other paths, walks inside the window and
    corner paths leaving it, gives every path the barcode of a cold module
    and of the path-module oracle; E and Q moves of one span from one
    point differ, so the memo must tell them apart."""
    rng = np.random.default_rng(seed)
    win = grid_poset(side, side, origin)
    m = random_module(rng, win, p, max_summands=int(rng.integers(1, 6)))
    cold = PModule(m.poset, m.dims, m.maps, p, validate=False)
    ox, oy = origin
    paths = [random_faithful_path(rng, win, int(rng.integers(2, 7))) for _ in range(3)]
    for _ in range(3):
        path = draw_corner_path(data, (-1, side), int(rng.integers(2, 6)))
        paths.append(ZigzagPath(tuple((x + ox, y + oy) for x, y in path.points)))
    gri(m, enumerate_grid_intervals(win))
    assert m._moves
    for path in paths:
        zigzag_barcode(m, path)
    for path in data.draw(st.permutations(paths)):
        cold._clear_memos()
        warm_bars = dict(zigzag_barcode(m, path).bars)
        assert warm_bars == dict(zigzag_barcode(cold, path).bars)
        assert warm_bars == oracle_barcode(m, path), path.points


def interval_hull_reference(path):
    """The hull by its definition: bounding-box points with path points below and above."""
    pts = path.points
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    hull = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            below = any(px <= x and py <= y for px, py in pts)
            above = any(x <= px and y <= py for px, py in pts)
            if below and above:
                hull.append((x, y))
    return GridInterval.from_points(hull)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8),
       st.lists(st.booleans(), min_size=8, max_size=8), st.booleans())
def test_interval_hull_matches_the_sandwich_rule(drawn, picks, unit_steps):
    """Corner paths join incomparable drawn points through their join or
    meet, so steps need not be unit steps (and paths may revisit points);
    with ``unit_steps`` every step is then walked one unit at a time."""
    pts = [drawn[0]]
    for q, join in zip(drawn[1:], picks):
        a = pts[-1]
        if not ((a[0] <= q[0] and a[1] <= q[1]) or (q[0] <= a[0] and q[1] <= a[1])):
            pick = max if join else min
            pts.append((pick(a[0], q[0]), pick(a[1], q[1])))
        if q != pts[-1]:
            pts.append(q)
    if unit_steps:
        walk = [pts[0]]
        for x, y in pts[1:]:
            wx, wy = walk[-1]
            sx, sy = (1 if x > wx else -1), (1 if y > wy else -1)
            walk += [(u, wy) for u in range(wx + sx, x + sx, sx)]
            walk += [(x, v) for v in range(wy + sy, y + sy, sy)]
        pts = walk
    path = ZigzagPath(tuple(pts))
    assert path.faithful or not unit_steps
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            sub = path.subpath(i, j)
            assert interval_hull(sub) == interval_hull_reference(sub), (i, j)


# -- bounds --------------------------------------------------------------------------


def tame_subpaths_reference(path):
    """Every tame subpath, enumerated directly: the rule the span table replaces."""
    n = len(path.points)
    for i in range(n):
        for j in range(i, n):
            sub = path.subpath(i, j)
            if is_tame(sub):
                yield sub


def rank_bounds_reference(path, interval_rank):
    m = interval_rank(interval_hull(path))
    return m, min(interval_rank(interval_hull(sub)) for sub in tame_subpaths_reference(path))


def multiplicity_bounds_reference(path, span, interval_rank):
    i, j = span
    n = len(path.points)
    lo, hi = rank_bounds_reference(path.subpath(i, j), interval_rank)
    if j < n - 1:
        mp, lp = rank_bounds_reference(path.subpath(i, j + 1), interval_rank)
        lo, hi = lo - lp, hi - mp
    if i > 0:
        mm, lm = rank_bounds_reference(path.subpath(i - 1, j), interval_rank)
        lo, hi = lo - lm, hi - mm
    if i > 0 and j < n - 1:
        mpm, lpm = rank_bounds_reference(path.subpath(i - 1, j + 1), interval_rank)
        lo, hi = lo + mpm, hi + lpm
    return lo, hi


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_bounds_match_the_tame_subpath_rule(data):
    m, path = draw_module_and_path(data, 8)
    cache = RankCache(m)

    def recording(log):
        def interval_rank(gi):
            log.add(gi.member_set)
            return cache.rank(gi)
        return interval_rank

    got, want = set(), set()
    assert (rank_bounds_from_gri(path, recording(got))
            == rank_bounds_reference(path, recording(want)))
    assert got == want
    n = len(path.points)
    for i in range(n):
        for j in range(i, n):
            got, want = set(), set()
            assert (multiplicity_bounds(path, (i, j), recording(got))
                    == multiplicity_bounds_reference(path, (i, j), recording(want)))
            assert got == want, (i, j)


OFF_ZERO = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


def all_spans(path):
    n = len(path.points)
    return [(i, j) for i in range(n) for j in range(i, n)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(OFF_ZERO, st.data())
def test_warm_bracket_memo_matches_the_per_span_reference(origin, data):
    """Per-span calls with one rank function, in shuffled order and split
    around the whole-path bracket, read one warm memo and must give the
    bounds of the per-span reference."""
    m, path = draw_module_and_path(data, 8, origin)
    cache = RankCache(m)
    spans = data.draw(st.permutations(all_spans(path)), label="order")
    split = data.draw(st.integers(0, len(spans)), label="split")
    for k, span in enumerate(spans):
        if k == split:
            assert rank_bounds_from_gri(path, cache.rank) == rank_bounds_reference(path, cache.rank)
        assert (multiplicity_bounds(path, span, cache.rank)
                == multiplicity_bounds_reference(path, span, cache.rank)), span
    assert rank_bounds_from_gri(path, cache.rank) == rank_bounds_reference(path, cache.rank)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(OFF_ZERO, st.integers(0, 10**9), st.data())
def test_bracket_memo_keeps_each_rank_function_apart(origin, seed, data):
    """One path bracketed alternately against two modules' caches gives
    each module its own bounds."""
    m, path = draw_module_and_path(data, 8, origin)
    rng = np.random.default_rng(seed)
    other = random_module(rng, m.poset, m.p, max_summands=int(rng.integers(1, 9)))
    caches = (RankCache(m), RankCache(other))
    spans = all_spans(path)
    want = [{s: multiplicity_bounds_reference(path, s, c.rank) for s in spans} for c in caches]
    whole = [rank_bounds_reference(path, c.rank) for c in caches]
    for span in data.draw(st.permutations(spans), label="order"):
        for k, cache in enumerate(caches):
            assert multiplicity_bounds(path, span, cache.rank) == want[k][span], span
            assert rank_bounds_from_gri(path, cache.rank) == whole[k]


class Boom(Exception):
    pass


@settings(max_examples=40, deadline=None, derandomize=True)
@given(OFF_ZERO, st.data())
def test_bracket_memo_survives_a_raising_rank_function(origin, data):
    """A rank function that raises on its k-th call leaves only complete
    memo entries: retrying with the same function gives the reference."""
    m, path = draw_module_and_path(data, 8, origin)
    cache = RankCache(m)
    spans = all_spans(path)
    fail_at = data.draw(st.integers(1, len(spans)), label="fail_at")
    calls = 0

    def flaky(gi):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise Boom
        return cache.rank(gi)

    def bounds(span, interval_rank):
        if span is None:
            return rank_bounds_from_gri(path, interval_rank)
        return multiplicity_bounds(path, span, interval_rank)

    def reference(span):
        if span is None:
            return rank_bounds_reference(path, cache.rank)
        return multiplicity_bounds_reference(path, span, cache.rank)

    for span in data.draw(st.permutations(spans + [None]), label="order"):
        try:
            got = bounds(span, flaky)
        except Boom:
            got = None
        if got is None:  # retried outside the handler, so a failure is not chained to Boom
            got = bounds(span, flaky)
        assert got == reference(span), span


@settings(max_examples=40, deadline=None, derandomize=True)
@given(OFF_ZERO, st.data())
def test_bracket_memo_ranks_each_span_hull_at_most_once(origin, data):
    """All spans of a path of at most 12 points, with one RankCache, call
    ``interval_rank`` at most n(n + 1) / 2 times: once per span hull."""
    m, path = draw_module_and_path(data, 12, origin, length=12)
    cache = RankCache(m)
    calls = 0

    def counting(gi):
        nonlocal calls
        calls += 1
        return cache.rank(gi)

    rank_bounds_from_gri(path, counting)
    for span in data.draw(st.permutations(all_spans(path)), label="order"):
        multiplicity_bounds(path, span, counting)
    n = len(path.points)
    assert calls <= n * (n + 1) // 2


def test_rank_bounds_tame_equality(rng, grid33):
    for _ in range(5):
        m = random_module(rng, grid33)
        cache = RankCache(m)
        path = boundary_cap(random_grid_interval(rng, (0, 0, 2, 2)))
        lo, hi = rank_bounds_from_gri(path, cache.rank)
        assert lo == hi == zigzag_rank(m, path)


def test_rank_bounds_singleton(rng, grid33):
    m = random_module(rng, grid33)
    cache = RankCache(m)
    idx = grid33.id_of_coord()
    path = ZigzagPath(((1, 1),))
    lo, hi = rank_bounds_from_gri(path, cache.rank)
    assert lo == hi == m.dims[idx[(1, 1)]]


def test_rank_bounds_bracket_oracle(rng):
    win = grid_poset(4, 4, (0, 0))
    for _ in range(6):
        m = random_module(rng, win)
        cache = RankCache(m)
        for _ in range(6):
            path = random_faithful_path(rng, win, int(rng.integers(2, 9)))
            lo, hi = rank_bounds_from_gri(path, cache.rank)
            true = zigzag_rank(m, path)
            assert lo <= true <= hi
            if is_tame(path):
                assert lo == hi == true


def test_multiplicity_bounds_bracket_oracle(rng):
    win = grid_poset(4, 4, (0, 0))
    for _ in range(5):
        m = random_module(rng, win)
        cache = RankCache(m)
        path = random_faithful_path(rng, win, int(rng.integers(3, 8)))
        bc = zigzag_barcode(m, path)
        n = len(path.points)
        for i in range(n):
            for j in range(i, n):
                lo, hi = multiplicity_bounds(path, (i, j), cache.rank)
                assert lo <= bc.multiplicity(i, j) <= hi


def test_multiplicity_bounds_exact_on_monotone(rng, grid33):
    for _ in range(5):
        m = random_module(rng, grid33)
        cache = RankCache(m)
        path = ZigzagPath(((0, 0), (0, 1), (1, 1), (2, 1), (2, 2)))
        bc = zigzag_barcode(m, path)
        n = len(path.points)
        for i in range(n):
            for j in range(i, n):
                lo, hi = multiplicity_bounds(path, (i, j), cache.rank)
                assert lo == hi == bc.multiplicity(i, j)


def test_multiplicity_bounds_zero_module(grid33):
    from grinv.modules import zero_module

    z = zero_module(grid33)
    cache = RankCache(z)
    path = ZigzagPath(((0, 0), (1, 0), (1, 1)))
    assert multiplicity_bounds(path, (0, 1), cache.rank) == (0, 0)


def test_gri_bounds_thin_and_solid_exact(rng, grid33):
    for _ in range(4):
        m = random_module(rng, grid33)
        vee = GridInterval(0, ((1, 2), (0, 1)))
        lo, hi = gri_bounds_from_zib(m, vee)
        assert lo == hi == generalized_rank_fast(m, vee)
        rect = GridInterval.rectangle((0, 0), (2, 1))
        lo, hi = gri_bounds_from_zib(m, rect)
        assert lo == hi == generalized_rank_fast(m, rect)


def test_gri_bounds_memo_one_exact_span_per_interval_and_one_enumeration(monkeypatch):
    """Bounding many intervals of one module runs ``_exactly_spanned`` once
    per distinct interval and enumerates the window's candidates once
    (the memos of ``PModule._spans`` and ``_span_candidates``); the bounds
    equal those of a module whose memos are cleared before every call."""
    import grinv.zigzag as zigzag_mod

    win = grid_poset(4, 4, (0, 0))
    m = random_module(np.random.default_rng(3), win, 3)
    hard = [gi for gi in enumerate_grid_intervals(win)
            if not is_thin(gi) and simple_tame_path(gi) is None][:24]
    cold = []
    for gi in hard:
        m._clear_memos()
        cold.append(gri_bounds_from_zib(m, gi))
    m._clear_memos()
    spanned, enumerations = [], []
    real_span, real_enum = zigzag_mod._exactly_spanned, zigzag_mod.canonical_grid_intervals
    monkeypatch.setattr(zigzag_mod, "_exactly_spanned",
                        lambda module, gi: spanned.append(gi) or real_span(module, gi))
    monkeypatch.setattr(zigzag_mod, "canonical_grid_intervals",
                        lambda *args: enumerations.append(args) or real_enum(*args))
    assert [gri_bounds_from_zib(m, gi) for gi in hard] == cold
    assert len(spanned) == len(set(spanned)) == len(m._spans) > len(hard)
    assert len(enumerations) == 1
    assert [gri_bounds_from_zib(m, gi) for gi in hard] == cold
    assert len(spanned) == len(m._spans) and len(enumerations) == 1


def test_gri_bounds_staircase_straddle():
    fx = build_fixture("staircase-zz-pair")
    stair = fx.intervals["I"]
    lo_m, hi_m = gri_bounds_from_zib(fx.modules["m"], stair)
    lo_n, hi_n = gri_bounds_from_zib(fx.modules["n"], stair)
    assert lo_m <= 1 <= hi_m
    assert lo_n <= 0 and hi_n >= 1  # the bound cannot separate the pair
    assert (lo_m, hi_m) == (lo_n, hi_n)


def test_gri_bounds_scale_to_larger_windows(rng):
    # above the exhaustive cap the light families must still be sound and fast
    win = grid_poset(6, 6, (0, 0))
    m = random_module(rng, win)
    fat = GridInterval(0, ((0, 5),) * 4)  # 24 points: far beyond the cap
    import time

    t0 = time.perf_counter()
    lo, hi = gri_bounds_from_zib(m, fat)
    assert time.perf_counter() - t0 < 5
    true = generalized_rank_fast(m, fat)
    assert lo <= true <= hi


def draw_interval(data, origin, side=5):
    """A staircase inside the side x side box at ``origin``, drawn row by row upwards."""
    x0, y0 = origin
    x1, y1 = x0 + side - 1, y0 + side - 1
    y = data.draw(st.integers(y0, y1), label="y0")
    a = data.draw(st.integers(x0, x1), label="a")
    rows = [(a, data.draw(st.integers(a, x1), label="b"))]
    for _ in range(data.draw(st.integers(0, y1 - y), label="rows")):
        a, b = rows[-1]
        rows.append((data.draw(st.integers(x0, a)), data.draw(st.integers(a, b))))
    return GridInterval(y, tuple(rows))


def up_then_right(p, q):
    """The monotone unit-step path from p up its column, then right to q."""
    (x, y), (x1, y1) = p, q
    return tuple((x, t) for t in range(y, y1 + 1)) + tuple((t, y1) for t in range(x + 1, x1 + 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(OFF_ZERO, st.data())
def test_straight_leg_paths_are_faithful_paths_inside_the_interval(origin, data):
    """Fences, boundary caps, negative cover paths and the up-then-right
    min-to-max paths are unit-step paths inside the interval from and to
    the right points; a cap's connector runs up, then right."""
    gi = draw_interval(data, origin)
    mins, maxs = gi.antichains()

    def check(pts, start, end):
        assert ZigzagPath(pts).faithful and gi.member_set.issuperset(pts)
        assert (pts[0], pts[-1]) == (start, end)

    low, up = lower_fence(gi), upper_fence(gi)
    check(low, mins[0], mins[-1])
    check(up, maxs[0], maxs[-1])
    cap = boundary_cap(gi)
    check(cap.points, mins[-1], maxs[-1])
    assert cap.points == low[::-1] + up_then_right(mins[0], maxs[0])[1:] + up[1:]
    assert interval_hull(cap) == gi
    if is_thin(gi):
        check(negative_cover_path(gi).points, (gi.rows[0][1], gi.y0), (gi.rows[-1][0], gi.y1))
    for p in mins:
        for q in maxs:
            if p[0] <= q[0] and p[1] <= q[1]:
                pts = straight_path((p, (p[0], q[1]), q))
                check(pts, p, q)
                assert pts == up_then_right(p, q)


def bfs_monotone_path(gi, src, dst):
    """A shortest unit-step path src -> dst inside the interval, by
    breadth-first search: monotone when src <= dst, as the rectangle
    between them lies inside."""
    prev = {src: None}
    frontier = [src]
    while dst not in prev:
        nxt = []
        for x, y in frontier:
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q not in prev and q in gi:
                    prev[q] = (x, y)
                    nxt.append(q)
        frontier = nxt
    out = [dst]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return ZigzagPath(tuple(reversed(out)))


@functools.cache
def hard_intervals():
    """The intervals of the 5x5 box at the origin above ``EXHAUSTIVE_CAP``
    points that are neither thin nor solid: no path spans them exactly."""
    return [gi for gi in canonical_grid_intervals((0, 0, 4, 4))
            if len(gi) > EXHAUSTIVE_CAP and not is_thin(gi) and simple_tame_path(gi) is None]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(OFF_ZERO, st.sampled_from([2, 3]), st.integers(0, 10**9), st.data())
def test_gri_bounds_above_the_exhaustive_cap_match_bfs_monotone_paths(origin, field, seed, data):
    """Above the cap the upper bound is the least rank over min-to-max
    monotone paths, whichever monotone path joins each pair, and the
    lower bound the largest exact span over the window's supersets."""
    ox, oy = origin
    hard = hard_intervals()
    base = hard[data.draw(st.integers(0, len(hard) - 1), label="interval")]
    gi = GridInterval(base.y0 + oy, tuple((a + ox, b + ox) for a, b in base.rows))
    m = random_module(np.random.default_rng(seed), grid_poset(5, 5, origin), field)
    mins, maxs = gi.antichains()
    upper = min(zigzag_rank(m, bfs_monotone_path(gi, p, q))
                for p in mins for q in maxs if p[0] <= q[0] and p[1] <= q[1])
    spans = [_exact_span(m, cand) for cand in canonical_grid_intervals((ox, oy, ox + 4, oy + 4))
             if cand.issuperset(gi)]
    lower = max((v for v in spans if v is not None), default=0)
    assert gri_bounds_from_zib(m, gi) == (lower, upper)


def test_enumerate_simple_paths_small():
    pts = [(0, 0), (1, 0)]
    paths = enumerate_simple_paths(pts)
    assert {p.points for p in paths} == {((0, 0),), ((1, 0),), ((0, 0), (1, 0))}
