import gc
import tracemalloc
import weakref
from math import inf

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grinv.posets import (
    CanonicalMembers,
    EnumerationCapError,
    FinitePoset,
    GridBox,
    GridInterval,
    SubposetId,
    _staircase,
    box_antichains,
    canonical_grid_intervals,
    canonical_members,
    check_interval_cap,
    containment_poset,
    count_grid_intervals,
    enumerate_connected,
    enumerate_grid_intervals,
    enumerate_intervals,
    enumerate_segments,
    fence_turns,
    grid_poset,
    iter_grid_intervals,
    lower_fence,
    straight_path,
    subposet,
    upper_fence,
)
from grinv.sampling import random_grid_interval, random_poset

from conftest import brute_force_connected, brute_force_intervals, matrix_poset, member_ids


# -- grid construction -------------------------------------------------------


def test_grid_singleton():
    p = grid_poset(1, 1, (0, 0))
    assert p.n == 1
    assert p.covers == ()


def test_grid_2x2_structure(grid22):
    assert grid22.n == 4
    assert len(grid22.covers) == 4
    assert grid22.minimal_of(range(4)) == (0,)
    assert grid22.maximal_of(range(4)) == (3,)
    assert grid22.grid_coords[0] == (0, 0)
    assert grid22.grid_coords[3] == (1, 1)


def test_grid_coords_match_product_order():
    p = grid_poset(3, 3, (1, 1))
    for a in range(p.n):
        for b in range(p.n):
            xa, ya = p.grid_coords[a]
            xb, yb = p.grid_coords[b]
            assert bool(p.leq[a, b]) == (xa <= xb and ya <= yb)


def test_grid_requires_positive_size():
    with pytest.raises(ValueError):
        grid_poset(0, 2)


# -- interval / connected predicates ------------------------------------------


def test_singletons_are_intervals(grid33):
    for i in range(grid33.n):
        assert grid33.is_interval_subset([i])
        assert grid33.is_connected_subset([i])


def test_chain_gap_is_not_convex():
    c = FinitePoset.chain(4)
    assert not c.is_interval_subset([0, 2])
    assert c.is_interval_subset([0, 1, 2])


def test_antichain_is_disconnected(grid22):
    # (0,1) and (1,0)
    assert not grid22.is_connected_subset([1, 2])
    assert not grid22.is_interval_subset([1, 2])
    assert grid22.is_connected_subset([1, 0, 2])
    # (0,1) reaches (1,0) only through (1,1): two rounds of the search
    assert grid22.is_connected_subset([1, 3, 2])


def test_interval_implies_connected_on_random_posets(rng):
    for _ in range(20):
        p = random_poset(rng, 7)
        for ms in brute_force_intervals(p):
            assert p.is_connected_subset(ms)


# -- enumeration ----------------------------------------------------------------


def test_chain3_intervals_are_the_six_segments():
    c = FinitePoset.chain(3)
    intervals = enumerate_intervals(c)
    assert len(intervals) == 6
    assert [s.members for s in intervals] == [
        (0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)
    ]


def test_2x2_segments_count(grid22):
    assert len(enumerate_intervals(grid22, 1, 1)) == 9


def test_segments_equal_min_max_budget_one(grid33):
    budget = {member_ids(grid33, s) for s in enumerate_intervals(grid33, 1, 1)}
    segments = {s.members for s in enumerate_segments(grid33)}
    assert budget == segments


def test_grid_enumeration_matches_brute_force(grid22, grid33):
    for poset in (grid22, grid33, grid_poset(4, 2, (0, 0))):
        fast = [member_ids(poset, s) for s in enumerate_intervals(poset)]
        brute = brute_force_intervals(poset)
        assert fast == sorted(brute, key=lambda ms: (len(ms), ms))


def test_nongrid_enumeration_matches_brute_force(rng):
    for _ in range(10):
        p = random_poset(rng, 6)
        fast = [s.members for s in enumerate_intervals(p)]
        assert fast == sorted(brute_force_intervals(p), key=lambda ms: (len(ms), ms))


def test_connected_enumeration(grid22):
    got = [s.members for s in enumerate_connected(grid22)]
    assert got == sorted(brute_force_connected(grid22), key=lambda ms: (len(ms), ms))
    single = grid_poset(1, 1)
    assert len(enumerate_connected(single)) == 1
    two = FinitePoset.chain(2)
    assert [s.members for s in enumerate_connected(two)] == [(0,), (1,), (0, 1)]


def test_connected_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_connected(grid_poset(5, 4))


def test_interval_count_dp_matches_enumeration():
    # every box of at most 20 points, off the origin, budgets None and 1-4 on each side
    budgets = (None, 1, 2, 3, 4)
    for w in range(1, 6):
        for h in range(1, 6):
            if w * h > 20:
                continue
            bbox = (w - 3, 2 - h, 2 * w - 4, 1)
            for mm in budgets:
                for xx in budgets:
                    n = count_grid_intervals(w, h, mm, xx)
                    assert n == len(canonical_grid_intervals(bbox, mm, xx)), (w, h, mm, xx)
                    assert n == sum(1 for _ in iter_grid_intervals(bbox, mm, xx)), (w, h, mm, xx)
    for mm, xx in ((0, None), (None, 0), (0, 0), (-1, 2)):
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            count_grid_intervals(3, 3, mm, xx)


def test_counts_and_cap_checks_take_no_recursion_and_stop_at_the_cap():
    """The subtree-size table is filled on an explicit stack, so a tall box
    is counted like any other, and a cap check stops summing its roots
    once the total passes the cap: a window far too big to count exactly
    is refused at once, on either side.  The members of a row just below
    the top are counted without listing the steps up to them, so a wide
    window two rows high is refused in little memory too."""
    assert count_grid_intervals(24, 24) == 17833645614877371226163992
    assert count_grid_intervals(1, 1100) == 605_550
    tracemalloc.start()
    try:
        for w, h in ((256, 256), (128, 128), (16384, 1), (1, 16384), (8192, 2), (2000, 2)):
            with pytest.raises(EnumerationCapError, match=r"^more than the cap of 5000000 intervals; "):
                check_interval_cap(w, h, None, None, 5_000_000)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 22, (w, h)
    finally:
        tracemalloc.stop()
    check_interval_cap(1, 3161, None, None, 5_000_000)  # 4,997,541 intervals
    with pytest.raises(EnumerationCapError):
        check_interval_cap(1, 3162, None, None, 5_000_000)


def test_ten_by_ten_guard_refuses_by_default():
    # the unguarded count is 1,497,925,315 — enumeration must refuse it
    assert count_grid_intervals(10, 10) == 1_497_925_315
    with pytest.raises(EnumerationCapError):
        enumerate_grid_intervals(grid_poset(10, 10))
    with pytest.raises(EnumerationCapError):
        enumerate_intervals(grid_poset(10, 10))


# -- containment poset ------------------------------------------------------------


def test_containment_singleton(chain4):
    one = subposet(chain4, (0, 1))
    cp = containment_poset([one])
    assert cp.poset.n == 1


def test_containment_rejects_duplicates(chain4):
    a = subposet(chain4, (0, 1))
    b = subposet(chain4, (0, 1))
    with pytest.raises(ValueError):
        containment_poset([a, b])


def test_containment_diamond(chain4):
    full = subposet(chain4, (0, 1, 2, 3))
    left = subposet(chain4, (0, 1, 2))
    right = subposet(chain4, (1, 2, 3))
    mid = subposet(chain4, (1, 2))
    cp = containment_poset([full, left, right, mid])
    # order is reverse inclusion: the full segment is the unique minimum
    i_full = cp.items.index(full)
    i_mid = cp.items.index(mid)
    assert cp.poset.minimal_of(range(4)) == (i_full,)
    assert cp.poset.maximal_of(range(4)) == (i_mid,)
    assert len(cp.poset.covers) == 4


def test_containment_chain(chain4):
    items = [subposet(chain4, (0,)), subposet(chain4, (0, 1)), subposet(chain4, (0, 1, 2))]
    cp = containment_poset(items)
    assert len(cp.poset.covers) == 2
    # covers regenerate the order by transitive closure
    regen = FinitePoset.from_covers(3, cp.poset.covers)
    assert np.array_equal(regen.leq, cp.poset.leq)


def test_containment_antisymmetric_transitive(rng):
    bbox = (0, 0, 3, 3)
    items = []
    seen = set()
    while len(items) < 8:
        gi = random_grid_interval(rng, bbox)
        if gi.member_set not in seen:
            seen.add(gi.member_set)
            items.append(gi)
    cp = containment_poset(items)
    leq = cp.poset.leq
    assert not (leq & leq.T & ~np.eye(len(items), dtype=bool)).any()
    regen = FinitePoset.from_covers(len(items), cp.poset.covers)
    assert np.array_equal(regen.leq, leq)


def dense_covers(poset):
    """Oracle: a < b with no c strictly between, by a boolean matrix product."""
    lt = poset.leq & ~np.eye(poset.n, dtype=bool)
    redundant = lt @ lt
    return tuple(sorted((int(a), int(b)) for a, b in zip(*np.nonzero(lt & ~redundant))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 70), st.data())
def test_covers_match_the_dense_rule(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    # relabel, so that ids are not always a linear extension of the order
    perm = data.draw(st.permutations(range(n)))
    closed = FinitePoset.from_covers(n, edges).leq
    poset = matrix_poset(closed[np.ix_(perm, perm)])
    assert poset.covers == dense_covers(poset)


def matrix_closure(n, pairs):
    """Oracle: the order generated by the pairs, by squaring a boolean matrix."""
    leq = np.eye(n, dtype=bool)
    for a, b in pairs:
        leq[a, b] = True
    while True:
        nxt = leq | (leq.astype(np.int64) @ leq.astype(np.int64) > 0)
        if np.array_equal(nxt, leq):
            return leq
        leq = nxt


def matrix_grid(w, h, origin):
    """Oracle: the product order on a window, by comparing coordinates."""
    xs = np.repeat(np.arange(w) + origin[0], h)
    ys = np.tile(np.arange(h) + origin[1], w)
    return (xs[:, None] <= xs[None, :]) & (ys[:, None] <= ys[None, :])


def assert_matches_matrix(poset, leq, data):
    """Every bitset query of the poset against the same query on ``leq``."""
    n = len(leq)
    assert poset.n == n and np.array_equal(poset.leq, leq)
    assert poset.up == tuple(sum(1 << int(b) for b in np.nonzero(row)[0]) for row in leq)
    assert poset.down == tuple(sum(1 << int(a) for a in np.nonzero(col)[0]) for col in leq.T)
    lt = leq & ~np.eye(n, dtype=bool)
    covers = tuple(sorted((int(a), int(b)) for a, b in zip(*np.nonzero(lt & ~(lt @ lt)))))
    assert poset.covers == covers
    assert poset.lower_covers == tuple(tuple(a for a, b in covers if b == c) for c in range(n))
    assert poset.topological_order() == tuple(np.argsort(leq.sum(axis=0), kind="stable").tolist())
    for _ in range(6):
        members = data.draw(st.lists(st.integers(0, n - 1), max_size=min(n + 2, 10)))
        ms = sorted(members)
        assert poset.minimal_of(members) == tuple(
            a for a in ms if not any(leq[b, a] and b != a for b in ms))
        assert poset.maximal_of(members) == tuple(
            a for a in ms if not any(leq[a, b] and b != a for b in ms))
        assert poset.is_convex_subset(members) == all(
            x in ms for a in ms for b in ms for x in range(n) if leq[a, x] and leq[x, b])
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assert poset.segment(a, b) == tuple(np.nonzero(leq[a] & leq[:, b])[0].tolist())
        assert poset.comparable(a, b) == bool(leq[a, b] or leq[b, a])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.6), st.data())
def test_bitset_poset_matches_matrix_oracles_on_random_posets(n, seed, density, data):
    poset = random_poset(np.random.default_rng(seed), n, density)
    # random_poset closes these pairs, drawn from the same stream
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    leq = matrix_closure(n, pairs)
    assert_matches_matrix(poset, leq, data)
    # relabelled, so that ids need not extend the order
    perm = data.draw(st.permutations(range(n)))
    relabelled = FinitePoset.from_covers(n, [(perm[a], perm[b]) for a, b in pairs])
    inv = np.argsort(perm)
    assert_matches_matrix(relabelled, leq[np.ix_(inv, inv)], data)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(-5, 5), st.integers(-5, 5), st.data())
def test_bitset_poset_matches_matrix_oracles_on_grid_windows(w, h, ox, oy, data):
    leq = matrix_grid(w, h, (ox, oy))
    window = grid_poset(w, h, (ox, oy))
    assert_matches_matrix(window, leq, data)
    assert window.grid_coords == tuple((ox + i, oy + j) for i in range(w) for j in range(h))
    assert_matches_matrix(FinitePoset.from_covers(w * h, window.covers), leq, data)
    assert_matches_matrix(FinitePoset.chain(w), matrix_closure(w, [(a, a + 1) for a in range(w - 1)]), data)


def test_cover_cycles_are_not_antisymmetric():
    for pairs in ([(0, 1), (1, 0)], [(0, 1), (1, 2), (2, 0)], [(3, 4), (0, 1), (1, 2), (2, 1)]):
        with pytest.raises(ValueError, match="leq is not antisymmetric"):
            FinitePoset.from_covers(5, pairs)


def bfs_is_connected(poset, members):
    """Oracle: breadth-first search reading comparabilities from ``leq``."""
    ms = sorted(set(members))
    if not ms:
        return False
    seen = {ms[0]}
    stack = [ms[0]]
    while stack:
        a = stack.pop()
        for b in ms:
            if b not in seen and (poset.leq[a, b] or poset.leq[b, a]):
                seen.add(b)
                stack.append(b)
    return len(seen) == len(ms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 70), st.data())
def test_connected_subset_matches_the_bfs(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    perm = data.draw(st.permutations(range(n)))
    closed = FinitePoset.from_covers(n, edges).leq
    poset = matrix_poset(closed[np.ix_(perm, perm)])
    for _ in range(8):
        # near one element, to reach connected sets that are not singletons
        a = data.draw(st.integers(0, n - 1))
        pool = data.draw(st.sampled_from((
            list(range(n)), np.nonzero(poset.leq[a] | poset.leq[:, a])[0].tolist())))
        # lists, not sets: repeated members and the empty list are inputs too
        members = data.draw(st.lists(st.sampled_from(pool), max_size=min(n + 3, 12)))
        if data.draw(st.booleans()):
            members = np.array(members, dtype=np.int64)
        assert poset.is_connected_subset(members) == bfs_is_connected(poset, members)
    assert poset.is_connected_subset(range(n)) == bfs_is_connected(poset, range(n))


# -- grid intervals and thickening --------------------------------------------------


def test_grid_interval_validation():
    with pytest.raises(ValueError):
        GridInterval(0, ())
    with pytest.raises(ValueError):
        GridInterval(0, ((2, 1),))
    with pytest.raises(ValueError):
        GridInterval(0, ((0, 1), (2, 3)))  # disconnected rows


def test_bbox_spans_the_points():
    for gi in iter_grid_intervals((-1, 0, 2, 3)):
        xs = [x for x, _ in gi.points()]
        ys = [y for _, y in gi.points()]
        assert gi.bbox() == (min(xs), min(ys), max(xs), max(ys))


def test_from_points_canonical():
    gi = GridInterval.from_points([(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)])
    assert gi.y0 == 0
    assert gi.rows == ((1, 3), (0, 2))
    with pytest.raises(ValueError):
        GridInterval.from_points([(0, 0), (2, 0)])


def test_thicken_identity_and_rectangle():
    sq = GridInterval.rectangle((0, 0), (1, 1))
    assert sq.thicken(0) is sq
    fat = sq.thicken(1)
    assert fat.member_set == GridInterval.rectangle((-1, -1), (2, 2)).member_set
    assert len(fat) == 16


def test_thicken_matches_point_scan(rng):
    for _ in range(25):
        gi = random_grid_interval(rng, (0, 0, 4, 4))
        eps = int(rng.integers(0, 3))
        got = gi.thicken(eps)
        pts = set(gi.points())
        x0, y0, x1, y1 = gi.bbox()
        scan = {
            (x, y)
            for x in range(x0 - eps, x1 + eps + 1)
            for y in range(y0 - eps, y1 + eps + 1)
            if any(max(abs(x - px), abs(y - py)) <= eps for px, py in pts)
        }
        assert got.member_set == scan


def test_thicken_superlinear_equality(rng):
    for _ in range(15):
        gi = random_grid_interval(rng, (0, 0, 3, 3))
        a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        assert gi.thicken(a).thicken(b) == gi.thicken(a + b)


def test_min_max_points_rectangle():
    sq = GridInterval.rectangle((2, 3), (5, 6))
    assert sq.antichains() == (((2, 3),), ((5, 6),))


def test_min_max_points_staircase_brute(rng):
    for _ in range(25):
        gi = random_grid_interval(rng, (0, 0, 4, 4))
        pts = set(gi.points())
        mins = {p for p in pts if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)}
        maxs = {p for p in pts if not any(q != p and p[0] <= q[0] and p[1] <= q[1] for q in pts)}
        low, high = gi.antichains()
        assert set(low) == mins
        assert set(high) == maxs


def test_staircase_k_steps_has_k_minimal_points():
    # a 4-step descending staircase
    gi = GridInterval(0, ((3, 4), (2, 4), (1, 4), (0, 4)))
    assert len(gi.antichains()[0]) == 4


# -- fences ----------------------------------------------------------------------


def test_fence_of_rectangle_is_min_and_max_point():
    sq = GridInterval.rectangle((0, 0), (3, 2))
    assert lower_fence(sq) == ((0, 0),)
    assert upper_fence(sq) == ((3, 2),)


def test_fence_of_staircase():
    stair = GridInterval(0, ((1, 3), (0, 2)))
    assert lower_fence(stair) == ((0, 1), (1, 1), (1, 0))
    assert upper_fence(stair) == ((2, 1), (2, 0), (3, 0))


def test_fences_stay_inside_and_are_faithful(rng):
    for _ in range(30):
        gi = random_grid_interval(rng, (0, 0, 5, 5))
        for fence in (lower_fence(gi), upper_fence(gi)):
            assert all(pt in gi for pt in fence)
            for p, q in zip(fence, fence[1:]):
                assert abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1
        mins, maxs = gi.antichains()
        assert set(mins) <= set(lower_fence(gi))
        assert set(maxs) <= set(upper_fence(gi))


def cover_antichains(gi):
    """Oracle: the minimal and maximal points of gi, found from its covers.

    In a convex set a point has another point of the set below it iff it
    has a lower cover in the set, so a point is minimal iff neither
    lower neighbour is in gi (maximal: neither upper neighbour).
    """
    pts = gi.member_set
    mins = sorted((x, y) for x, y in pts if (x - 1, y) not in pts and (x, y - 1) not in pts)
    maxs = sorted((x, y) for x, y in pts if (x + 1, y) not in pts and (x, y + 1) not in pts)
    return tuple(mins), tuple(maxs)


def staircase_fence(ext, lower):
    """Oracle: the fence through an antichain built leg by leg."""
    pts = [ext[0]]
    for (x0, y0), (x1, y1) in zip(ext, ext[1:]):
        if lower:
            pts += [(x, y0) for x in range(x0 + 1, x1 + 1)]
            pts += [(x1, y) for y in range(y0 - 1, y1 - 1, -1)]
        else:
            pts += [(x0, y) for y in range(y0 - 1, y1 - 1, -1)]
            pts += [(x, y1) for x in range(x0 + 1, x1 + 1)]
    return tuple(pts)


def test_antichains_and_fences_match_oracles_on_a_6x6_window():
    """On every interval of a 6x6 window the one-walk antichains equal the
    cover oracle, and the fences are the same tuples as the leg-by-leg
    construction, turn at the joins and meets, and stay inside gi point by
    point."""
    count = 0
    for gi in iter_grid_intervals((0, 0, 5, 5)):
        mins, maxs = cover_antichains(gi)
        assert gi.antichains() == (mins, maxs), gi
        low, up = staircase_fence(mins, True), staircase_fence(maxs, False)
        assert lower_fence(gi) == straight_path(fence_turns(mins, True)) == low
        assert upper_fence(gi) == straight_path(fence_turns(maxs, False)) == up
        for ext, fence, lower in ((mins, low, True), (maxs, up, False)):
            turns = fence_turns(ext, lower)
            assert turns[::2] == ext and len(turns) == 2 * len(ext) - 1
            assert [pt for pt in fence if pt in turns] == list(turns)
        assert gi.member_set.issuperset(low + up)
        count += 1
    assert count == 68248


def test_fence_alarm_fires_at_an_escaping_corner():
    """The walk checks the join of each pair of consecutive minimal points
    and the meet of each pair of maximal ones; staircases built without
    validation can put either outside."""
    # minimal (0, 1), (2, 0): join (2, 1) lies past the end of row 1
    with pytest.raises(AssertionError, match=r"fence point \(2, 1\) escaped"):
        _staircase(0, ((2, 2), (0, 1))).antichains()
    # maximal (1, 2), (3, 1): meet (1, 1) lies before the start of row 1
    with pytest.raises(AssertionError, match=r"fence point \(1, 1\) escaped"):
        _staircase(0, ((0, 0), (2, 3), (1, 1))).antichains()
    for fence in (lower_fence, upper_fence):
        with pytest.raises(AssertionError, match="escaped the interval"):
            fence(_staircase(0, ((1, 1), (0, 0))))
    sq = GridInterval.rectangle((0, 0), (1, 1))
    assert sq.antichains() == (((0, 0),), ((1, 1),))
    # corners on the row ends: join (1, 1), meet (1, 0)
    assert GridInterval(0, ((1, 3), (0, 1))).antichains() == (((0, 1), (1, 0)), ((1, 1), (3, 0)))


# -- serialisation ------------------------------------------------------------------


def test_poset_text_round_trip(rng):
    p = random_poset(rng, 7)
    back = FinitePoset.from_text(p.to_text())
    assert np.array_equal(back.leq, p.leq)


def test_grid_text_round_trip():
    p = grid_poset(3, 2, (-1, 4))
    text = p.to_text()
    assert text == "grid 3 2 -1 4"
    back = FinitePoset.from_text(text)
    assert back.grid_coords == p.grid_coords


@pytest.mark.parametrize("kind, accepted, rejected, message", [
    # grid22 ids: 0 = (0, 0), 1 = (0, 1), 2 = (1, 0), 3 = (1, 1)
    (None, [(0,), (0, 1, 2), (0, 3)], [(1, 2)], "subset is not connected"),
    ("connected", [(0,), (0, 3), (1, 3)], [(1, 2)], "subset is not connected"),
    ("interval", [(0,), (0, 1, 2), (0, 1, 2, 3)], [(0, 3), (1, 2)], "subset is not an interval: {}"),
    # a segment is an interval first, then one with a unique minimum and maximum
    ("segment", [(0,), (0, 1), (0, 1, 2, 3)], [(0, 3), (1, 2)], "subset is not an interval: {}"),
    ("segment", [(1, 3)], [(0, 1, 2)], "subset is not a segment: it has 1 minimal and 2 maximal points"),
    ("segment", [(2, 3)], [(1, 2, 3)], "subset is not a segment: it has 2 minimal and 1 maximal points"),
])
def test_subposet_checks_each_kind(grid22, kind, accepted, rejected, message):
    for ms in accepted:
        assert subposet(grid22, reversed(ms), kind) == SubposetId(ms)
        assert subposet(grid22, ms, kind).members == ms
    for ms in rejected:
        with pytest.raises(ValueError) as err:
            subposet(grid22, ms, kind)
        assert str(err.value) == message.format(ms)
    for ms, bad in (((0, 4), 4), ((-1, 0), -1), ((7,), 7)):
        with pytest.raises(ValueError, match=rf"^element id {bad} is not in 0\.\.3$"):
            subposet(grid22, ms, kind)
    with pytest.raises(ValueError, match="^empty subposet$"):
        subposet(grid22, (), kind)


def test_subposet_rejects_an_unknown_kind(grid22):
    with pytest.raises(ValueError, match="^unknown subposet kind 'path'$"):
        subposet(grid22, (0,), "path")


def test_subposet_kind_inference(grid22):
    with pytest.raises(ValueError):
        subposet(grid22, (1, 2))  # disconnected
    with pytest.raises(ValueError):
        subposet(grid22, (0, 3), kind="interval")  # not convex


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 10 ** 9))
def test_random_poset_enumeration_property(n, seed):
    rng = np.random.default_rng(seed)
    p = random_poset(rng, n)
    fast = [s.members for s in enumerate_intervals(p)]
    assert fast == sorted(brute_force_intervals(p), key=lambda ms: (len(ms), ms))


# -- canonical order ------------------------------------------------------------------


def by_sort_key(items):
    return sorted(items, key=lambda it: it.sort_key)


def same_objects(a, b):
    # identity, not equality: equal members must keep their input order
    return [id(x) for x in a] == [id(x) for x in b]


budgets = st.one_of(st.none(), st.integers(1, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4), st.integers(1, 4),
       budgets, budgets, st.randoms(use_true_random=False))
def test_canonical_order_matches_sort_key_on_boxes(x0, y0, w, h, mm, xx, rnd):
    items = list(iter_grid_intervals((x0, y0, x0 + w - 1, y0 + h - 1), mm, xx))
    rnd.shuffle(items)
    assert same_objects(canonical_members(items), by_sort_key(items))


@st.composite
def staircases(draw, spread):
    """A random plane interval: rows going up never move right and stay connected."""
    a = draw(st.integers(-spread, spread))
    b = a + draw(st.integers(0, 4))
    rows = [(a, b)]
    for _ in range(draw(st.integers(0, 4))):
        a2 = a - draw(st.integers(0, 2))
        b2 = draw(st.integers(max(a, a2), b))
        rows.append((a2, b2))
        a, b = a2, b2
    return GridInterval(draw(st.integers(-spread, spread)), tuple(rows))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from((3, 40, 10 ** 6)))
def test_canonical_order_matches_sort_key_across_frames(data, spread):
    base = data.draw(st.lists(staircases(spread), min_size=1, max_size=12))
    items = list(base)
    for gi in base:
        items.append(gi.thicken(data.draw(st.integers(0, 3))))
    items = list(dict.fromkeys(items))  # one object per set
    data.draw(st.randoms(use_true_random=False)).shuffle(items)
    assert same_objects(canonical_members(items), by_sort_key(items))
    twin = GridInterval.from_points(reversed(items[-1].points()))  # an equal, distinct object
    with pytest.raises(ValueError, match="duplicate items"):
        canonical_members(items + [twin])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 15), min_size=1), unique=True, max_size=30))
def test_canonical_order_matches_sort_key_on_subposet_ids(sets):
    items = [SubposetId(tuple(s)) for s in sets]
    assert same_objects(canonical_members(items), by_sort_key(items))
    if items:  # an equal, distinct object is the same member
        with pytest.raises(ValueError, match="duplicate items"):
            canonical_members(items + [SubposetId(items[0].members)])


def test_canonical_order_far_apart_members_stay_small():
    far = [GridInterval(10 ** 9, ((10 ** 9, 10 ** 9),)), GridInterval(0, ((0, 0),))]
    column = [GridInterval(0, ((0, 0),) * 20_000), GridInterval(0, ((0, 0),))]
    tracemalloc.start()
    try:
        assert list(canonical_members(far)) == far[::-1]
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
        tracemalloc.reset_peak()
        # int keys over this 20,000-point frame would need one 20,000-bit
        # mask per row, 50 MB in all; sort_key lists its points instead
        assert list(canonical_members(column)) == column[::-1]
        assert tracemalloc.get_traced_memory()[1] < 2 ** 23
    finally:
        tracemalloc.stop()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4), st.integers(1, 4),
       budgets, budgets)
def test_generated_intervals_pass_validation(x0, y0, w, h, mm, xx):
    # the generator builds its output without re-validating it
    for gi in iter_grid_intervals((x0, y0, x0 + w - 1, y0 + h - 1), mm, xx):
        assert GridInterval(gi.y0, gi.rows) == gi


# -- keyed enumeration ------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 9), st.integers(1, 8),
       budgets, budgets)
@example(-6, 6, 9, 8, 1, 2)  # a 72-point frame: keys wider than 64 bits
@example(0, 0, 9, 8, 3, 1)
def test_canonical_grid_intervals_match_the_sorted_oracle(x0, y0, w, h, mm, xx):
    assume(count_grid_intervals(w, h, mm, xx) <= 12_000)
    bbox = (x0, y0, x0 + w - 1, y0 + h - 1)
    oracle = canonical_members(iter_grid_intervals(bbox, mm, xx))
    assert canonical_grid_intervals(bbox, mm, xx) == oracle


def test_canonical_grid_intervals_reject_budgets_below_one():
    for mm, xx in ((0, 2), (2, 0), (-1, None)):
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            canonical_grid_intervals((0, 0, 2, 2), mm, xx)


def test_canonical_grid_intervals_free_their_members_without_gc():
    # a reference cycle through the output would keep it alive until a GC pass
    gc.disable()
    try:
        members = canonical_grid_intervals((0, 0, 3, 3), 2, 2)
        ref = weakref.ref(members[len(members) // 2])
        del members
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("bbox, mm, xx", [
    ((0, 0, 149, 0), None, None),  # one row: no row ever goes on top
    ((-50, 3, 49, 4), 1, 1),  # rectangles: no start or end ever drops
])
def test_canonical_grid_intervals_memory_follows_the_member_count(bbox, mm, xx):
    # a step table built for every row range up front would hold about
    # width**4 / 24 rows here, whatever the walk reaches
    tracemalloc.start()
    try:
        members = canonical_grid_intervals(bbox, mm, xx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x0, y0, x1, y1 = bbox
    assert len(members) == count_grid_intervals(x1 - x0 + 1, y1 - y0 + 1, mm, xx)
    assert peak < 1024 * len(members)


def test_canonical_grid_intervals_list_no_points_and_skip_validation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the keyed enumeration must not call this")

    monkeypatch.setattr(GridInterval, "points", refuse)
    monkeypatch.setattr(GridInterval, "sort_key", property(refuse))
    monkeypatch.setattr(GridInterval, "__init__", refuse)
    members = canonical_grid_intervals((-1, 2, 4, 6), 2, 3)
    monkeypatch.undo()
    assert len(members) == count_grid_intervals(6, 5, 2, 3)
    assert all(GridInterval(gi.y0, gi.rows) == gi for gi in members)


def every_row(bbox):
    """The live rows of box_antichains that keep every member alive."""
    x0, y0, x1, y1 = bbox
    return [{(a, b) for a in range(x0, x1 + 1) for b in range(a, x1 + 1)}] * (y1 - y0 + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5), st.integers(1, 5),
       budgets, budgets, st.integers(0, 10 ** 9))
@example(0, 0, 4, 4, None, None, 0)
@example(-2, 1, 5, 3, 1, 1, 0)
def test_box_walk_gives_each_member_its_antichains(x0, y0, w, h, mm, xx, seed):
    """The walk of a listed box yields each member's antichains(), in walk
    order, which the box's permutation maps to canonical order; with some
    rows dead, a member gets None iff one of its rows is dead, and only
    live members are walked."""
    assume(count_grid_intervals(w, h, mm, xx) <= 6_000)
    bbox = (x0, y0, x0 + w - 1, y0 + h - 1)
    members = canonical_grid_intervals(bbox, mm, xx)
    box = members.box
    assert box.bbox == bbox and box.budgets == (mm or inf, xx or inf)
    assert sorted(box.order) == list(range(len(members)))
    walked = list(box_antichains(box, every_row(bbox)))
    assert [walked[i] for i in box.order] == [gi.antichains() for gi in members]
    rng = np.random.default_rng(seed)
    live = [{row for row in rows if rng.random() < 0.8} for rows in every_row(bbox)]
    walked = list(box_antichains(box, live))
    want = [gi.antichains() if all(row in live[i] for i, row in enumerate(gi.rows, gi.y0 - y0))
            else None for gi in members]
    assert [walked[i] for i in box.order] == want


def test_box_walk_counts_a_dead_subtree_of_any_height():
    """A 1 x 1100 column whose row at height 1 is not live: the walk yields
    one None for every member through that row, 1099 above the bottom
    point and 1099 standing on it, without walking them."""
    box = GridBox((0, 0, 0, 1099), (inf, inf), None)
    live = [{(0, 0)}] * 1100
    live[1] = set()
    walked = list(box_antichains(box, live))
    assert len(walked) == 605_550 and walked.count(None) == 2 * 1099
    assert walked[:3] == [(((0, 0),), ((0, 0),)), None, None]


def test_box_walk_checks_the_corner_where_a_point_is_added(skewed_box_steps):
    """Steps that let a row start past the next row's end put a fence
    corner outside the interval; the walk raises where it adds the point,
    as antichains() does on the same staircase."""
    box = canonical_grid_intervals((0, 0, 1, 1)).box
    with pytest.raises(AssertionError, match=r"^fence point \(1, 1\) escaped the interval$"):
        list(box_antichains(box, every_row((0, 0, 1, 1))))
    with pytest.raises(AssertionError, match=r"^fence point \(1, 1\) escaped the interval$"):
        _staircase(0, ((1, 1), (0, 0))).antichains()


def test_only_a_listed_box_carries_its_label(grid33):
    members = canonical_grid_intervals((0, 0, 3, 2), 2, 2)
    assert canonical_members(members) is members and members.box is not None
    others = [members[1:], members[:], CanonicalMembers(members), canonical_members(list(members)),
              enumerate_intervals(FinitePoset.chain(3)), enumerate_segments(grid33),
              enumerate_connected(grid33)]
    assert [getattr(items, "box", None) for items in others] == [None] * len(others)
    assert enumerate_grid_intervals(grid33, 1, 2).box.bbox == (0, 0, 2, 2)


def test_bitset_queries_check_their_ids():
    chain = FinitePoset.chain(8)
    for ms, bad in (([-1], -1), ([6, 7, 8], 8)):
        for query in (chain.is_connected_subset, chain.minimal_of, chain.maximal_of):
            with pytest.raises(ValueError, match=rf"^element id {bad} is not in 0\.\.7$"):
                query(ms)
    assert chain.is_connected_subset(range(8)) and chain.minimal_of([3, 5]) == (3,)


def test_enumerations_carry_their_order_through_the_gate(grid33):
    chain = FinitePoset.chain(4)
    enumerations = [
        canonical_grid_intervals((2, -3, 4, -1), 2, 1),
        enumerate_grid_intervals(grid_poset(3, 2, (-1, 5))),
        enumerate_intervals(grid33, 1, 2),
        enumerate_intervals(chain),
        enumerate_connected(grid33),
        enumerate_segments(grid33),
        enumerate_segments(chain),
    ]
    for items in enumerations:
        assert type(items) is CanonicalMembers
        assert canonical_members(items) is items
        assert list(items) == sorted(items, key=lambda it: it.sort_key)
    # a sorted list or plain tuple is checked and copied, not trusted
    plain = list(enumerations[0])
    assert canonical_members(plain) == enumerations[0]
    assert type(canonical_members(tuple(plain))) is CanonicalMembers


def test_grid_intervals_come_out_as_plane_intervals(grid33):
    shifted = grid_poset(3, 3, (4, -2))
    assert enumerate_intervals(shifted, 2, 2) == enumerate_grid_intervals(shifted, 2, 2)
    assert all(isinstance(gi, GridInterval) for gi in enumerate_intervals(grid33))
