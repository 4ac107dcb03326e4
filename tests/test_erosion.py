import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grinv import erosion
from grinv.erosion import (
    ThickeningFamily,
    erosion_distance,
    erosion_witnesses,
    erosion_study,
    shift_module,
    study_table,
    timed_distance,
    union_bbox,
    verify_erosion,
)
from grinv.fixtures import build_fixture
from grinv.invariants import RankCache
from grinv.modules import generalized_rank_fast, grid_interval_module, zero_module
from grinv.posets import CanonicalMembers, GridInterval, grid_poset
from grinv.sampling import random_interval_decomposable, random_module


def exhaustive_erosion_distance(m1, m2, collection):
    """Oracle: scan radii upward until the erosion check passes."""
    bbox = union_bbox(m1, m2)
    hi = max(bbox[2] - bbox[0], bbox[3] - bbox[1]) + 1
    for eps in range(hi + 1):
        if verify_erosion(m1, m2, collection, eps) is None:
            return eps
    return math.inf


def test_identity_needs_no_erosion(rng):
    win = grid_poset(3, 3, (0, 0))
    m, _ = random_interval_decomposable(rng, win, 4)
    coll = ThickeningFamily(2, 2).members_within(union_bbox(m, m))
    assert verify_erosion(m, m, coll, 0) is None
    assert erosion_distance(m, m, coll) == 0


def test_square_versus_zero_threshold():
    win = grid_poset(3, 3, (0, 0))
    sq = GridInterval.rectangle((0, 0), (2, 2))
    m = grid_interval_module(win, sq)
    z = zero_module(win)
    coll = ThickeningFamily(2, 2).members_within(union_bbox(m, z))
    # at eps=0 the square itself is a witness
    w = verify_erosion(m, z, coll, 0)
    assert w is not None
    # infeasible exactly while some thickening stays inside the support
    for eps in range(4):
        feasible = verify_erosion(m, z, coll, eps) is None
        inside_possible = any(
            m.contains_interval(gi.thicken(eps)) for gi in coll
        )
        assert feasible == (not inside_possible)
    assert erosion_distance(m, z, coll) == exhaustive_erosion_distance(m, z, coll)


def test_distance_matches_exhaustive_scan(rng):
    win = grid_poset(3, 3, (0, 0))
    fam = ThickeningFamily(2, 2)
    for _ in range(6):
        m1, _ = random_interval_decomposable(rng, win, 3)
        m2, _ = random_interval_decomposable(rng, win, 3)
        coll = fam.members_within(union_bbox(m1, m2))
        assert erosion_distance(m1, m2, coll) == exhaustive_erosion_distance(m1, m2, coll)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_one_pass_distance_matches_the_upward_scan(data):
    side = data.draw(st.sampled_from((2, 3)), label="side")
    origins = [data.draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), label="origin")
               for _ in range(2)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    win = grid_poset(side, side, origins[0])
    if data.draw(st.booleans(), label="block"):
        # the full-window block, whose deep members push distances to 2
        m1 = grid_interval_module(win, GridInterval.rectangle(origins[0], (
            origins[0][0] + side - 1, origins[0][1] + side - 1)))
    else:
        m1 = random_module(rng, win)
    partner = data.draw(st.sampled_from(("random", "shift", "zero")), label="partner")
    if partner == "random":
        m2 = random_module(rng, grid_poset(side, side, origins[1]))
    elif partner == "shift":
        m2 = shift_module(m1, data.draw(st.integers(0, 2), label="delta"))
    else:
        m2 = zero_module(grid_poset(side, side, origins[1]))
    budget = data.draw(st.sampled_from(((1, 1), (2, 1), (2, 2))), label="budget")
    coll = ThickeningFamily(*budget).members_within(union_bbox(m1, m2))
    d = erosion_distance(m1, m2, coll)
    assert d == exhaustive_erosion_distance(m1, m2, coll)
    assert verify_erosion(m1, m2, coll, d) is None
    if d >= 1:
        assert verify_erosion(m1, m2, coll, d - 1) is not None


def test_one_member_can_raise_the_radius_by_several_steps():
    win = grid_poset(5, 5, (0, 0))
    block = grid_interval_module(win, GridInterval.rectangle((0, 0), (4, 4)))
    z = zero_module(win)
    center = [GridInterval.rectangle((2, 2), (2, 2))]
    assert erosion_distance(block, z, center) == exhaustive_erosion_distance(block, z, center) == 3


def test_nested_squares_distance(rng):
    win = grid_poset(4, 4, (0, 0))
    a = grid_interval_module(win, GridInterval.rectangle((0, 0), (1, 1)))
    b = grid_interval_module(win, GridInterval.rectangle((0, 0), (3, 3)))
    coll = ThickeningFamily(1, 1).members_within(union_bbox(a, b))
    assert erosion_distance(a, b, coll) == exhaustive_erosion_distance(a, b, coll)


def test_feasibility_monotone_in_radius(rng):
    win = grid_poset(3, 3, (0, 0))
    fam = ThickeningFamily(2, 2)
    for _ in range(4):
        m1 = random_module(rng, win)
        m2 = random_module(rng, win)
        coll = fam.members_within(union_bbox(m1, m2))
        feas = [verify_erosion(m1, m2, coll, eps) is None for eps in range(6)]
        # once feasible, stays feasible
        first = feas.index(True)
        assert all(feas[first:])


def test_pseudometric_axioms(rng):
    win = grid_poset(3, 3, (0, 0))
    fam = ThickeningFamily(2, 2)
    for _ in range(6):
        mods = [random_module(rng, win) for _ in range(3)]
        coll = fam.members_within(union_bbox(mods[0], mods[1]))
        d = {}
        for i in range(3):
            for j in range(3):
                d[i, j] = erosion_distance(mods[i], mods[j], coll)
        for i in range(3):
            assert d[i, i] == 0
            for j in range(3):
                assert d[i, j] == d[j, i]
                for k in range(3):
                    assert d[i, k] <= d[i, j] + d[j, k]


def test_shift_module_translates_support(rng):
    win = grid_poset(3, 3, (0, 0))
    gi = GridInterval.rectangle((1, 1), (2, 2))
    m = grid_interval_module(win, gi)
    s = shift_module(m, 1)
    assert shift_module(m, 0).poset.grid_coords == m.poset.grid_coords
    moved = GridInterval.rectangle((0, 0), (1, 1))
    assert generalized_rank_fast(s, moved) == 1
    assert generalized_rank_fast(s, gi) == 0  # support left the old spot


def test_stability_under_diagonal_shift(rng):
    win = grid_poset(3, 3, (0, 0))
    fam = ThickeningFamily(2, 2)
    for delta in (0, 1, 2):
        for _ in range(3):
            m = random_module(rng, win)
            s = shift_module(m, delta)
            coll = fam.members_within(union_bbox(m, s))
            assert erosion_distance(m, s, coll) <= delta


def test_family_closed_under_thickenings(rng):
    fam = ThickeningFamily(2, 2)
    coll = fam.members_within((0, 0, 3, 3))
    for gi in coll[::7]:
        for eps in (1, 2):
            fat = gi.thicken(eps)
            mins, maxs = fat.antichains()
            assert len(mins) <= 2
            assert len(maxs) <= 2


def test_timed_distance_repeats_from_cold_state(rng, monkeypatch):
    win = grid_poset(4, 4, (0, 0))
    m, _ = random_interval_decomposable(rng, win, 3)
    shifted = shift_module(m, 1)
    coll = ThickeningFamily(2, 2).members_within(union_bbox(m, shifted))
    warm = (RankCache(m), RankCache(shifted))
    want = erosion_distance(m, shifted, coll, caches=warm)

    def memo_sizes(module):
        return len(module._trans), len(module._fences), len(module._moves)

    assert all(memo_sizes(m)) and all(memo_sizes(shifted))
    starts = []
    real = erosion.erosion_witnesses

    def spy(m1, m2, collection, caches):
        # state each repeat starts from: memoised transitions, fence sweeps
        # and subspace moves of both modules, and cache misses
        starts.append((*memo_sizes(m1), *memo_sizes(m2), caches[0].queries + caches[1].queries))
        return real(m1, m2, collection, caches=caches)

    monkeypatch.setattr(erosion, "erosion_witnesses", spy)
    witnesses, caches, seconds = timed_distance(m, shifted, coll, repeats=3)
    assert starts == [(0,) * 7] * 3
    assert len(witnesses) == want
    assert witnesses == list(real(m, shifted, coll, caches=warm))
    assert [c.queries for c in caches] == [c.queries for c in warm]
    assert 0 < seconds < math.inf


def test_erosion_study_shape_and_monotonicity(rng):
    def builder(side):
        win = grid_poset(side, side, (0, 0))
        m, _ = random_interval_decomposable(rng, win, 3)
        return m, shift_module(m, 1)

    rows = erosion_study(builder, sides=(3, 4), budgets=((1, 1), (2, 2)))
    table = study_table(rows)
    assert len(rows) == 4
    assert table.splitlines()[0].startswith("side")
    by_key = {(r.side, r.max_min_pts, r.max_max_pts): r for r in rows}
    assert by_key[(3, 1, 1)].collection_size < by_key[(3, 2, 2)].collection_size
    assert by_key[(3, 2, 2)].rank_queries <= by_key[(4, 2, 2)].rank_queries


def test_radius_past_the_bounding_box_is_an_alarm(monkeypatch, capsys, tmp_path):
    """With thickening made the identity, a member whose two ranks differ
    never passes, so the radius climbs past the bounding-box bound: that
    raises AssertionError, which the CLI reports as exit 4."""
    from grinv.cli import EXIT_INVARIANT, main
    from grinv.fixtures import build_fixture

    fx = build_fixture("ex-2x2-indicator")
    m, n = fx.modules["m"], fx.modules["n"]
    coll = ThickeningFamily(2, 2).members_within(union_bbox(m, n))
    assert erosion_distance(m, n, coll) >= 1
    monkeypatch.setattr(GridInterval, "thicken", lambda gi, eps: gi)
    with pytest.raises(AssertionError, match="erosion radius passed its bound 2"):
        erosion_distance(m, n, coll)
    files = []
    for name, module in (("m", m), ("n", n)):
        files.append(tmp_path / f"{name}.txt")
        files[-1].write_text(module.to_text())
    assert main(["erosion", *map(str, files), "--witness"]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out == "min_pts\tmax_pts\tcollection\tdistance\trank_queries\n"
    assert err == "invariant violation: erosion radius passed its bound 2\n"


def test_erosion_witnesses_are_the_first_failures_at_each_radius(rng):
    win = grid_poset(4, 4, (1, -2))
    block = grid_interval_module(win, GridInterval.rectangle((1, -2), (4, 1)))
    hook = grid_interval_module(win, GridInterval.from_points([(1, -2), (2, -2), (3, -2), (1, -1), (1, 0)]))
    pairs = [(block, zero_module(win)), (block, hook), (hook, shift_module(block, 1))]
    pairs += [(m, shift_module(m, 1)) for m in (random_module(rng, win), random_interval_decomposable(rng, win, 4)[0])]
    distances = []
    for budgets in ((1, 1), (2, 2), (None, None)):
        for m1, m2 in pairs:
            coll = ThickeningFamily(*budgets).members_within(union_bbox(m1, m2))
            witnesses = list(erosion_witnesses(m1, m2, coll))
            d = erosion_distance(m1, m2, coll)
            assert len(witnesses) == d
            assert witnesses == [verify_erosion(m1, m2, coll, eps) for eps in range(d)]
            assert verify_erosion(m1, m2, coll, d) is None
            distances.append(d)
    assert max(distances) >= 2, distances


def all_members_walk(m1, m2, collection):
    """Oracle: the walk that ranks every member against both modules, one
    fresh ``RankCache.rank`` per member, then raises the running radius."""
    c1, c2 = RankCache(m1), RankCache(m2)
    eps, witnesses = 0, []
    for gi in collection:
        r1, r2 = c1.rank(gi), c2.rank(gi)
        if r1 == r2:
            continue
        small, big = (r1, c2) if r1 < r2 else (r2, c1)
        while big.rank(gi.thicken(eps)) > small:
            witnesses.append(gi)
            eps += 1
    return witnesses


def draw_window(data, label):
    """A window of side 1-3 inside the box [-1, 2]^2, so any two windows'
    union box has at most 4 x 4 points."""
    w = data.draw(st.integers(1, 3), label=f"{label} width")
    h = data.draw(st.integers(1, 3), label=f"{label} height")
    origin = (data.draw(st.integers(-1, 3 - w), label=f"{label} x0"),
              data.draw(st.integers(-1, 3 - h), label=f"{label} y0"))
    return grid_poset(w, h, origin)


def block_module(win, p):
    """The interval module of the whole window: deep members push distances up."""
    return grid_interval_module(win, GridInterval.from_points(win.grid_coords), p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_window_split_walk_matches_the_all_members_walk(data):
    p = data.draw(st.sampled_from((2, 3)), label="p")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    win1 = draw_window(data, "m1")
    kind = data.draw(st.sampled_from(("random", "block")), label="m1 kind")
    m1 = random_module(rng, win1, p) if kind == "random" else block_module(win1, p)
    partner = data.draw(st.sampled_from(("shift", "random", "block", "zero")), label="partner")
    if partner == "shift":
        (ox, oy), (w, h) = m1.window_origin_size()
        # the shift moves the window down-left; keep the union box within 4 x 4
        delta = data.draw(st.integers(0, min(3, 4 - w, 4 - h)), label="delta")
        m2 = shift_module(m1, delta)
    else:
        win2 = draw_window(data, "m2")
        m2 = {"random": lambda: random_module(rng, win2, p), "block": lambda: block_module(win2, p),
              "zero": lambda: zero_module(win2, p)}[partner]()
    if data.draw(st.booleans(), label="swap"):
        m1, m2 = m2, m1
    budget = st.sampled_from((None, 1, 2, 3))
    family = ThickeningFamily(data.draw(budget, label="min budget"), data.draw(budget, label="max budget"))
    coll = family.members_within(union_bbox(m1, m2))
    want = all_members_walk(m1, m2, coll)
    assert list(erosion_witnesses(m1, m2, coll)) == want
    assert list(erosion_witnesses(m1, m2, family.members_near(m1, m2))) == want
    caches = (RankCache(m1), RankCache(m2))
    for eps in range(len(want) + 1):
        assert verify_erosion(m1, m2, coll, eps, *caches) == (want[eps] if eps < len(want) else None)


def test_hand_built_pairs_reach_distance_two_and_more():
    """Blocks against zero and smaller blocks: witness lists longer than
    one, off the origin, with windows disjoint, nested and overlapping."""
    distances = []
    for p in (2, 3):
        big = block_module(grid_poset(5, 5, (-1, -1)), p)
        block4 = block_module(grid_poset(4, 4, (-1, -1)), p)
        # union boxes of 5 x 5 and 4 x 4 points from (-1, -1)
        pairs = [
            (big, zero_module(grid_poset(5, 5, (-1, -1)), p)),
            (block4, block_module(grid_poset(2, 2, (0, 0)), p)),     # nested
            (block4, block_module(grid_poset(3, 2, (1, 2)), p)),     # overlapping
            (block_module(grid_poset(3, 3, (-1, -1)), p),
             block_module(grid_poset(2, 3, (2, 1)), p)),             # disjoint
            (shift_module(block4, 1), block4),
        ]
        for budget in ((None, None), (2, 2), (3, 1)):
            family = ThickeningFamily(*budget)
            for m1, m2 in pairs:
                coll = family.members_within(union_bbox(m1, m2))
                want = all_members_walk(m1, m2, coll)
                assert list(erosion_witnesses(m1, m2, coll)) == want
                assert list(erosion_witnesses(m2, m1, family.members_near(m2, m1))) == want
                assert [verify_erosion(m1, m2, coll, eps) for eps in range(len(want) + 1)] == [*want, None]
                distances.append(len(want))
    assert max(distances) >= 3, distances


WINDOW_PAIRS = {
    "overlapping": ((3, 3, (0, 0)), (3, 2, (1, 2))),
    "nested": ((4, 4, (-1, 0)), (2, 2, (0, 1))),
    "equal": ((3, 3, (1, -1)), (3, 3, (1, -1))),
    "disjoint": ((2, 3, (-1, 0)), (2, 2, (2, 1))),
    "corners": ((2, 2, (0, 0)), (2, 2, (2, 2))),
}


@pytest.mark.parametrize("budget", [(None, None), (1, 1), (2, 1), (1, 3), (2, 2)])
@pytest.mark.parametrize("windows", sorted(WINDOW_PAIRS))
def test_members_near_are_the_union_box_members_inside_a_window(windows, budget):
    w1, w2 = (zero_module(grid_poset(*spec)) for spec in WINDOW_PAIRS[windows])
    family = ThickeningFamily(*budget)
    want = tuple(gi for gi in family.members_within(union_bbox(w1, w2))
                 if w1.contains_interval(gi) or w2.contains_interval(gi))
    for m1, m2 in ((w1, w2), (w2, w1)):
        near = family.members_near(m1, m2)
        assert type(near) is CanonicalMembers and near.box is None
        assert near == want


def test_each_module_ranks_only_its_own_window_members(monkeypatch):
    """The work count of one fixture pair: each cache files the family's
    members inside its module's window and the thickenings it ranked,
    and nothing else."""
    m1 = build_fixture("anti-diagonal").modules["m"]
    m2 = build_fixture("center-double").modules["m"]
    coll = ThickeningFamily(2, 2).members_within(union_bbox(m1, m2))
    caches = (RankCache(m1), RankCache(m2))
    thickened = ([], [])
    for cache, seen in zip(caches, thickened):
        real = cache.rank
        monkeypatch.setattr(cache, "rank", lambda gi, real=real, seen=seen: seen.append(gi) or real(gi))
    witnesses = list(erosion_witnesses(m1, m2, coll, caches))
    assert len(witnesses) == 1
    for module, cache, seen in zip((m1, m2), caches, thickened):
        inside = [gi for gi in coll if module.contains_interval(gi)]
        assert cache.queries == len(set(inside) | set(seen))
    # 9,016 members in the union box; 475 and 79 of them inside the windows
    assert len(coll) == 9016
    assert [sum(map(m.contains_interval, coll)) for m in (m1, m2)] == [475, 79]
    assert [c.queries for c in caches] == [500, 130]
