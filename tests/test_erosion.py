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
from grinv.invariants import RankCache
from grinv.modules import generalized_rank_fast, grid_interval_module, zero_module
from grinv.posets import GridInterval, grid_poset
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
            assert len(fat.minimal_points()) <= 2
            assert len(fat.maximal_points()) <= 2


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
