import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grinv import invariants as inv_module
from grinv.fixtures import build_fixture
from grinv.invariants import (
    GriTable,
    IntervalDecomposableError,
    RankCache,
    SignedDiagram,
    containment_dot,
    format_members,
    gpd,
    gri,
    gri_difference_kernel_check,
    indicator_inversion,
    minimal_nonisomorphic_pair,
    minimal_rank_decomposition,
    realize,
    reconstruct_table,
    tightness_pair,
    verify_invertibility,
)
from grinv.mobius import PosetFunction, convolve, mobius_function
from grinv.modules import PModule, direct_sum, generalized_rank, grid_interval_module, interval_module, zero_module
from grinv.posets import (
    CanonicalMembers,
    GridInterval,
    SubposetId,
    canonical_members,
    Supersets,
    bitset,
    containment_poset,
    enumerate_grid_intervals,
    enumerate_intervals,
    grid_poset,
)
from grinv.sampling import random_grid_interval, random_interval_decomposable, random_module, random_poset
from grinv.zigzag import ZigzagPath, zigzag_barcode


def chain_window(n):
    return grid_poset(n, 1, (0, 0))


def segments_of_chain(n):
    return [
        GridInterval.rectangle((i, 0), (j, 0)) for i in range(n) for j in range(i, n)
    ]


# -- gri tables ---------------------------------------------------------------------


def test_gri_of_zero_module(grid33):
    ints = enumerate_grid_intervals(grid33)
    table = gri(zero_module(grid33), ints)
    assert set(table.ranks) == {0}
    assert table.check_monotone() is None


def test_rank_cache_hashes_each_member_once_per_call(monkeypatch, grid33, rng):
    module = random_module(rng, grid33)
    members = enumerate_grid_intervals(grid33)
    calls = []
    plain = GridInterval.__hash__
    monkeypatch.setattr(GridInterval, "__hash__", lambda gi: calls.append(1) or plain(gi))
    cache = RankCache(module)
    cold = [cache.rank(gi) for gi in members]
    assert len(calls) == cache.queries == len(members)
    assert [cache.rank(gi) for gi in members] == cold
    assert len(calls) == 2 * len(members) and cache.queries == len(members)
    assert cold == [generalized_rank(module, gi) for gi in members]


def test_rank_cache_files_no_rank_for_a_failed_miss(grid22):
    module = interval_module(grid22, range(4))
    cache = RankCache(module)
    antichain = [1, 2]  # (0, 1) and (1, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="region must be connected"):
            cache.rank(antichain)
        assert cache.rank(GridInterval.rectangle((0, 0), (1, 1))) == 1
    assert cache.queries == 1


def memo_sizes(module):
    """The size of every memo a module keeps, by slot."""
    return {slot: len(getattr(module, slot) or ()) for slot in
            ("_trans", "_fences", "_moves", "_sids", "_bases", "_pair_ranks")}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5]),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(1, 4),
    st.integers(0, 10 ** 9),
    st.data(),
)
def test_bulk_ranks_match_the_oracle_cold_warm_and_repeated(p, origin, summands, seed, data):
    """``RankCache.ranks`` gives the oracle's rank at every position:
    cold, after part of the members were ranked one by one or in bulk,
    shuffled, with repeats, with regions given as id lists (ranked by
    ``generalized_rank``) and with intervals leaving the window; few
    summands leave points zero-dimensional.  ``queries`` counts distinct
    misses, a module whose memos were cleared refills them to the sizes a
    fresh copy reaches, and a raising kernel leaves the cache as it was."""
    rng = np.random.default_rng(seed)
    ox, oy = origin
    win = grid_poset(4, 4, origin)
    m = random_module(rng, win, p, max_summands=summands)
    idx = win.id_of_coord()
    ints = list(enumerate_grid_intervals(win))
    members = data.draw(st.lists(st.sampled_from(ints), min_size=1, max_size=30))
    members += [random_grid_interval(rng, (ox - 2, oy - 2, ox + 5, oy + 5)) for _ in range(6)]
    members += [[idx[pt] for pt in gi.points()] for gi in data.draw(
        st.lists(st.sampled_from(ints), max_size=3))]
    members = data.draw(st.permutations(members + members[: len(members) // 3]))
    want = [generalized_rank(m, r) for r in members]

    def key(r):
        return frozenset(r) if isinstance(r, list) else r

    fresh = PModule(m.poset, m.dims, m.maps, p, validate=False)
    cache = RankCache(fresh)
    assert cache.ranks(members) == want
    assert cache.queries == len({key(r) for r in members})
    assert cache.ranks(members) == want and cache.queries == len({key(r) for r in members})

    # partly warm: a prefix one by one, a sample in bulk, then everything
    cut = data.draw(st.integers(0, len(members)))
    part = RankCache(m)
    assert [part.rank(r) for r in members[:cut]] == want[:cut]
    some = data.draw(st.lists(st.sampled_from(members), max_size=10))
    assert part.ranks(some) == [generalized_rank(m, r) for r in some]
    assert part.ranks(members) == want
    assert part.queries == cache.queries

    # a cleared module is as cold as a new one, and refills its memos as a fresh copy does
    m._clear_memos()
    new = PModule(m.poset, m.dims, m.maps, p, validate=False)
    assert all(getattr(m, slot) == getattr(new, slot) for slot in memo_sizes(m))
    again = RankCache(m)
    assert again.ranks(members) == want
    assert memo_sizes(m) == memo_sizes(fresh)

    # a raising kernel files nothing
    before = (dict(again._index), list(again._ranks))
    extra = [gi for gi in ints if gi not in again._index]
    assume(extra)

    def broken(module, grid):
        raise RuntimeError("kernel failed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv_module, "generalized_ranks_fast", broken)
        with pytest.raises(RuntimeError, match="kernel failed"):
            again.ranks(members + extra)
    assert (again._index, again._ranks) == before
    assert again.ranks(extra) == [generalized_rank(m, gi) for gi in extra]


def test_gpd_of_a_table_out_of_canonical_order(rng, grid33):
    table = gri(random_module(rng, grid33), enumerate_grid_intervals(grid33))
    shuffled = rng.permutation(len(table.ranks)).tolist()
    other = GriTable(tuple(table.collection[i] for i in shuffled),
                     tuple(table.ranks[i] for i in shuffled))
    assert gpd(other).support == gpd(table).support


def test_check_monotone_finds_a_violation_beyond_one_point_extensions():
    row = GridInterval.rectangle((0, 0), (2, 0))
    point = GridInterval.rectangle((0, 0), (0, 0))
    right = GridInterval.rectangle((2, 0), (2, 0))
    far = GridInterval.rectangle((5, 5), (5, 5))
    # point lies in row, two points short of it, with no member in between;
    # every other contained pair keeps the rank from growing
    table = GriTable((far, right, point, row), (9, 3, 1, 2))
    assert table.check_monotone() == (point, row)
    assert GriTable((far, right, point, row), (9, 3, 2, 2)).check_monotone() is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.frozensets(st.integers(0, 5), min_size=1), st.integers(0, 3)),
                max_size=12))
def test_check_monotone_returns_the_first_all_pairs_violation(members):
    items = [SubposetId(tuple(sorted(s))) for s, _ in members]
    ranks = tuple(r for _, r in members)
    want = next(
        ((items[i], items[j]) for i in range(len(items)) for j in range(len(items))
         if i != j and items[i].member_set <= items[j].member_set and ranks[i] < ranks[j]),
        None,
    )
    assert GriTable(tuple(items), ranks).check_monotone() == want


def full_index_check_monotone(table):
    """The monotone alarm over a containment index of the whole collection
    (the routine before the support-only index), as the oracle."""
    by_rank: dict = {}
    for j, r in enumerate(table.ranks):
        by_rank.setdefault(r, []).append(j)
    n = len(table.ranks)
    above, greater = {}, 0
    for r in sorted(by_rank, reverse=True):
        above[r] = greater
        greater |= bitset(by_rank[r], n)
    sup = Supersets(table.collection)
    for it, r in zip(table.collection, table.ranks):
        hit = above[r] & sup.containing(it) if above[r] else 0
        if hit:
            return (it, table.collection[(hit & -hit).bit_length() - 1])
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(["grid", "ids"]), st.integers(0, 3), st.integers(0, 1), st.integers(0, 10 ** 9))
def test_support_only_monotone_alarm_matches_the_full_index(kind, n_bad, floor, seed):
    """Monotone tables (each rank counts the drawn sets holding the member,
    plus a floor) over grid intervals or SubposetIds, with 0-3 injected
    rank increases: the alarm indexing only the members above the least
    rank names the first pair the whole-collection index names."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        items = enumerate_grid_intervals(grid_poset(3, 3), 2, 2)
    else:
        items = enumerate_intervals(random_poset(rng, 6))
    sets = [items[int(k)].member_set for k in rng.integers(0, len(items), 4)]
    ranks = [floor + sum(it.member_set <= s for s in sets) for it in items]
    for k in rng.integers(0, len(items), n_bad):
        ranks[k] += int(rng.integers(1, 3))
    table = GriTable(items, tuple(ranks))
    assert table.check_monotone() == full_index_check_monotone(table)


def test_gri_of_interval_module_is_indicator(grid33, rng):
    j = random_grid_interval(rng, (0, 0, 2, 2))
    table = gri(grid_interval_module(grid33, j), enumerate_grid_intervals(grid33))
    for it, r in zip(table.collection, table.ranks):
        assert r == (1 if j.issuperset(it) else 0)


def test_gri_square_fixture_tables():
    fx = build_fixture("ex-2x2-indicator")
    coll = [fx.intervals[k] for k in ("I", "J1", "J2", "J3")]
    tm = gri(fx.modules["m"], coll)
    tn = gri(fx.modules["n"], coll)
    small = [fx.intervals[k] for k in ("J1", "J2", "J3")]
    assert tm.restrict(small).ranks == tn.restrict(small).ranks
    assert tm.rank_of(fx.intervals["I"]) == 1
    assert tn.rank_of(fx.intervals["I"]) == 0


# -- gpd ----------------------------------------------------------------------------


def test_gpd_of_single_interval_module(grid33, rng):
    j = random_grid_interval(rng, (0, 0, 2, 2))
    table = gri(grid_interval_module(grid33, j), enumerate_grid_intervals(grid33))
    d = gpd(table)
    assert len(d.support) == 1
    it, v = d.support[0]
    assert it.member_set == j.member_set and v == 1


def test_gpd_support_inside_rank_support(rng, grid33):
    for _ in range(5):
        m, _ = random_interval_decomposable(rng, grid33, 5)
        table = gri(m, enumerate_grid_intervals(grid33))
        d = gpd(table)
        positive = {it.member_set for it, r in zip(table.collection, table.ranks) if r > 0}
        for it, v in d.support:
            assert it.member_set in positive


def test_gpd_zeta_round_trip(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    for _ in range(5):
        m, _ = random_interval_decomposable(rng, grid33, 5)
        table = gri(m, ints)
        assert reconstruct_table(gpd(table), ints).ranks == table.ranks


def test_gpd_on_chain_equals_zigzag_barcode(rng):
    from grinv.sampling import random_chain_module

    for _ in range(10):
        n = int(rng.integers(2, 7))
        win = chain_window(n)
        idx = win.id_of_coord()
        mod = random_chain_module(rng, n)
        # re-house the chain module on the 1-row window so both machines see it
        maps = {(idx[(i, 0)], idx[(i + 1, 0)]): mod._edge(i, i + 1) for i in range(n - 1)}
        m = type(mod)(win, mod.dims, maps, mod.p)
        table = gri(m, segments_of_chain(n))
        d = gpd(table)
        path = ZigzagPath(tuple((i, 0) for i in range(n)))
        bars = dict(zigzag_barcode(m, path).bars)
        got = {it.member_set: v for it, v in d.support}
        want = {
            frozenset((x, 0) for x in range(i, j + 1)): mult
            for (i, j), mult in bars.items()
        }
        assert got == want
        assert all(v >= 0 for v in got.values())


def test_gpd_additive(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    for _ in range(4):
        m, _ = random_interval_decomposable(rng, grid33, 3)
        n, _ = random_interval_decomposable(rng, grid33, 3)
        dm = gpd(gri(m, ints))
        dn = gpd(gri(n, ints))
        dsum = gpd(gri(direct_sum(m, n), ints))
        assert dsum == dm + dn


def test_completeness_holds_at_odd_characteristic(grid33):
    import numpy as np

    for p in (3, 5):
        rng = np.random.default_rng(1000 + p)
        ints = enumerate_grid_intervals(grid33)
        for _ in range(5):
            m, barcode = random_interval_decomposable(rng, grid33, 5, p=p)
            d = gpd(gri(m, ints))
            assert {it.member_set: v for it, v in d.support} == barcode


def test_gpd_completeness_recovers_barcode(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    for _ in range(10):
        m, barcode = random_interval_decomposable(rng, grid33, 6)
        d = gpd(gri(m, ints))
        got = {it.member_set: v for it, v in d.support}
        assert got == barcode


def test_chain4_pair_tables_and_diagrams():
    fx = build_fixture("chain4-pair")
    win = chain_window(4)
    # rebuild on the 1-row window for grid machinery
    seg = lambda i, j: GridInterval.rectangle((i, 0), (j, 0))
    plus = direct_sum(
        grid_interval_module(win, seg(0, 3)), grid_interval_module(win, seg(1, 2))
    )
    minus = direct_sum(
        grid_interval_module(win, seg(0, 2)), grid_interval_module(win, seg(1, 3))
    )
    small = [seg(1, 2), seg(0, 2), seg(1, 3)]
    big = small + [seg(0, 3)]
    tp = gri(plus, big)
    tn = gri(minus, big)
    assert tp.restrict(small).ranks == tn.restrict(small).ranks
    assert tp.rank_of(seg(0, 3)) == 1 and tn.rank_of(seg(0, 3)) == 0
    dp, dn = gpd(tp), gpd(tn)
    assert {it.member_set: v for it, v in dp.support} == {
        seg(0, 3).member_set: 1,
        seg(1, 2).member_set: 1,
    }
    assert {it.member_set: v for it, v in dn.support} == {
        seg(0, 2).member_set: 1,
        seg(1, 3).member_set: 1,
    }
    # the difference is the inverted indicator of the full segment
    d = indicator_inversion(big, seg(0, 3))
    want = {
        seg(0, 3).member_set: 1,
        seg(0, 2).member_set: -1,
        seg(1, 3).member_set: -1,
        seg(1, 2).member_set: 1,
    }
    assert {it.member_set: v for it, v in d.support} == want
    got_diff = {it.member_set: v for it, v in dp.support}
    for it, v in dn.support:
        got_diff[it.member_set] = got_diff.get(it.member_set, 0) - v
    assert {k: v for k, v in got_diff.items() if v} == want


# -- the bitset paths against the incidence-algebra oracle ------------------------------


@st.composite
def drawn_tables(draw):
    """Tables with drawn ranks (zeros included, not necessarily monotone) over a
    random unsaturated id-subset collection or an int:M,N grid collection."""
    if draw(st.booleans()):
        sets = draw(st.lists(st.frozensets(st.integers(0, 6), min_size=1), unique=True,
                             max_size=16))
        items = [SubposetId(tuple(sorted(s))) for s in sets]
    else:
        w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        items = enumerate_grid_intervals(grid_poset(w, h), draw(st.integers(1, 3)),
                                         draw(st.integers(1, 3)))
        items = draw(st.permutations(items))
    ranks = draw(st.lists(st.integers(0, 3), min_size=len(items), max_size=len(items)))
    return GriTable(tuple(items), tuple(ranks))


def dense_inversion(items, values) -> dict:
    """{member set: value} of g * mu over the containment poset, g given per item."""
    cont = containment_poset(items)
    g = PosetFunction.from_dict(cont.poset, {cont.items.index(it): v for it, v in zip(items, values)})
    f = convolve(g, mobius_function(cont.poset))
    return {cont.items[i].member_set: v for i, v in enumerate(f.values) if v}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_tables())
def test_gpd_equals_the_dense_mobius_inversion(table):
    d = gpd(table)
    assert {it.member_set: v for it, v in d.support} == dense_inversion(table.collection, table.ranks)
    assert [it.sort_key for it, _ in d.support] == sorted(it.sort_key for it, _ in d.support)
    back = reconstruct_table(d, table.collection)
    assert dict(zip(back.collection, back.ranks)) == dict(zip(table.collection, table.ranks))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_tables(), st.data())
def test_verify_invertibility_matches_the_dense_oracle(table, data):
    support = [it for it in table.collection if data.draw(st.booleans())]
    keys = {it.member_set for it in support}
    sub = [(it, r) for it, r in zip(table.collection, table.ranks) if it.member_set in keys]
    diagram = dense_inversion([it for it, _ in sub], [r for _, r in sub])
    canonical = sorted(zip(table.collection, table.ranks), key=lambda ir: ir[0].sort_key)
    witness = next((it for it, r in canonical
                    if sum(v for k, v in diagram.items() if it.member_set <= k) != r), None)
    report = verify_invertibility(table, support)
    assert report.ok == (witness is None)
    if report.ok:
        assert {it.member_set: v for it, v in report.diagram.support} == diagram
    else:
        assert report.witness == witness


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_tables())
def test_containment_poset_follows_the_frozenset_rule(table):
    cont = containment_poset(table.collection)
    assert list(cont.items) == sorted(table.collection, key=lambda it: it.sort_key)
    sets = [it.member_set for it in cont.items]
    want = [[sets[j] <= sets[i] for j in range(len(sets))] for i in range(len(sets))]
    assert cont.poset.leq.tolist() == want


def test_inversions_reject_duplicate_members():
    a, b = SubposetId((0, 1)), SubposetId((1, 0))  # one set, two objects
    with pytest.raises(ValueError, match="duplicate"):
        gpd(GriTable((a, b), (1, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        indicator_inversion([a, b], a)
    with pytest.raises(ValueError, match="duplicate"):
        containment_poset([a, b])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_tables(), st.data())
def test_indicator_inversion_equals_the_dense_mobius_inversion(table, data):
    items = table.collection
    assume(items)
    item = items[data.draw(st.integers(0, len(items) - 1))]
    d = indicator_inversion(items, item)
    want = dense_inversion(items, [int(it == item) for it in items])
    assert {it.member_set: v for it, v in d.support} == want
    assert [it.sort_key for it, _ in d.support] == sorted(it.sort_key for it, _ in d.support)


def test_a_table_reads_a_member_under_any_kind():
    items = tuple(SubposetId(ms) for ms in ((0,), (0, 1), (0, 1, 2), (1, 2)))
    table = GriTable(items, (3, 2, 1, 2))
    for it, r in zip(items, table.ranks):
        assert table.rank_of(SubposetId(it.members)) == r


def test_gpd_memory_follows_the_support_not_the_collection():
    # no bitset per member: the inversion indexes only the diagram's support
    window = grid_poset(5, 5)
    ints = enumerate_grid_intervals(window)
    assert len(ints) == 6431
    ranked = gri(random_module(np.random.default_rng(5), window), ints)
    table = GriTable(ranked.collection, ranked.ranks)
    tracemalloc.start()
    try:
        diagram = gpd(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diagram.support and peak < 4 * 2 ** 20


# -- invertibility -------------------------------------------------------------------


def test_invertibility_over_self_is_tautological(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    m, _ = random_interval_decomposable(rng, grid33, 4)
    table = gri(m, ints)
    report = verify_invertibility(table, list(table.collection))
    assert report.ok


def test_invertibility_over_barcode_support(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    for _ in range(5):
        m, barcode = random_interval_decomposable(rng, grid33, 4)
        table = gri(m, ints)
        support = [it for it in ints if it.member_set in barcode]
        report = verify_invertibility(table, support)
        assert report.ok
        got = {it.member_set: v for it, v in report.diagram.support}
        assert got == barcode


def test_invertibility_failure_returns_first_witness(grid33):
    # support {corner point} cannot explain the rank of the full square module
    full = GridInterval.rectangle((0, 0), (2, 2))
    corner = GridInterval.from_points([(0, 0)])
    m = grid_interval_module(grid33, full)
    table = gri(m, [corner, full])
    report = verify_invertibility(table, [corner])
    assert not report.ok
    assert report.witness.member_set == full.member_set


def test_invertibility_reads_a_table_in_any_order():
    row = GridInterval.rectangle((0, 0), (1, 0))
    point = GridInterval.rectangle((0, 0), (0, 0))
    report = verify_invertibility(GriTable((row, point), (1, 2)), [row, point])
    assert report.ok
    assert {it.member_set: v for it, v in report.diagram.support} == {
        row.member_set: 1, point.member_set: 1}


def test_counterexample_witnesses_accumulate():
    # the serrated intervals all demand +1, so the mass below a fixed point grows
    deficits = {}
    for window in (4, 6, 8):
        fx = build_fixture("thm-tame-counterexample", window=window)
        m = fx.modules["m"]
        serrated = sorted(fx.intervals.values(), key=lambda gi: gi.sort_key)
        point = GridInterval.from_points([(-1, -1)])
        coll = serrated + [point]
        table = gri(m, coll)
        d = gpd(table)
        for gi in serrated:
            assert d.value_of(gi) == 1
        deficits[window] = d.value_of(point)
        report = verify_invertibility(table, serrated)
        if len(serrated) == 1:
            assert report.ok  # one +1 exactly matches the point's rank
        else:
            assert not report.ok and report.witness.member_set == point.member_set
    assert deficits[4] > deficits[6] > deficits[8]
    assert deficits[window] == 1 - len(fx.intervals)


# -- decomposition and realisation ------------------------------------------------------


def test_minimal_rank_decomposition_of_decomposable_is_barcode(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    m, barcode = random_interval_decomposable(rng, grid33, 5)
    d = gpd(gri(m, ints))
    plus, minus = minimal_rank_decomposition(d)
    assert minus == ()
    assert {it.member_set: v for it, v in plus} == barcode


def test_decomposition_reevaluates_to_table(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    for _ in range(5):
        m, _ = random_interval_decomposable(rng, grid33, 4)
        table = gri(m, ints)
        plus, minus = minimal_rank_decomposition(gpd(table))
        mp = realize(plus, grid33)
        mm = realize(minus, grid33)
        tp = gri(mp, ints)
        tm = gri(mm, ints)
        diff = tuple(a - b for a, b in zip(tp.ranks, tm.ranks))
        assert diff == table.ranks


def test_realize_single_and_pair(grid33):
    j = GridInterval.rectangle((0, 0), (1, 1))
    m = realize(((j, 1),), grid33)
    assert m.dims == grid_interval_module(grid33, j).dims
    with pytest.raises(ValueError):
        realize(((j, -1),), grid33)


def test_square_fixture_minimal_pair():
    fx = build_fixture("ex-2x2-indicator")
    small = [fx.intervals[k] for k in ("J1", "J2", "J3")]
    big = small + [fx.intervals["I"]]
    plus, minus, d = minimal_nonisomorphic_pair(big, fx.intervals["I"], fx.poset)
    # full interval tables identify interval-decomposables up to isomorphism
    ints = enumerate_grid_intervals(fx.poset)
    assert gri(plus, ints).ranks == gri(fx.modules["m"], ints).ranks
    assert gri(minus, ints).ranks == gri(fx.modules["n"], ints).ranks
    tp = gri(plus, big)
    tn = gri(minus, big)
    assert tp.restrict(small).ranks == tn.restrict(small).ranks
    assert tp.rank_of(fx.intervals["I"]) != tn.rank_of(fx.intervals["I"])


def test_minimal_pairs_distinct_for_distinct_members(grid33):
    ints = enumerate_grid_intervals(grid33)
    small = ints[:0]
    seen = set()
    for item in ints[40:44]:
        _, _, d = minimal_nonisomorphic_pair(ints, item, grid33)
        key = tuple(sorted((tuple(sorted(it.member_set)), v) for it, v in d.support))
        assert key not in seen
        seen.add(key)


def test_tightness_pair_on_center_double():
    fx = build_fixture("center-double")
    m = fx.modules["m"]
    win = fx.poset
    ints = enumerate_grid_intervals(win)
    collection = enumerate_grid_intervals(win, 1, 1)  # segments
    n_plus, n_prime = tightness_pair(m, collection, full_collection=ints)
    t1 = gri(n_plus, collection)
    t2 = gri(n_prime, collection)
    assert t1.ranks == t2.ranks
    # both tables are the superset-sum of the positive part of the diagram
    from grinv.invariants import SignedDiagram, reconstruct_table

    diagram = gpd(gri(m, collection))
    positive = SignedDiagram(diagram.positive_part())
    assert reconstruct_table(positive, collection).ranks == t1.ranks
    # over the full interval collection their diagrams differ
    d1 = gpd(gri(n_plus, ints))
    d2 = gpd(gri(n_prime, ints))
    assert d1 != d2


def test_equal_signed_diagrams_hash_equal(rng, grid33):
    """Equality reads the value map, so the hash must too: two diagrams
    listing the same entries in different orders are one set element."""
    from grinv.invariants import SignedDiagram

    d = gpd(gri(random_module(rng, grid33), enumerate_grid_intervals(grid33)))
    assert len(d.support) >= 2
    flipped = SignedDiagram(d.support[::-1])
    assert flipped == d and hash(flipped) == hash(d)
    assert len({d, flipped}) == 1


def test_tightness_pair_rejects_decomposable(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    m, _ = random_interval_decomposable(rng, grid33, 3)
    with pytest.raises(IntervalDecomposableError):
        tightness_pair(m, ints[:20], full_collection=ints)


def test_center_double_diagram_has_negative_entry():
    fx = build_fixture("center-double")
    d = gpd(gri(fx.modules["m"], enumerate_grid_intervals(fx.poset)))
    assert any(v < 0 for _, v in d.support)


# -- kernel check -------------------------------------------------------------------


def test_difference_kernel_check_trivial(rng, grid33):
    ints = enumerate_grid_intervals(grid33)
    m, _ = random_interval_decomposable(rng, grid33, 3)
    assert gri_difference_kernel_check(m, m, ints[:30], ints)


def test_difference_kernel_check_square_pair():
    fx = build_fixture("ex-2x2-indicator")
    small = [fx.intervals[k] for k in ("J1", "J2", "J3")]
    big = small + [fx.intervals["I"]]
    assert gri_difference_kernel_check(fx.modules["m"], fx.modules["n"], small, big)
    assert not gri_difference_kernel_check(fx.modules["m"], fx.modules["n"], big, big)


def hook_pair(rng, grid33):
    """A random base plus each side of the canonical pair of the 3x3 hook,
    with the small collection of intervals of at most two points."""
    ints = enumerate_grid_intervals(grid33)
    small = [it for it in ints if len(it) <= 2]
    hook = GridInterval.from_points([(0, 0), (0, 1), (1, 0)])
    plus, minus, _ = minimal_nonisomorphic_pair(ints, hook, grid33)
    base, _ = random_interval_decomposable(rng, grid33, 2)
    return direct_sum(base, plus), direct_sum(base, minus), small, ints


def test_difference_kernel_check_random_equal_pairs(rng, grid33):
    # build pairs with equal small-collection tables by adding the canonical pair
    m1, m2, small, ints = hook_pair(rng, grid33)
    assert gri_difference_kernel_check(m1, m2, small, ints)


def counting_invert(monkeypatch, alter=None):
    """Replace the inversion the kernel check uses by one that counts its
    calls and passes its result through ``alter(values, f)``."""
    calls = []
    real = inv_module._invert

    def counted(items, values):
        calls.append(1)
        f = real(items, values)
        return alter(values, f) if alter else f

    monkeypatch.setattr(inv_module, "_invert", counted)
    return calls


def test_difference_kernel_check_inverts_only_the_differing_indicators(rng, grid33, monkeypatch):
    m1, m2, small, ints = hook_pair(rng, grid33)
    differing = sum(a != b for a, b in zip(gri(m1, ints).ranks, gri(m2, ints).ranks))
    calls = counting_invert(monkeypatch)
    assert gri_difference_kernel_check(m1, m2, small, ints)
    assert 0 < differing < len(ints) - len(small)
    assert len(calls) == 2 + differing


def test_difference_kernel_check_catches_a_nonlinear_inversion(rng, grid33, monkeypatch):
    m1, m2, small, ints = hook_pair(rng, grid33)

    def nonlinear(values, f):
        return [f[0] + sum(values) ** 2, *f[1:]]

    counting_invert(monkeypatch, nonlinear)
    with pytest.raises(AssertionError, match="escaped the indicator span"):
        gri_difference_kernel_check(m1, m2, small, ints)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3)]), st.sampled_from([2, 3]),
       st.data())
def test_difference_kernel_check_answers_whether_tables_agree(seed, shape, p, data):
    """The canonical pair of a member, over any base, differs exactly at
    that member, so the check holds iff the small collection misses it."""
    window = grid_poset(*shape)
    ints = enumerate_grid_intervals(window)
    item = data.draw(st.sampled_from(ints))
    small = data.draw(st.lists(st.sampled_from([it for it in ints if it != item]), unique=True))
    if data.draw(st.booleans()):
        small.insert(data.draw(st.integers(0, len(small))), item)
    plus, minus, _ = minimal_nonisomorphic_pair(ints, item, window, p)
    base, _ = random_interval_decomposable(np.random.default_rng(seed), window, 3, p)
    m1, m2 = direct_sum(base, plus), direct_sum(base, minus)
    assert gri_difference_kernel_check(m1, m2, small, ints) == (item not in small)


# -- emission ------------------------------------------------------------------------


def test_tsv_and_dot_emission(grid33, rng):
    m, _ = random_interval_decomposable(rng, grid33, 3)
    coll = enumerate_grid_intervals(grid33, 1, 1)
    table = gri(m, coll)
    tsv = table.to_tsv()
    assert len(tsv.splitlines()) == len(coll)
    assert "\t" in tsv.splitlines()[0]
    d = gpd(table)
    dot = containment_dot(containment_poset(coll), d)
    assert dot.startswith("digraph") and "->" in dot


def test_format_members_grid_and_ids(chain4, grid22):
    from grinv.posets import subposet

    gi = GridInterval.from_points([(1, 0), (0, 0)])
    assert format_members(gi) == "0,0 1,0"
    assert format_members(subposet(chain4, (2, 0, 1))) == "0 1 2"


def test_gri_gpd_and_reconstruct_table_reject_duplicate_members(grid33):
    row = GridInterval.rectangle((0, 0), (1, 0))
    twin = GridInterval.from_points([(1, 0), (0, 0)])  # an equal, distinct object
    module = grid_interval_module(grid33, row)
    with pytest.raises(ValueError, match="duplicate"):
        gri(module, [row, twin])
    with pytest.raises(ValueError, match="duplicate"):
        gpd(GriTable((row, twin), (1, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        reconstruct_table(SignedDiagram(((row, 1),)), [twin, row])


def test_restrict_keeps_the_canonical_type(rng, grid33):
    table = gri(random_module(rng, grid33), enumerate_grid_intervals(grid33))
    assert type(table.collection) is CanonicalMembers
    picked = table.collection[1::3]
    sub = table.restrict(reversed(picked))
    assert list(sub.collection) == list(picked)
    assert canonical_members(sub.collection) is sub.collection
    assert sub.ranks == tuple(table.rank_of(it) for it in picked)
    # the full-box label stays with the listed box, not with its parts
    assert table.collection.box is not None
    assert sub.collection.box is None and table.restrict(table.collection).collection.box is None
    # a table built from a plain tuple promises no order
    plain = GriTable(tuple(table.collection), table.ranks)
    assert type(plain.restrict(picked).collection) is tuple


def test_an_enumeration_is_keyed_by_no_layer(rng, frame_key_calls):
    window = grid_poset(3, 3, (1, -2))
    ints = enumerate_grid_intervals(window)
    table = gri(random_module(rng, window), ints)
    diagram = gpd(table)
    support = [it for it, r in zip(table.collection, table.ranks) if r > 0]
    report = verify_invertibility(table, support)
    cont = containment_poset(table.collection)
    assert report.ok and report.diagram == diagram
    assert table.collection is ints and cont.items is ints
    assert frame_key_calls == []
    # a table in another order is keyed once, by the gate in gpd
    shuffled = GriTable(tuple(reversed(table.collection)), tuple(reversed(table.ranks)))
    assert gpd(shuffled) == diagram
    assert frame_key_calls == [len(ints)]
