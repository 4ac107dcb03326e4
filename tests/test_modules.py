import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grinv.erosion import shift_module
from grinv.fixtures import FIXTURES, build_fixture
from grinv.gf import MAX_P, is_prime, kernel_rows, mul_rows, random_invertible, rref_rows
from grinv.modules import (
    PModule,
    _basis,
    _rank_forced_zero,
    colimit,
    direct_sum,
    generalized_rank,
    generalized_rank_fast,
    generalized_ranks_fast,
    grid_interval_module,
    interval_module,
    limit,
    pullback,
    sweep_step,
    zero_module,
)
from grinv.posets import (
    FinitePoset,
    GridInterval,
    SubposetId,
    _staircase,
    canonical_grid_intervals,
    count_grid_intervals,
    enumerate_grid_intervals,
    fence_turns,
    grid_poset,
    iter_grid_intervals,
    lower_fence,
    straight_path,
    upper_fence,
)
from grinv.sampling import (
    random_chain_module,
    random_grid_interval,
    random_interval_decomposable,
    random_module,
    random_poset,
)
from grinv.zigzag import ZigzagPath, zigzag_barcode

from conftest import matrix_poset


LARGEST_P = next(q for q in range(MAX_P, 2, -1) if is_prime(q))


def rank(mat, p):
    """Rank of a numpy matrix over GF(p)."""
    return len(rref_rows((mat % p).tolist(), mat.shape[1], p)[1])


def as_matrix(rows, nrows, ncols):
    """Int rows as a numpy matrix; the shape is explicit because a matrix
    without rows does not carry its width."""
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def all_pairs_systems(module, ms=None):
    """Oracle: the section constraints x_b - T x_a and the relations
    (v at a) - (T v at b) on every comparable pair of ms (default: all
    elements), not just on covers.  Returns (offsets, constraints,
    relations), the relations as the columns of a matrix."""
    ms = list(range(module.poset.n)) if ms is None else list(ms)
    dims = [module.dims[m] for m in ms]
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    rows = [np.zeros((0, offs[-1]), dtype=np.int64)]
    cols = [np.zeros((offs[-1], 0), dtype=np.int64)]
    for a, ma in enumerate(ms):
        for b, mb in enumerate(ms):
            if a != b and module.poset.leq[ma, mb]:
                t = as_matrix(module.transition(ma, mb), dims[b], dims[a])
                block = np.zeros((dims[b], offs[-1]), dtype=np.int64)
                block[:, offs[b] : offs[b + 1]] = np.eye(dims[b], dtype=np.int64)
                block[:, offs[a] : offs[a + 1]] = -t
                rows.append(block)
                block = np.zeros((offs[-1], dims[a]), dtype=np.int64)
                block[offs[a] : offs[a + 1], :] = np.eye(dims[a], dtype=np.int64)
                block[offs[b] : offs[b + 1], :] = -t
                cols.append(block)
    return offs, np.vstack(rows), np.hstack(cols)


def all_pairs_limit_dim(module):
    offs, constraints, _ = all_pairs_systems(module)
    return offs[-1] - rank(constraints, module.p)


def all_pairs_colimit_dim(module):
    offs, _, relations = all_pairs_systems(module)
    return offs[-1] - rank(relations, module.p)


def all_pairs_generalized_rank(module, ms):
    """Oracle: the rank of limit -> V_first -> colimit over ms, both solved
    from the all-pairs systems of the unrestricted module."""
    p = module.p
    offs, constraints, relations = all_pairs_systems(module, ms)
    sections = kernel_rows((constraints % p).tolist(), offs[-1], p)
    functionals = kernel_rows((relations.T % p).tolist(), offs[-1], p)
    if not sections or not functionals:
        return 0
    e = [v[offs[0] : offs[1]] for v in sections]
    q = [f[offs[0] : offs[1]] for f in functionals]
    return len(rref_rows(mul_rows(e, q, p), len(q), p)[1])


# -- construction -----------------------------------------------------------------


def test_interval_module_simple_and_full(chain4):
    simple = interval_module(chain4, [1])
    assert simple.dims == (0, 1, 0, 0)
    c3 = FinitePoset.chain(3)
    full = interval_module(c3, [0, 1, 2])
    assert full.dims == (1, 1, 1)
    assert all(full._edge(a, b) == [[1]] for a, b in c3.covers)


def test_interval_module_on_chain4_prefix(chain4):
    m = interval_module(chain4, [0, 1, 2])
    assert m.dims == (1, 1, 1, 0)


def test_interval_module_rejects_nonintervals(chain4):
    with pytest.raises(ValueError):
        interval_module(chain4, [0, 2])


def test_direct_sum_dims_and_blocks(chain4):
    a = interval_module(chain4, [0, 1, 2, 3])
    b = interval_module(chain4, [1, 2])
    s = direct_sum(a, b)
    assert s.dims == (1, 2, 2, 1)
    assert s._edge(1, 2) == [[1, 0], [0, 1]]
    z = zero_module(chain4)
    same = direct_sum(a, z)
    assert same.dims == a.dims
    assert all(np.array_equal(same._edge(*e), a._edge(*e)) for e in chain4.covers)


def test_direct_sum_rank_additive(rng):
    win = grid_poset(3, 3, (0, 0))
    ints = enumerate_grid_intervals(win)
    for _ in range(5):
        m, _ = random_interval_decomposable(rng, win, 3)
        n, _ = random_interval_decomposable(rng, win, 3)
        s = direct_sum(m, n)
        for gi in ints[:: max(1, len(ints) // 11)]:
            assert generalized_rank(s, gi) == generalized_rank(m, gi) + generalized_rank(n, gi)


def test_functoriality_check_rejects_corruption():
    win = grid_poset(2, 2, (0, 0))
    dims = [1, 1, 1, 1]
    good = {
        (0, 1): [[1]], (0, 2): [[1]], (1, 3): [[1]], (2, 3): [[1]],
    }
    PModule(win, dims, good)  # fine
    bad = dict(good)
    bad[(2, 3)] = [[0]]
    with pytest.raises(ValueError, match="functoriality"):
        PModule(win, dims, bad)


def test_functoriality_check_names_the_lowest_then_leftmost_square():
    """Two bad unit squares of a 4x4 window: the one in the lower row is
    named, although its corner ids are the larger ones."""
    win = grid_poset(4, 4, (0, 0))
    idx = win.id_of_coord()
    maps = {e: [[1]] for e in win.covers}
    for left, right in (((0, 2), (1, 2)), ((2, 0), (3, 0))):
        maps[(idx[left], idx[right])] = [[0]]
    with pytest.raises(ValueError, match=r"unit square from \(2, 0\) to \(3, 1\)$"):
        PModule(win, [1] * win.n, maps)


def holed_window(w, h, hole, origin=(0, 0)):
    """The w x h window at origin without the point hole (box coordinates)."""
    coords = tuple((origin[0] + x, origin[1] + y) for y in range(h) for x in range(w)
                   if (x, y) != hole)
    return matrix_poset([[a[0] <= b[0] and a[1] <= b[1] for b in coords] for a in coords],
                        grid_coords=coords)


def test_functoriality_check_off_full_grid_windows():
    """Posets that are not full grid windows: a staircase (its covers are
    unit steps), a 3x3 window without its center, whose two paths around
    the hole are not related by unit squares, and a bowtie a1, a2 < c1, c2
    < d, whose paths into d agree through one of the two maximal common
    lower bounds of c1 and c2 but not through the other."""
    cases = []
    for hole in ((2, 2), (1, 1)):
        win = holed_window(3, 3, hole)
        idx = win.id_of_coord()
        cases.append((win, (idx[(0, 0)], idx[(1, 0)])))
    bowtie = FinitePoset.from_covers(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    cases += [(bowtie, (0, 2)), (bowtie, (1, 2))]
    for poset, edge in cases:
        maps = {e: [[1]] for e in poset.covers}
        PModule(poset, [1] * poset.n, maps)  # fine
        maps[edge] = [[0]]
        with pytest.raises(ValueError, match="functoriality"):
            PModule(poset, [1] * poset.n, maps)


def test_maps_are_stored_as_int_rows_of_residues():
    for m in ([[-1], [7]], np.array([[-1], [7]])):
        mod = PModule(FinitePoset.chain(2), [1, 2], {(0, 1): m}, 5)
        assert mod.maps == {(0, 1): [[4], [2]]}
        assert all(type(v) is int for row in mod.maps[(0, 1)] for v in row)


def test_shape_mismatch_rejected(chain4):
    with pytest.raises(ValueError, match="shape"):
        PModule(chain4, [1, 2, 0, 0], {(0, 1): [[1]]})


# -- pullback -----------------------------------------------------------------------


def test_pullback_identity(rng):
    win = grid_poset(3, 3, (0, 0))
    m, _ = random_interval_decomposable(rng, win, 3)
    back = pullback(m, list(range(win.n)), win)
    assert back.dims == m.dims
    for e in win.covers:
        assert np.array_equal(back._edge(*e), m._edge(*e))


def test_pullback_constant_map(chain4):
    q = FinitePoset.chain(1)
    n = PModule(q, [2], {})
    m = pullback(n, [0, 0, 0, 0], chain4)
    assert m.dims == (2, 2, 2, 2)
    for a, b in chain4.covers:
        assert np.array_equal(m._edge(a, b), np.eye(2, dtype=np.int64))


def test_pullback_rejects_non_monotone(chain4):
    q = FinitePoset.chain(2)
    n = PModule(q, [1, 1], {(0, 1): [[1]]})
    with pytest.raises(ValueError, match="order-preserving"):
        pullback(n, [1, 0, 0, 1], chain4)


# -- restriction, limits, colimits ------------------------------------------------------


def test_restrict_whole_poset_is_identity(rng):
    win = grid_poset(3, 2, (0, 0))
    m, _ = random_interval_decomposable(rng, win, 3)
    r = m.restrict(range(win.n))
    assert r.dims == m.dims
    for e in win.covers:
        assert np.array_equal(r._edge(*e), m._edge(*e))


def test_restrict_of_interval_module_is_all_ones(chain4):
    m = interval_module(chain4, [0, 1, 2, 3])
    r = m.restrict([1, 2])
    assert r.dims == (1, 1)
    assert r._edge(0, 1) == [[1]]


def test_limit_singleton_is_the_space():
    p = grid_poset(1, 1)
    m = PModule(p, [3], {})
    assert limit(m).dim == 3
    qdim, _ = colimit(m)
    assert qdim == 3


def test_limit_colimit_of_interval_module_are_lines(grid33):
    gi = GridInterval.from_points([(0, 0), (1, 0), (0, 1)])
    m = grid_interval_module(grid33, gi)
    sub = m.restrict([0, 1, 3])  # ids of the three points
    assert limit(sub).dim == 1
    assert colimit(sub)[0] == 1


def test_limit_sections_satisfy_cover_constraints(rng):
    win = grid_poset(3, 3, (0, 0))
    m = random_module(rng, win)
    sec = limit(m)
    offs = sec.offsets
    for a, b in win.covers:
        for col in range(sec.dim):
            va = sec.vectors[col][offs[a] : offs[a + 1]]
            vb = sec.vectors[col][offs[b] : offs[b + 1]]
            edge = as_matrix(m._edge(a, b), m.dims[b], m.dims[a])
            assert ((edge @ va) % m.p).tolist() == vb


def test_cover_only_limits_match_all_pairs_oracle(rng):
    for _ in range(12):
        poset = random_poset(rng, 6)
        field = int(rng.choice([2, 3, 5, LARGEST_P]))
        mods = []
        from conftest import brute_force_intervals

        ivs = brute_force_intervals(poset)
        for _ in range(2):
            ms = ivs[int(rng.integers(0, len(ivs)))]
            mods.append(interval_module(poset, ms, field))
        m = direct_sum(*mods).scramble(rng)
        if not poset.is_connected_subset(range(poset.n)):
            continue
        assert limit(m).dim == all_pairs_limit_dim(m)
        assert colimit(m)[0] == all_pairs_colimit_dim(m)


def test_staircase_fixture_limit_matches_all_pairs_oracle():
    from grinv.fixtures import build_fixture

    fx = build_fixture("staircase-zz-pair")
    stair = fx.intervals["I"]
    idx = fx.poset.id_of_coord()
    ids = [idx[pt] for pt in stair.points()]
    for module in (fx.modules["m"], fx.modules["n"]):
        sub = module.restrict(ids)
        assert limit(sub).dim == all_pairs_limit_dim(sub)
        assert colimit(sub)[0] == all_pairs_colimit_dim(sub)


def test_colimit_dim_bounded_by_total(rng):
    win = grid_poset(3, 3, (0, 0))
    for _ in range(5):
        m = random_module(rng, win)
        assert colimit(m)[0] <= sum(m.dims)


# -- generalized rank ---------------------------------------------------------------


def test_rank_of_interval_module_is_containment_indicator(rng, grid33):
    for _ in range(6):
        j = random_grid_interval(rng, (0, 0, 2, 2))
        kj = grid_interval_module(grid33, j)
        for _ in range(8):
            i = random_grid_interval(rng, (0, 0, 2, 2))
            want = 1 if j.issuperset(i) else 0
            assert generalized_rank(kj, i) == want
            assert generalized_rank_fast(kj, i) == want


def test_rank_zero_on_zero_dimension_points(grid33):
    m = grid_interval_module(grid33, GridInterval.from_points([(0, 0)]))
    assert generalized_rank(m, GridInterval.rectangle((0, 0), (1, 1))) == 0


def test_rank_errors_on_empty_or_disconnected(grid22):
    m = grid_interval_module(grid22, GridInterval.rectangle((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        generalized_rank(m, [])
    with pytest.raises(ValueError):
        generalized_rank(m, [1, 2])  # antichain


def test_ambient_extension_by_zero(rng, grid22, grid33):
    """Every constructor gives a grid module extended by zero: ranks over
    intervals that leave its window are 0 on both rank routes, and a path
    stepping off the window has no bar at the indices outside it."""
    square = GridInterval.rectangle((0, 0), (1, 1))
    ones = PModule(grid22, [1] * 4, {e: [[1]] for e in grid22.covers})
    point = PModule(FinitePoset.chain(1), [1], {})
    corner = [i for i, (x, y) in enumerate(grid33.grid_coords) if x < 2 and y < 2]
    modules = {
        "PModule": ones,
        "from_text": PModule.from_text(ones.to_text()),
        "interval_module": interval_module(grid22, range(4)),
        "grid_interval_module": grid_interval_module(grid22, square),
        "pullback": pullback(point, [0] * 4, grid22),
        "direct_sum": direct_sum(ones, ones),
        "scramble": ones.scramble(rng),
        "restrict": grid_interval_module(grid33, GridInterval.rectangle((0, 0), (2, 2)))
        .restrict(corner),
        "shift_module": shift_module(ones, 1),
    }
    for name, m in modules.items():
        (ox, oy), size = m.window_origin_size()
        assert size == (2, 2), name
        inside = GridInterval.rectangle((ox, oy), (ox + 1, oy + 1))
        assert generalized_rank(m, inside) == generalized_rank_fast(m, inside) >= 1, name
        for outside in (GridInterval.rectangle((ox, oy), (ox + 2, oy + 2)),
                        GridInterval.rectangle((ox - 1, oy - 1), (ox, oy)),
                        GridInterval.rectangle((ox + 2, oy), (ox + 3, oy))):
            assert generalized_rank(m, outside) == generalized_rank_fast(m, outside) == 0, name
        # indices 0 and 3 lie off the window
        path = ZigzagPath(tuple((ox + k, oy) for k in range(-1, 3)))
        bars = dict(zigzag_barcode(m, path).bars)
        assert bars and all((i, j) == (1, 2) for i, j in bars), (name, bars)


def test_rank_monotone_under_containment(rng):
    win = grid_poset(3, 3, (0, 0))
    ints = enumerate_grid_intervals(win)
    for _ in range(4):
        m = random_module(rng, win)
        vals = {gi: generalized_rank_fast(m, gi) for gi in ints}
        for i in ints:
            for j in ints:
                if j.issuperset(i):
                    assert vals[i] >= vals[j]


def test_rank_counts_containing_summands(rng):
    win = grid_poset(3, 3, (0, 0))
    for _ in range(6):
        m, barcode = random_interval_decomposable(rng, win, 5)
        for _ in range(8):
            i = random_grid_interval(rng, (0, 0, 2, 2))
            want = sum(mult for pts, mult in barcode.items() if i.member_set <= pts)
            assert generalized_rank(m, i) == want


def test_rank_over_connected_sets_counts_containing_summands(rng):
    win = grid_poset(3, 3, (0, 0))
    from grinv.posets import enumerate_connected

    conn = enumerate_connected(win)
    coords = win.grid_coords
    for _ in range(4):
        m, barcode = random_interval_decomposable(rng, win, 4)
        for sub in conn[:: max(1, len(conn) // 60)]:
            pts = frozenset(coords[i] for i in sub.members)
            want = sum(mult for supp, mult in barcode.items() if pts <= supp)
            assert generalized_rank(m, sub) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.sampled_from([2, 3, 5, LARGEST_P]), st.integers(0, 2**32 - 1),
       st.data())
def test_generalized_rank_matches_all_pairs_oracle_on_abstract_posets(n, field, seed, data):
    from conftest import brute_force_intervals

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    poset = FinitePoset.from_covers(n, edges)
    ivs = brute_force_intervals(poset)
    supports = data.draw(st.lists(st.sampled_from(ivs), min_size=1, max_size=4))
    m = direct_sum(*(interval_module(poset, ms, field) for ms in supports))
    m = m.scramble(np.random.default_rng(seed))
    ms = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    assume(poset.is_connected_subset(ms))
    assert generalized_rank(m, ms) == all_pairs_generalized_rank(m, ms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, LARGEST_P]), st.integers(0, 2**32 - 1),
       st.sets(st.integers(0, 8), min_size=1))
def test_generalized_rank_matches_all_pairs_oracle_on_connected_grid_subsets(field, seed, ids):
    win = grid_poset(3, 3, (0, 0))
    ms = sorted(ids)
    assume(win.is_connected_subset(ms))
    m = random_module(np.random.default_rng(seed), win, p=field)
    assert generalized_rank(m, ms) == all_pairs_generalized_rank(m, ms)


def test_generalized_rank_rejects_ids_outside_the_poset():
    """An id outside 0..n-1 is refused with one message before a bitset
    is built from it; on an 8-chain, bit -1 would land on the top."""
    m = interval_module(FinitePoset.chain(8), range(8))
    for region, bad in (([-1], -1), ([6, 7, 8], 8), (SubposetId((7, 9)), 9)):
        with pytest.raises(ValueError, match=rf"^element id {bad} is not in 0\.\.7$"):
            generalized_rank(m, region)


def test_fast_equals_slow_on_all_intervals(rng):
    win = grid_poset(3, 3, (0, 0))
    ints = enumerate_grid_intervals(win)
    for _ in range(4):
        m = random_module(rng, win)
        for gi in ints:
            assert generalized_rank_fast(m, gi) == generalized_rank(m, gi)


def test_fast_equals_slow_sampled_4x4(rng):
    win = grid_poset(4, 4, (0, 0))
    for _ in range(3):
        m = random_module(rng, win)
        for _ in range(40):
            gi = random_grid_interval(rng, (0, 0, 3, 3))
            assert generalized_rank_fast(m, gi) == generalized_rank(m, gi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, LARGEST_P]),
    st.sampled_from([3, 4]),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(1, 4),
    st.integers(0, 10 ** 9),
    st.data(),
)
def test_fence_memo_matches_oracle_in_any_order(p, side, origin, summands, seed, data):
    """One module answers many intervals in a drawn order, so memoised fence
    sweeps are reused across intervals; each rank must still equal the full
    limit/colimit solve.  A 3x3 window answers all of its intervals, a 4x4
    window a drawn sample with repeats; both also meet intervals of the box
    one ring wider, which leave the window.  Few summands leave points of
    the window zero-dimensional."""
    rng = np.random.default_rng(seed)
    win = grid_poset(side, side, origin)
    m = random_module(rng, win, p, max_summands=summands)
    ints = list(enumerate_grid_intervals(win))
    if side == 4:
        ints = data.draw(st.lists(st.sampled_from(ints), min_size=40, max_size=80))
    ox, oy = origin
    box = (ox - 1, oy - 1, ox + side, oy + side)
    ints += [random_grid_interval(rng, box) for _ in range(12)]
    for gi in data.draw(st.permutations(ints)):
        assert generalized_rank_fast(m, gi) == generalized_rank(m, gi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5]),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(1, 4),
    st.integers(0, 10 ** 9),
    st.data(),
)
def test_antichain_memos_match_oracle_cold_and_warm(p, origin, summands, seed, data):
    """Each drawn interval gets the oracle's rank from a module whose memos
    are cleared before every query (cold) and from one that has already
    answered every interval of the window (warm), so every fence sweep
    and pushed basis it reads was made for other intervals.  Few summands
    leave points zero-dimensional; intervals that leave the window are
    drawn too."""
    rng = np.random.default_rng(seed)
    win = grid_poset(4, 4, origin)
    m = random_module(rng, win, p, max_summands=summands)
    ints = enumerate_grid_intervals(win)
    warm = PModule(m.poset, m.dims, m.maps, p, validate=False)
    for gi in ints:
        generalized_rank_fast(warm, gi)
    drawn = data.draw(st.lists(st.sampled_from(ints), min_size=20, max_size=40))
    ox, oy = origin
    drawn += [random_grid_interval(rng, (ox - 1, oy - 1, ox + 4, oy + 4)) for _ in range(8)]
    for gi in drawn:
        want = generalized_rank(m, gi)
        m._clear_memos()
        assert generalized_rank_fast(m, gi) == want
        assert generalized_rank_fast(warm, gi) == want


def unit_step_fence(module, ext, lower):
    """Oracle: (last id, basis) of a fence swept one unit step at a time
    through every fence point."""
    ids = [module._window_idx[pt] for pt in straight_path(fence_turns(ext, lower))]
    d = module.dims[ids[0]]
    rows = [[int(r == c) for r in range(d)] for c in range(d)]
    for a, b in zip(ids, ids[1:]):
        rows = sweep_step(module, a, b, rows, not lower)
    return ids[-1], _basis(rows, module.dims[ids[-1]], module.p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5]),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(1, 4),
    st.integers(0, 10 ** 9),
)
def test_turning_point_sweep_matches_a_unit_step_sweep(p, origin, summands, seed):
    """After the fast path has answered every interval of a window and
    intervals leaving it, every fence memo entry is the pair a sweep
    through every fence point gives: the same last id and the same
    reduced basis.  Every interval's push of E to the upper fence's end is
    a move entry equal to the reduced product by the transition, and
    every move entry equals a memo-free step of its key's basis.  A
    full-window summand keeps every interval nontrivial, so every
    antichain gets swept."""
    rng = np.random.default_rng(seed)
    ox, oy = origin
    win = grid_poset(4, 4, origin)
    full = grid_interval_module(win, GridInterval.rectangle(origin, (ox + 3, oy + 3)), p)
    m = direct_sum(full, random_module(rng, win, p, max_summands=summands)).scramble(rng)
    ints = list(enumerate_grid_intervals(win))
    ints += [random_grid_interval(rng, (ox - 1, oy - 1, ox + 4, oy + 4)) for _ in range(8)]
    for gi in ints:
        generalized_rank_fast(m, gi)
    mins = {gi.antichains()[0] for gi in ints if m.contains_interval(gi)}
    assert {ext for lower, ext in m._fences if lower} == mins
    bases = m._bases  # subspace id -> reduced basis, read through the intern table
    assert m._sids == {basis: sid for sid, basis in enumerate(bases)}
    for (lower, ext), (last, sid) in m._fences.items():
        assert (last, bases[sid]) == unit_step_fence(m, ext, lower)
    for gi in ints:
        if m.contains_interval(gi):
            low, high = gi.antichains()
            a, e = m._fences[True, low]
            b = m._fences[False, high][0]
            assert bases[m._moves[False, a, b, e]] == _basis(
                mul_rows(bases[e], m.transition(a, b), p), m.dims[b], p)
    for (dual, a, b, sid), moved in m._moves.items():
        assert bases[moved] == _basis(sweep_step(m, a, b, [list(v) for v in bases[sid]], dual),
                                      m.dims[b], p)


def dense_5x5_module():
    """A fixed dense 5x5 module: a full-window summand (so every limit and
    colimit over an interval is nonzero) plus a random module, scrambled."""
    rng = np.random.default_rng(5)
    win = grid_poset(5, 5, (0, 0))
    full = grid_interval_module(win, GridInterval.rectangle((0, 0), (4, 4)))
    return win, direct_sum(full, random_module(rng, win, max_summands=4)).scramble(rng)


def test_fast_path_work_counts_on_a_dense_5x5_module(monkeypatch):
    """gri over int:2,2 sweeps each distinct minimal and maximal antichain
    once, one move per fence leg, pushes E to b by one move per interval,
    takes one step and one reduction per distinct move, eliminates once
    per distinct (E, Q) pair that no full space settles, never lists
    fences per interval and makes no per-member ``RankCache.rank`` call.
    These counts do not depend on the machine."""
    import grinv.modules as modules_mod
    import grinv.posets as posets_mod
    from grinv.invariants import RankCache, gri

    def forbidden(gi):
        raise AssertionError("the fast path listed a fence per interval")

    def per_member(self, region):
        raise AssertionError("gri ranked a member by RankCache.rank")

    for ns in (posets_mod, modules_mod):
        monkeypatch.setattr(ns, "lower_fence", forbidden, raising=False)
        monkeypatch.setattr(ns, "upper_fence", forbidden, raising=False)
    monkeypatch.setattr(RankCache, "rank", per_member)
    calls = {"fence_turns": 0, "_basis": 0, "sweep_step": 0, "pull_rows": 0, "rref_rows": 0}
    for name in calls:
        def counted(*args, _f=getattr(modules_mod, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(modules_mod, name, counted)
    win, m = dense_5x5_module()
    coll = enumerate_grid_intervals(win, 2, 2)
    table = gri(m, coll)
    # one fence listing per sweep; one step and one basis per distinct
    # move, fence legs and pushes together; every rref_rows call beyond
    # the 387 of _basis is a final-step elimination (42 before the pair memo)
    assert calls == {"fence_turns": 250, "_basis": 387, "sweep_step": 387, "pull_rows": 98,
                     "rref_rows": 387 + 13}
    assert len(m._moves) == 387
    # 20 nonzero subspaces and the zero subspace (id 0); 32 (E, Q) pairs
    assert (len(m._bases), len(m._sids), len(m._pair_ranks)) == (21, 21, 32)
    assert min(table.ranks) >= 1 and len(set(table.ranks)) > 2
    idx = win.id_of_coord()
    mins = {gi.antichains()[0] for gi in coll}
    maxs = {gi.antichains()[1] for gi in coll}
    lows = {ext: hit for (lower, ext), hit in m._fences.items() if lower}
    ups = {ext: hit for (lower, ext), hit in m._fences.items() if not lower}
    assert lows.keys() == mins and ups.keys() == maxs
    pushes, pairs = set(), set()
    for gi in coll:
        low, high = gi.antichains()
        a, e = lows[low]
        b, q = ups[high]
        assert b == idx[high[-1]]
        pushes.add((False, a, b, e))
        pairs.add((m._moves[False, a, b, e], q))
    # 825 (minimal antichain, b) pairs reach 249 distinct (a, b, E) pushes
    assert (len(coll), len(mins), len(maxs), len(pushes)) == (2300, 125, 125, 249)
    assert pushes <= m._moves.keys()
    assert pairs == m._pair_ranks.keys()


# the state a module is built with; every other slot is a memo
BUILT_SLOTS = {"poset", "dims", "maps", "p", "_window_idx"}


def test_clear_memos_resets_every_memo_slot():
    """After ranks, path barcodes and barcode bounds have filled every memo
    slot of ``PModule.__slots__`` (transitions, window geometry, fences,
    moves, the intern table, pair ranks and exact spans), ``_clear_memos``
    leaves each as a new module has it.  Two cold ``timed_distance`` runs
    report equal ``queries`` and refill equal memo sizes."""
    from grinv.erosion import ThickeningFamily, timed_distance, union_bbox
    from grinv.zigzag import gri_bounds_from_zib

    win, m = dense_5x5_module()
    memos = [slot for slot in PModule.__slots__ if slot not in BUILT_SLOTS]
    assert memos == ["_trans", "_window_geom", "_fences", "_moves", "_sids", "_bases",
                     "_pair_ranks", "_spans", "_span_candidates"]
    new = PModule(m.poset, m.dims, m.maps, m.p, validate=False)
    # neither thin nor solid, so its lower bound scans the window's intervals
    gri_bounds_from_zib(m, GridInterval(0, ((1, 2), (0, 2), (0, 1))))
    zigzag_barcode(m, ZigzagPath(((0, 0), (1, 0), (1, 1), (0, 1))))
    for gi in enumerate_grid_intervals(win, 1, 2):
        generalized_rank_fast(m, gi)
    assert [slot for slot in memos if getattr(m, slot) == getattr(new, slot)] == []
    m._clear_memos()
    assert all(getattr(m, slot) == getattr(new, slot) for slot in memos)

    def sizes(module):
        return [len(getattr(module, slot) or ()) for slot in memos]

    shifted = shift_module(m, 1)
    coll = ThickeningFamily(2, 2).members_within(union_bbox(m, shifted))
    runs = []
    for _ in range(2):
        witnesses, caches, _ = timed_distance(m, shifted, coll)
        runs.append((witnesses, [c.queries for c in caches], sizes(m), sizes(shifted)))
    assert runs[0] == runs[1] and all(runs[0][1])


def test_functoriality_check_work_counts(monkeypatch):
    """Two products per unit square on a full grid window, none on a chain,
    which has no two paths between any pair of elements, and two for the
    one maximal common lower bound of a poset whose ids do not extend its
    order."""
    import grinv.modules as modules_mod

    calls = []

    def counted(x, y, p, _f=modules_mod.mul_rows):
        calls.append(1)
        return _f(x, y, p)

    win, m = dense_5x5_module()
    chain = random_chain_module(np.random.default_rng(3), 12, 5)
    assert min(m.dims) >= 1
    monkeypatch.setattr(modules_mod, "mul_rows", counted)
    PModule(win, m.dims, m.maps, m.p)
    assert len(calls) == 2 * 4 * 4
    calls.clear()
    PModule(chain.poset, chain.dims, chain.maps, chain.p)
    assert calls == []
    # 4 < 3 < 1, 2 < 0: the largest id below both 1 and 2 is 4, not their bound 3
    tall = FinitePoset.from_covers(5, [(4, 3), (3, 1), (3, 2), (1, 0), (2, 0)])
    PModule(tall, [1] * 5, {e: [[1]] for e in tall.covers})
    assert len(calls) == 2


def test_fast_path_alarm_fires_when_a_fence_leaves_the_interval():
    """The per-interval alarm: a staircase whose minimal points (0, 1) and
    (1, 0) have their join (1, 1) outside it raises before any sweep."""
    win, m = dense_5x5_module()
    with pytest.raises(AssertionError, match=r"fence point \(1, 1\) escaped the interval"):
        generalized_rank_fast(m, _staircase(0, ((1, 1), (0, 0))))
    assert not m._fences


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3]),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.sampled_from([3, 4]),
    st.integers(1, 4),
    st.tuples(st.integers(-2, 1), st.integers(-2, 1), st.integers(1, 6), st.integers(1, 6)),
    st.one_of(st.none(), st.integers(1, 3)),
    st.one_of(st.none(), st.integers(1, 3)),
    st.integers(0, 10 ** 9),
)
def test_box_walk_ranks_match_per_member_ranks(p, origin, side, summands, frame, mm, xx, seed):
    """Ranks over a listed box, from one walk of it, equal each member's
    own fast rank on a fresh copy of the module: boxes off the origin,
    offset from the window or larger than it (a member leaving the window
    reads 0), with budgets, and few summands, which leave points of the
    window zero-dimensional."""
    dx, dy, w, h = frame
    assume(count_grid_intervals(w, h, mm, xx) <= 4_000)
    rng = np.random.default_rng(seed)
    ox, oy = origin
    win = grid_poset(side, side, origin)
    m = random_module(rng, win, p, max_summands=summands)
    fresh = PModule(m.poset, m.dims, m.maps, p, validate=False)
    coll = canonical_grid_intervals((ox + dx, oy + dy, ox + dx + w - 1, oy + dy + h - 1), mm, xx)
    got = generalized_ranks_fast(m, coll)
    assert got == [generalized_rank_fast(fresh, gi) for gi in coll]
    assert not any(r for gi, r in zip(coll, got) if not m.contains_interval(gi))


@pytest.mark.parametrize("build, budgets", [
    (dense_5x5_module, (2, 2)),
    (lambda: (grid_poset(4, 4), random_module(np.random.default_rng(7), grid_poset(4, 4), 3, 2)),
     (None, None)),
])
def test_box_and_list_gri_fill_the_same_memos(build, budgets):
    """gri over a listed box and gri over the same members as a plain list
    give equal tables, equal fence keys, equal numbers of moves, pair ranks
    and interned bases (their ids may be numbered differently) and equal
    rank-cache queries; the box's cache then answers members one by one,
    and as a list, as the list's does."""
    from grinv.invariants import RankCache, gri

    win, m = build()
    coll = enumerate_grid_intervals(win, *budgets)
    twin = PModule(m.poset, m.dims, m.maps, m.p, validate=False)
    boxed, listed = RankCache(m), RankCache(twin)
    table = gri(m, coll, boxed)
    assert table.ranks == gri(twin, list(coll), listed).ranks
    assert m._fences.keys() == twin._fences.keys()
    sizes = [(len(mod._moves), len(mod._pair_ranks), len(mod._bases)) for mod in (m, twin)]
    assert sizes[0] == sizes[1] and boxed.queries == listed.queries == len(coll)
    sample = list(coll[::7]) + [GridInterval.rectangle((-1, 0), (0, 0))]
    assert [boxed.rank(gi) for gi in sample] == [listed.rank(gi) for gi in sample]
    assert boxed.ranks(list(reversed(coll))) == list(reversed(table.ranks))
    assert boxed.queries == listed.queries == len(coll) + 1


def test_box_on_a_filled_cache_takes_the_list_route(monkeypatch):
    """Only an empty cache ranks a box by its walk: one that holds a member
    ranks the rest of the box as plain misses."""
    import grinv.posets as posets_mod
    from grinv.invariants import RankCache

    win, m = dense_5x5_module()
    coll = enumerate_grid_intervals(win, 1, 1)
    cache = RankCache(m)
    first = cache.rank(coll[3])
    monkeypatch.setattr(posets_mod, "_box_steps", None)  # the walk would fail at once
    assert cache.ranks(coll) == [generalized_rank_fast(m, gi) for gi in coll]
    assert cache.ranks(coll)[3] == first and cache.queries == len(coll)


def test_lower_fence_ends_below_the_upper_fence_end():
    """The fast path maps the lower fence's last point a into the upper
    fence's last point b: a is the start of the bottom row, b the rightmost
    maximal point, and a <= b."""
    for gi in iter_grid_intervals((0, 0, 5, 5)):
        a, b = lower_fence(gi)[-1], upper_fence(gi)[-1]
        x0, x1 = gi.rows[0]
        assert a == (x0, gi.y0) and b[0] == x1 and b == gi.antichains()[1][-1]
        assert a[0] <= b[0] and a[1] <= b[1]


def grid_slice_trivial(module: PModule, grid: np.ndarray, gi: GridInterval) -> bool:
    """The trivial-zero rule read off the dimension grid, one slice per row."""
    ox, oy = module.window_origin_size()[0]
    h, w = grid.shape
    x0, y0, x1, y1 = gi.bbox()
    if not (ox <= x0 and oy <= y0 and x1 < ox + w and y1 < oy + h):
        return True
    return any(
        not grid[gi.y0 + i - oy, a - ox : b - ox + 1].all() for i, (a, b) in enumerate(gi.rows)
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 2), min_size=9, max_size=9),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
)
def test_trivial_zero_filter_matches_grid_slices(dims, origin):
    win = grid_poset(3, 3, origin)
    m = PModule(win, dims, {})
    ox, oy = origin
    grid = np.zeros((3, 3), dtype=np.int64)
    for i, (x, y) in enumerate(win.grid_coords):
        grid[y - oy, x - ox] = dims[i]
    # every interval of a fixed 4x4 box that the shifted window only partly covers
    for gi in iter_grid_intervals((0, 0, 3, 3)):
        assert _rank_forced_zero(m._window_geometry(), gi) == grid_slice_trivial(m, grid, gi)


def test_rectangle_rank_equals_corner_map_rank(rng):
    win = grid_poset(4, 4, (0, 0))
    for _ in range(5):
        m = random_module(rng, win)
        idx = win.id_of_coord()
        for _ in range(6):
            x0, y0 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            x1, y1 = int(rng.integers(x0, 4)), int(rng.integers(y0, 4))
            rect = GridInterval.rectangle((x0, y0), (x1, y1))
            lo, hi = idx[(x0, y0)], idx[(x1, y1)]
            t = as_matrix(m.transition(lo, hi), m.dims[hi], m.dims[lo])
            assert generalized_rank_fast(m, rect) == rank(t, m.p)


# -- serialisation --------------------------------------------------------------------


def test_module_text_round_trip(rng):
    win = grid_poset(3, 2, (0, 0))
    m = random_module(rng, win, p=3, allow_nondecomposable=False)
    back = PModule.from_text(m.to_text())
    assert back.dims == m.dims
    assert back.p == m.p
    for e in win.covers:
        assert np.array_equal(back._edge(*e), m._edge(*e))


def test_module_text_round_trip_abstract_poset(rng):
    p = random_poset(rng, 6)
    from conftest import brute_force_intervals

    ivs = brute_force_intervals(p)
    m = interval_module(p, ivs[int(rng.integers(0, len(ivs)))])
    back = PModule.from_text(m.to_text())
    assert back.dims == m.dims


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_module_files_round_trip_byte_for_byte(name):
    for module in build_fixture(name).modules.values():
        text = module.to_text()
        assert PModule.from_text(text).to_text() == text


# -- int rows against numpy oracles -------------------------------------------------

FIELDS = st.sampled_from([2, 3, 5, LARGEST_P])


def draw_module(data, field, seed):
    """A functorial module, usually with zero-dimensional points: a random
    grid module, a scrambled sum of interval modules on a grid window
    without one point or on an abstract poset, or a chain module with
    arbitrary maps."""
    rng = np.random.default_rng(seed)
    kind = data.draw(st.sampled_from(["grid", "holed grid", "abstract", "chain"]))
    if kind in ("grid", "holed grid"):
        w, h = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3))
        origin = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        if kind == "grid":
            return random_module(rng, grid_poset(w, h, origin), p=field)
        hole = data.draw(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)))
        poset = holed_window(w, h, hole, origin)
    else:
        n = data.draw(st.integers(2, 6))
        if kind == "chain":
            return random_chain_module(rng, n, field)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        leq = FinitePoset.from_covers(n, data.draw(st.lists(st.sampled_from(pairs),
                                                            max_size=2 * n))).leq
        # relabel, so that ids are not always a linear extension of the order
        perm = data.draw(st.permutations(range(n)))
        poset = matrix_poset(leq[np.ix_(perm, perm)])
    from conftest import brute_force_intervals

    supports = data.draw(st.lists(st.sampled_from(brute_force_intervals(poset)), min_size=1,
                                  max_size=3))
    return direct_sum(*(interval_module(poset, ms, field) for ms in supports)).scramble(rng)


def edge_matrix(module, a, b):
    return as_matrix(module._edge(a, b), module.dims[b], module.dims[a])


def path_composites(module):
    """Oracle: {(a, b): {bytes: matrix}}, the distinct numpy products of the
    maps along every cover path from a to b (a single one iff functorial)."""
    p = module.p
    up = {}
    for a, b in module.poset.covers:
        up.setdefault(a, []).append(b)
    out = {}

    def walk(a, c, mat):
        out.setdefault((a, c), {})[mat.tobytes()] = mat
        for d in up.get(c, ()):
            walk(a, d, (edge_matrix(module, c, d) @ mat) % p)

    for a in range(module.poset.n):
        walk(a, a, np.eye(module.dims[a], dtype=np.int64))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(FIELDS, st.integers(0, 2**32 - 1), st.data())
def test_transition_rows_match_numpy_path_composites(field, seed, data):
    m = draw_module(data, field, seed)
    for (a, b), mats in path_composites(m).items():
        (want,) = mats.values()
        assert m.transition(a, b) == want.tolist()
        assert m.transition(a, b, transpose=True) == want.T.tolist()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(FIELDS, st.integers(0, 2**32 - 1), st.data())
def test_direct_sum_rows_are_numpy_blocks(field, seed, data):
    m = draw_module(data, field, seed)
    n = m.scramble(np.random.default_rng(seed + 1))
    s = m.direct_sum(n)
    for a, b in m.poset.covers:
        want = np.zeros((s.dims[b], s.dims[a]), dtype=np.int64)
        want[: m.dims[b], : m.dims[a]] = edge_matrix(m, a, b)
        want[m.dims[b]:, m.dims[a]:] = edge_matrix(n, a, b)
        assert s._edge(a, b) == want.tolist()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(FIELDS, st.integers(0, 2**32 - 1), st.data())
def test_scramble_rows_are_numpy_basis_changes(field, seed, data):
    """Each map of the scrambled copy is B M A^-1, with the basis changes A,
    B drawn from a generator seeded alike."""
    m = draw_module(data, field, seed)
    s = m.scramble(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    bas = [random_invertible(rng, d, field) for d in m.dims]
    for a, b in m.poset.covers:
        want = ((bas[b].a @ edge_matrix(m, a, b)) % field @ bas[a].inverse().a) % field
        assert s._edge(a, b) == want.tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(FIELDS, st.integers(0, 2**32 - 1), st.data())
def test_functoriality_verdict_matches_path_composites(field, seed, data):
    """Replace one nonzero map of a functorial module by a random one: the
    module is accepted iff every pair's path composites still agree.  One
    rule serves every poset: paths into an element through two of its lower
    covers must agree at the maximal common lower bounds of the two."""
    m = draw_module(data, field, seed)
    live = [(a, b) for a, b in m.poset.covers if m.dims[a] and m.dims[b]]
    assume(live)
    a, b = data.draw(st.sampled_from(live))
    maps = {e: m._edge(*e) for e in m.poset.covers}
    maps[(a, b)] = np.random.default_rng(seed).integers(0, field, (m.dims[b], m.dims[a]))
    bad = PModule(m.poset, m.dims, maps, field, validate=False)
    if all(len(mats) == 1 for mats in path_composites(bad).values()):
        PModule(m.poset, m.dims, maps, field)
    else:
        with pytest.raises(ValueError, match="functoriality"):
            PModule(m.poset, m.dims, maps, field)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(FIELDS, st.integers(0, 2**32 - 1), st.data())
def test_module_files_round_trip_byte_for_byte(field, seed, data):
    text = draw_module(data, field, seed).to_text()
    assert PModule.from_text(text).to_text() == text
