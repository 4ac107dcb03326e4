import numpy as np
import pytest

from grinv.fixtures import (
    FIXTURES,
    admissible_shifts,
    build_fixture,
    cap_pattern,
    claim2_supersets,
    serrated_interval,
)
from grinv.invariants import gri
from grinv.modules import generalized_rank, generalized_rank_fast, pullback
from grinv.posets import enumerate_grid_intervals


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_builds_and_describes(name):
    kwargs = {"window": 4} if name in ("thm-tame-counterexample", "anti-diagonal") else {}
    bundle = build_fixture(name, **kwargs)
    assert bundle.name == name
    assert bundle.description
    assert bundle.modules


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_builds_at_other_characteristic(name):
    kwargs = {"window": 4} if name in ("thm-tame-counterexample", "anti-diagonal") else {}
    bundle = build_fixture(name, p=5, **kwargs)
    for module in bundle.modules.values():
        assert module.p == 5


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        build_fixture("nope")


def test_grid3_pair_equal_tables_any_characteristic():
    for p in (2, 3, 5):
        fx = build_fixture("grid3-zib-pair", p=p)
        ints = enumerate_grid_intervals(fx.poset)
        assert gri(fx.modules["m"], ints).ranks == gri(fx.modules["n"], ints).ranks


def test_counterexample_is_a_pullback():
    fx = build_fixture("thm-tame-counterexample", window=6)
    m = fx.modules["m"]
    rebuilt = pullback(fx.modules["quotient"], fx.extras["projection"], fx.poset)
    assert rebuilt.dims == m.dims
    for e in fx.poset.covers:
        assert np.array_equal(rebuilt._edge(*e), m._edge(*e))


def test_admissible_shifts_and_patterns():
    assert admissible_shifts(4) == (0,)
    assert admissible_shifts(6) == (-1, 0, 1)
    assert admissible_shifts(8) == (-2, -1, 0, 1, 2)
    # the two skipped cap points never appear
    for window in (4, 6, 8):
        for a in admissible_shifts(window):
            caps = cap_pattern(a, window)
            assert a not in caps and (a + 1) not in caps
            assert all((x - a) % 2 == 1 or x >= a + 2 for x in caps)


def test_serrated_intervals_have_rank_one():
    for window in (4, 6):
        fx = build_fixture("thm-tame-counterexample", window=window)
        m = fx.modules["m"]
        for a in fx.extras["shifts"]:
            gi = serrated_interval(a, window)
            assert generalized_rank(m, gi) == 1
            assert generalized_rank_fast(m, gi) == 1


def test_serrated_section_space_is_the_all_ones_line():
    # the only section (up to scale) is 1 on every line and (1,1) on every plane
    from grinv.modules import limit

    fx = build_fixture("thm-tame-counterexample", window=6)
    idx = fx.poset.id_of_coord()
    for gi in fx.intervals.values():
        sub = fx.modules["m"].restrict(sorted(idx[pt] for pt in gi.points()))
        sec = limit(sub)
        assert sec.dim == 1
        assert set(sec.vectors[0]) == {1}


def test_staircase_summand_not_interval_realizable():
    from grinv.fixtures import staircase_zz_pair, _module_from_pattern
    from grinv.invariants import gpd, gri

    fx = staircase_zz_pair()
    w = _module_from_pattern(
        fx.poset,
        {(0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1},
        {
            ((0, 1), (1, 1)): [[1], [0]], ((1, 1), (2, 1)): [[1, 1]],
            ((1, 0), (1, 1)): [[0], [1]], ((1, 0), (2, 0)): [[1], [1]],
            ((2, 0), (2, 1)): [[1, 0]], ((2, 0), (3, 0)): [[0, 1]],
        },
        2,
    )
    diagram = gpd(gri(w, enumerate_grid_intervals(fx.poset)))
    assert any(v < 0 for _, v in diagram.support)


def test_claim2_supersets_all_rank_zero(rng):
    fx = build_fixture("thm-tame-counterexample", window=6)
    m = fx.modules["m"]
    samples = claim2_supersets(fx, rng, count=25)
    assert len(samples) == 25
    base_sets = {frozenset(fx.poset.id_of_coord()[pt] for pt in gi.points())
                 for gi in fx.intervals.values()}
    for members in samples:
        assert frozenset(members) not in base_sets  # strict supersets
        assert fx.poset.is_connected_subset(members)
        assert generalized_rank(m, members) == 0


def test_anti_diagonal_fixture_ranks():
    fx = build_fixture("anti-diagonal", window=4)
    m = fx.modules["m"]
    from grinv.posets import GridInterval

    wall = GridInterval.from_points([(0, 0)])
    above = GridInterval.from_points([(1, 1)])
    assert generalized_rank(m, wall) == 2
    assert generalized_rank(m, above) == 1
    both = GridInterval.from_points([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert generalized_rank(m, both) == 1


def test_staircase_pair_ranks_all_characteristics():
    for p in (2, 3, 5):
        fx = build_fixture("staircase-zz-pair", p=p)
        stair = fx.intervals["I"]
        assert generalized_rank(fx.modules["m"], stair) == 1
        assert generalized_rank(fx.modules["n"], stair) == 0
