import numpy as np
import pytest

from grinv import posets
from grinv.posets import FinitePoset, grid_poset


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def grid22():
    return grid_poset(2, 2, (0, 0))


@pytest.fixture(scope="session")
def grid33():
    return grid_poset(3, 3, (0, 0))


@pytest.fixture(scope="session")
def chain4():
    return FinitePoset.chain(4)


def matrix_poset(leq, grid_coords=None):
    """The poset of a boolean order matrix, closed from its comparable
    pairs by ``FinitePoset.from_covers``; the matrix must be that order."""
    leq = np.asarray(leq, dtype=bool)
    pairs = zip(*np.nonzero(leq & ~np.eye(len(leq), dtype=bool)))
    poset = FinitePoset.from_covers(len(leq), pairs, grid_coords)
    assert np.array_equal(poset.leq, leq), "not a partial order"
    return poset


def brute_force_intervals(poset):
    """Independent oracle: filter all nonempty subsets by the definition."""
    from itertools import combinations

    out = []
    for size in range(1, poset.n + 1):
        for ms in combinations(range(poset.n), size):
            if poset.is_interval_subset(ms):
                out.append(ms)
    return out


def brute_force_connected(poset):
    from itertools import combinations

    out = []
    for size in range(1, poset.n + 1):
        for ms in combinations(range(poset.n), size):
            if poset.is_connected_subset(ms):
                out.append(ms)
    return out


def member_ids(poset, item):
    """The sorted element ids of a member: a SubposetId's own, or the ids
    of a plane interval's points on a grid poset, whose ids run in
    lexicographic point order."""
    if hasattr(item, "members"):
        return item.members
    idx = poset.id_of_coord()
    return tuple(sorted(idx[pt] for pt in item.points()))


@pytest.fixture
def frame_key_calls(monkeypatch):
    """The sizes of the collections keyed by ``posets._frame_keys``, one per call."""
    calls = []
    real = posets._frame_keys

    def counting(intervals):
        calls.append(len(intervals))
        return real(intervals)

    monkeypatch.setattr(posets, "_frame_keys", counting)
    return calls


@pytest.fixture
def skewed_box_steps(monkeypatch):
    """Step tables for the walks over a box that go from a row starting at
    a > 0 to the single point (a - 1, a - 1): its start and end both drop
    past the old start, so the join of the two minimal points leaves the
    staircase.  The staircases of a box are then neither valid nor its own."""
    class Skewed(dict):
        def __missing__(self, row):
            a = row[0]
            return (((a - 1, a - 1), True, True),) if a > 0 else ()

        def count(self, row):
            return len(self[row])

    monkeypatch.setattr(posets, "_box_steps", lambda x0: [[Skewed()] * 2] * 2)
