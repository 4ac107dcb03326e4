"""Erosion distance between rank invariants of grid modules.

The collection is a thickening-closed family of plane intervals.  A grid
module is extended by zero, so a member that leaves a module's window
has rank 0 there: only the members inside a window are ranked against
that window's module, and a member outside both windows passes the
erosion inequalities at every radius.  The CLI and the study therefore
walk the family's members inside either window
(:meth:`ThickeningFamily.members_near`), not the whole union bounding
box.  Ranks never increase under containment, so a member whose two
ranks agree never bounds the radius, and for the others the one
inequality that can fail is monotone in the radius: the distance, and a
witness for each radius below it, is found in one walk of the
collection with a running radius.
"""

from __future__ import annotations

import math
import time

from .invariants import RankCache
from .modules import PModule, _window_holds
from .posets import CanonicalMembers, Frozen, canonical_grid_intervals, canonical_members, count_grid_intervals


class ThickeningFamily(Frozen):
    """Finite plane intervals with bounded minimal/maximal point counts.

    Closed under thickenings: dilation only merges extreme points, so
    the budgets cannot grow.  (1, 1) is the family of rectangles.
    """

    __slots__ = _fields = ("max_min_pts", "max_max_pts")

    def __init__(self, max_min_pts: int | None = None, max_max_pts: int | None = None):
        object.__setattr__(self, "max_min_pts", max_min_pts)
        object.__setattr__(self, "max_max_pts", max_max_pts)

    def members_within(self, bbox) -> CanonicalMembers:
        return canonical_grid_intervals(bbox, self.max_min_pts, self.max_max_pts)

    def members_near(self, m1: PModule, m2: PModule) -> CanonicalMembers:
        """The members inside either module's window, in canonical order.

        These are the members of ``members_within(union_bbox(m1, m2))``
        whose rank can be non-zero for one of the modules, in the same
        order.  When one window holds the other, its members are the
        answer, copied without the full-box label of ``members_within``
        (``CanonicalMembers.box``), so the result is the same kind of
        collection in every case; otherwise m2's window adds the members
        that leave m1's.
        """
        box1, box2 = _window_bbox(m1), _window_bbox(m2)
        if _box_holds(box1, box2):
            return CanonicalMembers(self.members_within(box1))
        if _box_holds(box2, box1):
            return CanonicalMembers(self.members_within(box2))
        geom1 = m1._window_geometry()
        rest = [gi for gi in self.members_within(box2) if not _window_holds(geom1, gi)]
        return canonical_members([*self.members_within(box1), *rest])


def _window_bbox(module: PModule) -> tuple[int, int, int, int]:
    """The box (x0, y0, x1, y1) of the module's grid window."""
    (ox, oy), (w, h) = module.window_origin_size()
    return ox, oy, ox + w - 1, oy + h - 1


def _box_holds(outer, inner) -> bool:
    return outer[0] <= inner[0] and outer[1] <= inner[1] and inner[2] <= outer[2] and inner[3] <= outer[3]


def union_bbox(m1: PModule, m2: PModule) -> tuple[int, int, int, int]:
    b1, b2 = _window_bbox(m1), _window_bbox(m2)
    return min(b1[0], b2[0]), min(b1[1], b2[1]), max(b1[2], b2[2]), max(b1[3], b2[3])


def verify_erosion(m1: PModule, m2: PModule, collection, eps: int,
                   cache1: RankCache | None = None, cache2: RankCache | None = None):
    """Check both erosion inequalities at radius eps over the collection.

    Returns None when every member passes, else the first witness
    interval in canonical order (one whose thickened rank on one side
    exceeds the other side's rank).  A member outside a module's window
    has rank 0 there, and so has its thickening, which contains it: such
    ranks are not queried, and a member outside both windows passes.
    """
    cache1 = cache1 or RankCache(m1)
    cache2 = cache2 or RankCache(m2)
    geom1, geom2 = m1._window_geometry(), m2._window_geometry()
    for gi in collection:
        in1, in2 = _window_holds(geom1, gi), _window_holds(geom2, gi)
        if not (in1 or in2):
            continue
        thick = gi.thicken(eps)
        r1 = cache1.rank(gi) if in1 else 0
        r2 = cache2.rank(gi) if in2 else 0
        if (in1 and cache1.rank(thick) > r2) or (in2 and cache2.rank(thick) > r1):
            return gi
    return None


def erosion_distance(m1: PModule, m2: PModule, collection, caches=None) -> int:
    """Least radius admitting an erosion: the number of :func:`erosion_witnesses`."""
    return sum(1 for _ in erosion_witnesses(m1, m2, collection, caches))


def erosion_witnesses(m1: PModule, m2: PModule, collection, caches=None):
    """Yield, for each radius eps below the erosion distance, the first
    member that fails at eps, as ``verify_erosion`` finds it.

    One pass splits off the members inside each module's window; each
    module ranks only its own window's members, in one ``RankCache.ranks``
    call, and every other member has rank 0 there (extension by zero).  A
    member outside both windows is neither ranked nor filed.  Then one
    walk with a running radius eps from 0 reads the ranks by position.
    I lies inside I^eps and ranks never increase under containment, so a
    member with r1(I) = r2(I) passes at every radius.  Otherwise, with
    r_small(I) < r_big(I), only r_big(I^eps) <= r_small(I) can fail, and
    it stays true once it holds: eps is raised until the member passes,
    and as every earlier member passes at eps, it is the first to fail.

    Both modules are extended by zero, so one past the bounding-box
    diameter every thickened interval has rank 0 and passes; a radius
    beyond that bound raises ``AssertionError`` (an internal alarm).
    """
    if m1.p != m2.p:
        raise ValueError("field mismatch")
    bbox = union_bbox(m1, m2)
    if caches is None:
        caches = (RankCache(m1), RankCache(m2))
    c1, c2 = caches
    # the ``_window_holds`` test of both windows, with the member's bounds
    # read once: its rows span y0 <= y < top, and x from left to right;
    # (ex, ey) is one past a window's upper-right corner
    (ox1, oy1), (w1, h1) = m1.window_origin_size()
    (ox2, oy2), (w2, h2) = m2.window_origin_size()
    ex1, ey1, ex2, ey2 = ox1 + w1, oy1 + h1, ox2 + w2, oy2 + h2
    near, in1, in2 = [], [], []  # near: (member, position in in1, position in in2)
    for gi in collection:
        rows, y0 = gi.rows, gi.y0
        top, left, right = y0 + len(rows), rows[-1][0], rows[0][1]
        i = len(in1) if oy1 <= y0 and top <= ey1 and ox1 <= left and right < ex1 else -1
        j = len(in2) if oy2 <= y0 and top <= ey2 and ox2 <= left and right < ex2 else -1
        if i < 0 and j < 0:
            continue
        near.append((gi, i, j))
        if i >= 0:
            in1.append(gi)
        if j >= 0:
            in2.append(gi)
    # position -1 reads the trailing 0: the rank of a member outside the window
    ranks1, ranks2 = c1.ranks(in1) + [0], c2.ranks(in2) + [0]
    hi = max(bbox[2] - bbox[0], bbox[3] - bbox[1]) + 1
    eps = 0
    for gi, i, j in near:
        r1, r2 = ranks1[i], ranks2[j]
        if r1 == r2:
            continue
        small, big = (r1, c2) if r1 < r2 else (r2, c1)
        while big.rank(gi.thicken(eps)) > small:
            yield gi
            eps += 1
            if eps > hi:
                raise AssertionError(f"erosion radius passed its bound {hi}")


def shift_module(module: PModule, delta: int) -> PModule:
    """The diagonal shift: the same spaces and maps read delta steps up-right.

    The value at a point is the original value at the point plus
    (delta, delta), so the support window translates down-left; the
    original transition maps interleave the module with its shift, which
    is what makes the shifted pair a stability fixture.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if module.poset.grid_coords is None:
        raise ValueError("shift needs a grid module")
    coords = tuple((x - delta, y - delta) for x, y in module.poset.grid_coords)
    shifted = module.poset.with_coords(coords)
    return PModule(shifted, module.dims, module.maps, module.p, validate=False)


class ErosionStudyRow(Frozen):
    __slots__ = _fields = ("side", "max_min_pts", "max_max_pts", "collection_size", "distance",
                           "rank_queries", "wall_seconds")

    def __init__(self, side: int, max_min_pts: int, max_max_pts: int, collection_size: int,
                 distance: int, rank_queries: int, wall_seconds: float):
        for name, value in zip(self._fields, (side, max_min_pts, max_max_pts, collection_size,
                                              distance, rank_queries, wall_seconds)):
            object.__setattr__(self, name, value)


STUDY_REPEATS = 5


def timed_distance(m1: PModule, m2: PModule, collection, repeats: int = 1):
    """:func:`erosion_witnesses` from cold state: (witnesses, caches, seconds).

    The erosion distance is the number of witnesses; the caches' queries
    count the members inside each module's window plus the distinct
    thickenings it ranked (see :func:`erosion_witnesses`).  Each of the repeats
    clears both modules' memos (see ``PModule._clear_memos``) and starts
    from fresh rank caches, so every repeat does the whole work;
    ``seconds`` is the least wall time among them, which a scheduling or
    GC pause in one repeat cannot inflate.  The witnesses and caches
    returned are the first repeat's, so the caches' misses count the work
    of a single run.
    """
    seconds = math.inf
    for k in range(repeats):
        m1._clear_memos()
        m2._clear_memos()
        run = (RankCache(m1), RankCache(m2))
        t0 = time.perf_counter()
        found = list(erosion_witnesses(m1, m2, collection, caches=run))
        seconds = min(seconds, time.perf_counter() - t0)
        if k == 0:
            witnesses, caches = found, run
    return witnesses, caches, seconds


def erosion_study(module_builder, sides, budgets) -> list[ErosionStudyRow]:
    """Timing/work table for the efficiency-versus-power trade-off.

    ``module_builder(side)`` must return a pair of modules on an
    side x side window.  For each window side and each (min, max) budget
    the erosion distance is computed over the family's members inside
    either window (:meth:`ThickeningFamily.members_near`); the row
    records the family's size over the union bounding box, the least
    wall time over ``STUDY_REPEATS`` cold runs (:func:`timed_distance`)
    and the number of distinct rank queries of one run.
    """
    rows = []
    for side in sides:
        m1, m2 = module_builder(side)
        x0, y0, x1, y1 = union_bbox(m1, m2)
        for mm, xx in budgets:
            size = count_grid_intervals(x1 - x0 + 1, y1 - y0 + 1, mm, xx)
            collection = ThickeningFamily(mm, xx).members_near(m1, m2)
            witnesses, caches, dt = timed_distance(m1, m2, collection, STUDY_REPEATS)
            rows.append(
                ErosionStudyRow(side, mm, xx, size, len(witnesses),
                                caches[0].queries + caches[1].queries, dt)
            )
    return rows


def study_table(rows: list[ErosionStudyRow]) -> str:
    head = "side\tmin_pts\tmax_pts\tcollection\tdistance\trank_queries\tseconds"
    out = [head]
    for r in rows:
        out.append(
            f"{r.side}\t{r.max_min_pts}\t{r.max_max_pts}\t{r.collection_size}"
            f"\t{r.distance}\t{r.rank_queries}\t{r.wall_seconds:.4f}"
        )
    return "\n".join(out)
