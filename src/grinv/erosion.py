"""Erosion distance between rank invariants of grid modules.

The collection is a thickening-closed family of plane intervals; the
working finite slice is the set of members inside the union bounding
box of the two windows: a grid module is extended by zero, so every
rank over an interval leaving both windows vanishes and the erosion
inequalities hold there automatically.  Ranks never increase under containment, so
a member whose two ranks agree never bounds the radius, and for the
others the one inequality that can fail is monotone in the radius: the
distance, and a witness for each radius below it, is found in one walk
of the collection with a running radius.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .invariants import RankCache
from .modules import PModule
from .posets import CanonicalMembers, canonical_grid_intervals


@dataclass(frozen=True)
class ThickeningFamily:
    """Finite plane intervals with bounded minimal/maximal point counts.

    Closed under thickenings: dilation only merges extreme points, so
    the budgets cannot grow.  (1, 1) is the family of rectangles.
    """

    max_min_pts: int | None = None
    max_max_pts: int | None = None

    def members_within(self, bbox) -> CanonicalMembers:
        return canonical_grid_intervals(bbox, self.max_min_pts, self.max_max_pts)


def union_bbox(m1: PModule, m2: PModule) -> tuple[int, int, int, int]:
    (ox1, oy1), (w1, h1) = m1.window_origin_size()
    (ox2, oy2), (w2, h2) = m2.window_origin_size()
    return (
        min(ox1, ox2),
        min(oy1, oy2),
        max(ox1 + w1 - 1, ox2 + w2 - 1),
        max(oy1 + h1 - 1, oy2 + h2 - 1),
    )


def verify_erosion(m1: PModule, m2: PModule, collection, eps: int,
                   cache1: RankCache | None = None, cache2: RankCache | None = None):
    """Check both erosion inequalities at radius eps over the collection.

    Returns None when every member passes, else the first witness
    interval in canonical order (one whose thickened rank on one side
    exceeds the other side's rank).
    """
    cache1 = cache1 or RankCache(m1)
    cache2 = cache2 or RankCache(m2)
    for gi in collection:
        thick = gi.thicken(eps)
        r1, r2 = cache1.rank(gi), cache2.rank(gi)
        if cache1.rank(thick) > r2 or cache2.rank(thick) > r1:
            return gi
    return None


def erosion_distance(m1: PModule, m2: PModule, collection, caches=None) -> int:
    """Least radius admitting an erosion: the number of :func:`erosion_witnesses`."""
    return sum(1 for _ in erosion_witnesses(m1, m2, collection, caches))


def erosion_witnesses(m1: PModule, m2: PModule, collection, caches=None):
    """Yield, for each radius eps below the erosion distance, the first
    member that fails at eps, as ``verify_erosion`` finds it.

    The collection's ranks come from one ``RankCache.ranks`` call per
    module, then one walk with a running radius eps from 0.  I lies
    inside I^eps and ranks never increase under containment, so a member
    with r1(I) = r2(I) passes at every radius.  Otherwise, with
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
    if not isinstance(collection, (list, tuple)):
        collection = list(collection)
    hi = max(bbox[2] - bbox[0], bbox[3] - bbox[1]) + 1
    eps = 0
    for gi, r1, r2 in zip(collection, c1.ranks(collection), c2.ranks(collection)):
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


@dataclass(frozen=True)
class ErosionStudyRow:
    side: int
    max_min_pts: int
    max_max_pts: int
    collection_size: int
    distance: int
    rank_queries: int
    wall_seconds: float


STUDY_REPEATS = 5


def timed_distance(m1: PModule, m2: PModule, collection, repeats: int = 1):
    """:func:`erosion_witnesses` from cold state: (witnesses, caches, seconds).

    The erosion distance is the number of witnesses.  Each of the repeats
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
    the erosion distance is computed; the row records the least wall
    time over ``STUDY_REPEATS`` cold runs (:func:`timed_distance`) and
    the number of distinct rank queries of one run.
    """
    rows = []
    for side in sides:
        m1, m2 = module_builder(side)
        for mm, xx in budgets:
            collection = ThickeningFamily(mm, xx).members_within(union_bbox(m1, m2))
            witnesses, caches, dt = timed_distance(m1, m2, collection, STUDY_REPEATS)
            rows.append(
                ErosionStudyRow(side, mm, xx, len(collection), len(witnesses),
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
