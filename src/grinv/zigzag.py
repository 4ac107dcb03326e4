"""Paths in the integer plane, zigzag restrictions, and barcodes.

A path is a sequence of pairwise-comparable consecutive points; faithful
paths take unit steps, simple paths never revisit a point.  Restricting
a grid module to a path gives a zigzag module (over the index poset of
the path, not the induced subposet), which is always
interval-decomposable; its barcode is computed here by inclusion-
exclusion over subpath ranks.  A grid module is extended by zero, so a
path may leave the module's points, which then carry the zero space.

Subpath ranks come from one sweep per left end i: while j advances, a
map E from the limit of the zigzag over i..j into V_j and a map Q from
V_j onto its colimit are updated by one pullback or pushout per step,
and rank(i, j) = rank(Q E), because the limit-to-colimit map factors
through every vertex.  A zero rank or a zero space ends the sweep.  E
and Q are ids of reduced bases in the module's intern table: each step
is a move of the module's memo (`modules._move`) and each rank an entry
of its memo of (E, Q) pairs (`modules._pair_rank`), both shared by every
path and by the fast path's fences.

Fences (min_zz / max_zz), tameness, solidity and thinness connect path
ranks to interval ranks: over a tame path the zigzag rank equals the
generalized rank of the interval hull, which is both the fast
computation route and the bridge for estimating either invariant from
the other.  Each path holds one lazy table of (hull, tameness) per
index span and one bracket memo of hull ranks and upper brackets per
span under the last rank function it served, so the brackets of every
span of an n-point path take O(n^2) interval-rank lookups between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import inf

from .modules import PModule, _identity, _intern, _move, _pair_rank
from .posets import (
    FinitePoset,
    GridInterval,
    _count_past,
    _staircase,
    canonical_grid_intervals,
    content_lines,
    fence_turns,
    lower_fence,
    straight_path,
    upper_fence,
)

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _comparable(p, q) -> bool:
    return (p[0] <= q[0] and p[1] <= q[1]) or (q[0] <= p[0] and q[1] <= p[1])


def _is_unit_step(p, q) -> bool:
    return abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1 and _comparable(p, q)


@dataclass(frozen=True)
class ZigzagPath:
    """A path in the plane: consecutive points distinct and comparable."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty path")
        pts = tuple((int(x), int(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        for p, q in zip(pts, pts[1:]):
            if p == q:
                raise ValueError("consecutive path points must be distinct")
            if not _comparable(p, q):
                raise ValueError(f"consecutive path points {p}, {q} are incomparable")

    def __len__(self):
        return len(self.points)

    @cached_property
    def faithful(self) -> bool:
        return all(_is_unit_step(p, q) for p, q in zip(self.points, self.points[1:]))

    @cached_property
    def simple(self) -> bool:
        return self.faithful and len(set(self.points)) == len(self.points)

    @cached_property
    def monotone(self) -> bool:
        return self.faithful and all(
            q[0] - p[0] >= 0 and q[1] - p[1] >= 0 for p, q in zip(self.points, self.points[1:])
        )

    @cached_property
    def negative(self) -> bool:
        """Mirror image of a monotone path: steps go left or up (either orientation)."""
        if not self.faithful or len(self.points) == 1:
            return self.faithful
        deltas = {(q[0] - p[0], q[1] - p[1]) for p, q in zip(self.points, self.points[1:])}
        return deltas <= {(-1, 0), (0, 1)} or deltas <= {(1, 0), (0, -1)}

    def reverse(self) -> "ZigzagPath":
        return ZigzagPath(tuple(reversed(self.points)))

    def canonical(self) -> "ZigzagPath":
        """A path and its reverse are identified; keep the lex-smaller endpoint first."""
        rev = tuple(reversed(self.points))
        return self if self.points <= rev else ZigzagPath(rev)

    def subpath(self, i: int, j: int) -> "ZigzagPath":
        if not (0 <= i <= j < len(self.points)):
            raise ValueError("bad subpath indices")
        return ZigzagPath(self.points[i : j + 1])

    @cached_property
    def _span_table(self) -> dict[tuple[int, int], tuple[GridInterval, bool]]:
        """(interval hull, tameness) of the subpath over indices a..b, for every span."""
        n = len(self.points)
        where = _positions(self.points)
        table = {}
        for a in range(n):
            for b in range(a, n):
                hull = _hull(self.points[a:b + 1])
                table[a, b] = (hull, _tame_in_hull(self.points, where, a, b, hull))
        return table

    # -- serialisation -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"path {len(self.points)}"]
        lines += [f"{x} {y}" for x, y in self.points]
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "ZigzagPath":
        """Parse a `path <n>` line followed by exactly n `x y` point lines."""
        lines = content_lines(text)
        head = lines[0].split() if lines else []
        if len(head) != 2 or head[0] != "path" or not head[1].isdigit():
            raise ValueError(f"expected 'path <n>', got {lines[0] if lines else ''!r}")
        n = int(head[1])
        if len(lines) != n + 1:
            raise ValueError(f"'path {n}' is followed by {len(lines) - 1} point lines")
        return cls(tuple((int(x), int(y)) for x, y in map(str.split, lines[1:])))


def interval_hull(path: ZigzagPath) -> GridInterval:
    """Smallest interval containing the path: points sandwiched between path points.

    (x, y) lies above a path point iff x >= the least x of the points at
    or below row y, and below one iff x <= the largest x of the points at
    or above row y, so row y of the hull runs between those two envelopes.
    Consecutive points are comparable, so the rows form a valid staircase.
    """
    return _hull(path.points)


def _hull(pts) -> GridInterval:
    """:func:`interval_hull` of a path given by its points."""
    y0 = min(y for _, y in pts)
    h = max(y for _, y in pts) - y0 + 1
    lo, hi = [inf] * h, [-inf] * h
    for x, y in pts:
        i = y - y0
        if x < lo[i]:
            lo[i] = x
        if x > hi[i]:
            hi[i] = x
    starts = accumulate(lo, min)
    ends = reversed(list(accumulate(reversed(hi), max)))
    return _staircase(y0, tuple(zip(starts, ends)))


def min_zz(gi: GridInterval) -> ZigzagPath:
    """Lower fence as a path (single-point path for a unique minimal point)."""
    return ZigzagPath(lower_fence(gi))


def max_zz(gi: GridInterval) -> ZigzagPath:
    """Upper fence as a path."""
    return ZigzagPath(upper_fence(gi))


def boundary_cap(gi: GridInterval) -> ZigzagPath:
    """Reversed lower fence, a monotone connector, then the upper fence.

    One :func:`straight_path` through the lower fence's turns backwards,
    the corner (x of the first minimal point, y of the first maximal
    point) and the upper fence's turns: the connector runs up the column
    of the first minimal point, then right along the top row.  The first
    minimal point lies below the first maximal point, so by convexity the
    corner is inside.  Always a faithful tame path with interval hull gi;
    not simple in general.
    """
    mins, maxs = gi.antichains()
    corner = (mins[0][0], maxs[0][1])
    return ZigzagPath(straight_path(fence_turns(mins, True)[::-1] + (corner,)
                                    + fence_turns(maxs, False)))


def is_tame(path: ZigzagPath) -> bool:
    """Both fences of the hull appear (forwards or backwards) as contiguous subpaths."""
    pts = path.points
    return _tame_in_hull(pts, _positions(pts), 0, len(pts) - 1, interval_hull(path))


def _positions(points) -> dict:
    """Each point of a path -> the indices at which the path visits it, ascending."""
    where: dict = {}
    for i, pt in enumerate(points):
        where.setdefault(pt, []).append(i)
    return where


def _tame_in_hull(points, where, lo: int, hi: int, hull: GridInterval) -> bool:
    """:func:`is_tame` of the span points[lo..hi], given its interval hull
    and the :func:`_positions` of ``points``.

    A fence runs forwards through the span from a visit of its first
    point, or backwards into one, so only those visits are compared, not
    every offset (a simple path visits each point once).
    """
    for fence in (lower_fence(hull), upper_fence(hull)):
        n = len(fence)
        rev = fence[::-1]
        for i in where.get(fence[0], ()):
            if ((lo <= i <= hi - n + 1 and points[i:i + n] == fence)
                    or (lo + n - 1 <= i <= hi and points[i - n + 1:i + 1] == rev)):
                break
        else:
            return False
    return True


def is_thin(gi: GridInterval) -> bool:
    """Thin: the interval is the hull of a negative path (no 2x2 square)."""
    return all(b2 == a for (a, _), (_, b2) in zip(gi.rows, gi.rows[1:]))


def negative_cover_path(gi: GridInterval) -> ZigzagPath:
    """The negative path tracing a thin interval (right-to-left, bottom-to-top)."""
    if not is_thin(gi):
        raise ValueError("interval is not thin")
    # row by row, right end then left end; the right end of a row is the
    # left end of the row below
    path = ZigzagPath(straight_path([pt for y, (a, b) in enumerate(gi.rows, gi.y0)
                                     for pt in ((b, y), (a, y))]))
    if not path.negative or interval_hull(path).member_set != gi.member_set:
        raise AssertionError("negative cover construction failed")
    return path


def simple_tame_path(gi: GridInterval) -> ZigzagPath | None:
    """A simple tame faithful path whose hull is the interval, if one exists.

    The search connects an end of one fence to an end of the other by a
    shortest faithful connector inside the interval that avoids every
    other fence point; any simple tame spanning path must contain both
    fences contiguously, so this family is exhaustive up to the
    irrelevant freedom of extra prefixes.  The result is validated.
    """
    low = lower_fence(gi)
    up = upper_fence(gi)
    if set(low) & set(up):
        if len(gi) == 1:
            return ZigzagPath(low)
        return None
    inside = gi.member_set
    blocked = (set(low) | set(up))
    for lo_rev in (False, True):
        lseq = tuple(reversed(low)) if lo_rev else low
        for up_rev in (False, True):
            useq = tuple(reversed(up)) if up_rev else up
            e1, e2 = lseq[-1], useq[0]
            conn = _bfs_connector(e1, e2, inside, blocked - {e1, e2})
            if conn is None:
                continue
            pts = lseq + conn[1:-1] + useq
            path = ZigzagPath(pts)
            if path.simple and is_tame(path) and interval_hull(path).member_set == inside:
                return path
    return None


def _bfs_connector(src, dst, inside, blocked):
    if src == dst:
        return (src,)
    frontier = [src]
    prev = {src: None}
    while frontier:
        nxt = []
        for p in frontier:
            for dx, dy in _STEPS:
                q = (p[0] + dx, p[1] + dy)
                if q == dst:
                    out = [dst, p]
                    while prev[out[-1]] is not None:
                        out.append(prev[out[-1]])
                    return tuple(reversed(out))
                if q in prev or q not in inside or q in blocked:
                    continue
                prev[q] = p
                nxt.append(q)
        frontier = nxt
    return None


def is_solid(gi: GridInterval) -> bool:
    """More than one point and a simple tame spanning path, which needs
    disjoint fences (:func:`simple_tame_path` tests them first).

    Disjointness alone is not enough: a staircase can have disjoint
    fences that exhaust the interval, leaving no room for a simple
    connector, and no simple tame path then spans it.
    """
    return len(gi) > 1 and simple_tame_path(gi) is not None


# -- zigzag modules and barcodes -------------------------------------------------


def _path_ids(module: PModule, path: ZigzagPath) -> list[int | None]:
    """Module element of each path point; None off the module's points,
    where the module (extended by zero) vanishes."""
    idx = module._window_idx
    if idx is None:
        raise ValueError("path restriction needs a grid module")
    return [idx.get(pt) for pt in path.points]


def path_module(module: PModule, path: ZigzagPath) -> PModule:
    """The zigzag module: the pullback of the module along the path's index poset.

    Points off the module's points carry the zero space (extension by zero).
    """
    ids = _path_ids(module, path)
    n = len(path.points)
    covers = []
    for i, (p, q) in enumerate(zip(path.points, path.points[1:])):
        if p[0] <= q[0] and p[1] <= q[1]:
            covers.append((i, i + 1))
        else:
            covers.append((i + 1, i))
    index_poset = FinitePoset.from_covers(n, covers)
    dims = [0 if i is None else module.dims[i] for i in ids]
    maps = {}
    for a, b in covers:
        if dims[a] == 0 or dims[b] == 0:
            continue
        maps[(a, b)] = module.transition(ids[a], ids[b])
    return PModule(index_poset, dims, maps, module.p, validate=False)


def _span_ranks(module: PModule, path: ZigzagPath, lefts) -> list[list[int]]:
    """Zigzag ranks over path indices i..j: ranks[k][j - i] for the k-th left end i.

    For each left end one sweep keeps the subspace ids (reduced bases in
    the module's intern table) of E (limit -> V_j), the images of the
    limit, and of Q (V_j -> colimit), functionals spanning the colimit's
    coordinates, moves both one step at a time through the module's memo
    of subspace moves (`modules._move`) and reads rank(Q E) from its memo
    of pairs (`modules._pair_rank`).
    """
    ids = _path_ids(module, path)
    n = len(ids)
    dims = [0 if i is None else module.dims[i] for i in ids]
    out = []
    for i in lefts:
        row = [0] * (n - i)
        e = q = _intern(module, _identity(dims[i]))
        rank, j = dims[i], i
        while rank:
            row[j - i] = rank
            if j == n - 1 or dims[j + 1] == 0:
                break
            a, b = ids[j], ids[j + 1]
            e, q = _move(module, False, a, b, e), _move(module, True, a, b, q)
            j += 1
            rank = _pair_rank(module, e, q)
        out.append(row)
    return out


def zigzag_rank(module: PModule, path: ZigzagPath) -> int:
    """Rank of the limit-to-colimit map of the zigzag module over the path."""
    return _span_ranks(module, path, [0])[0][-1]


@dataclass(frozen=True)
class Barcode:
    """Multiset of subpath supports: bars[(i, j)] = multiplicity of the bar
    spanning path indices i..j (inclusive)."""

    path: ZigzagPath
    bars: tuple[tuple[tuple[int, int], int], ...]

    @cached_property
    def _multiplicity_by_span(self) -> dict:
        return dict(self.bars)

    def multiplicity(self, i: int, j: int) -> int:
        return self._multiplicity_by_span.get((i, j), 0)

    def full_bar(self) -> int:
        return self.multiplicity(0, len(self.path.points) - 1)

    def total_at(self, i: int) -> int:
        return sum(m for (a, b), m in self.bars if a <= i <= b)

    def to_tsv(self) -> str:
        return "\n".join(f"{a}\t{b}\t{m}" for (a, b), m in self.bars)


def zigzag_barcode(module: PModule, path: ZigzagPath) -> Barcode:
    """Barcode of the zigzag module by inclusion-exclusion over subpath ranks.

    The multiplicity of the bar on indices [i, j] is
    rank(i,j) - rank(i-1,j) - rank(i,j+1) + rank(i-1,j+1), with terms
    falling off the ends of the path dropped.  Zigzag modules decompose
    into interval summands, so every multiplicity must be >= 0 (checked).
    The ranks come from one pullback/pushout sweep per left end; a step
    any sweep of the module took before (from another left end, path or
    fence) is read from its memo of subspace moves.

    Any path of comparable steps qualifies, faithful or not: the corner
    zigzag p -> (p join q) <- q is the standard non-faithful use.
    """
    n = len(path.points)
    # rank(i, j) is row[j - i] of left end i; a trailing 0 on each row and
    # a zero row before the first drop the terms that fall off the ends
    prev = [0] * (n + 2)
    bars = []
    for i, row in enumerate(_span_ranks(module, path, range(n))):
        row.append(0)
        for k in range(n - i):
            m = row[k] - row[k + 1] - prev[k + 1] + prev[k + 2]
            if m < 0:
                raise AssertionError(f"negative bar multiplicity at ({i}, {i + k})")
            if m:
                bars.append(((i, i + k), m))
        prev = row
    return Barcode(path, tuple(bars))


def zib(module: PModule, paths) -> dict[ZigzagPath, Barcode]:
    """Barcode for each path, keyed by the canonical orientation."""
    out = {}
    for path in paths:
        canon = path.canonical()
        if canon not in out:
            out[canon] = zigzag_barcode(module, canon)
    return out


# -- estimating one invariant from the other ----------------------------------------


class _Brackets:
    """One path's bracket memo under one rank function: hull ranks h and
    upper brackets U, each keyed by span (a, b).

    U(a, b) = min(h(a, b) if a..b is tame, U(a + 1, b), U(a, b - 1)) is
    the least hull rank over the tame subpaths of a..b.  It depends on
    the span alone, not on the window a call brackets, so every call
    with the same rank function reads one memo.
    """

    def __init__(self, path: ZigzagPath, interval_rank):
        self.interval_rank = interval_rank
        self.table = path._span_table
        self.hull_rank: dict[tuple[int, int], int] = {}
        self.upper: dict[tuple[int, int], float] = {}

    def hull(self, span: tuple[int, int]) -> int:
        """The rank of the span's hull, tame or not."""
        if span not in self.hull_rank:
            self.hull_rank[span] = self.interval_rank(self.table[span][0])
        return self.hull_rank[span]

    def fill(self, lo: int, hi: int) -> dict:
        """U over every span inside lo..hi.

        The window is filled bottom-up, skipping spans already present.
        U(a, b) is written only after U(a + 1, b) and U(a, b - 1), so a
        present span implies every span inside it, a window whose (lo, hi)
        is present needs no fill, and a rank function that raises leaves
        only complete entries.  Only the hulls of tame spans are ranked.
        """
        upper = self.upper
        if (lo, hi) in upper:
            return upper
        for a in range(hi, lo - 1, -1):
            for b in range(a, hi + 1):
                if (a, b) in upper:
                    continue
                best = self.hull((a, b)) if self.table[a, b][1] else inf
                if b > a:
                    best = min(best, upper[a + 1, b], upper[a, b - 1])
                upper[a, b] = best
        return upper


def _brackets(path: ZigzagPath, interval_rank) -> _Brackets:
    """The path's bracket memo if it serves a function == interval_rank,
    else a fresh one that replaces it."""
    memo = path.__dict__.get("_bracket_memo")
    if memo is None or memo.interval_rank != interval_rank:
        memo = _Brackets(path, interval_rank)
        object.__setattr__(path, "_bracket_memo", memo)
    return memo


def rank_bounds_from_gri(path: ZigzagPath, interval_rank) -> tuple[int, int]:
    """Bracket the zigzag rank of a path by interval ranks.

    ``interval_rank`` maps a GridInterval to its generalized rank (table
    lookup or module query).  Lower bound: rank of the path's hull.
    Upper bound: least hull-rank over tame subpaths (single points are
    tame, so the minimum exists).  For a tame path the two coincide.

    Both are read from the path's bracket memo, which this call fills
    over the whole path.  The memo is keyed by ``interval_rank``,
    compared with == (every ``cache.rank`` of one cache is one key), and
    holds one function at a time: a call with another one starts it
    afresh.  The path holds the memo, so it keeps the rank function
    alive; ranks once read are kept, so ``interval_rank`` must be a
    function of the interval.
    """
    last = len(path.points) - 1
    memo = _brackets(path, interval_rank)
    return memo.hull((0, last)), memo.fill(0, last)[0, last]


def multiplicity_bounds(path: ZigzagPath, span: tuple[int, int], interval_rank) -> tuple[int, int]:
    """Bracket a bar multiplicity using only interval ranks.

    Applies the inclusion-exclusion formula with each exact subpath rank
    replaced by its bracket from :func:`rank_bounds_from_gri`; extension
    terms that fall off the path are dropped.  The brackets are read
    from the path's bracket memo under ``interval_rank`` (same key,
    lifetime and contract as there), filled over the window
    i - 1..j + 1, so the calls for every span of an n-point path rank
    each span hull at most once between them.
    """
    i, j = span
    n = len(path.points)
    if not (0 <= i <= j < n):
        raise ValueError("span is not a subpath")
    first, last = max(i - 1, 0), min(j + 1, n - 1)
    memo = _brackets(path, interval_rank)
    upper = memo.fill(first, last)

    def bounds(a, b):
        return memo.hull((a, b)), upper[a, b]

    m0, l0 = bounds(i, j)
    lo, hi = m0, l0
    if j < n - 1:
        mp, lp = bounds(i, j + 1)
        lo -= lp
        hi -= mp
    if i > 0:
        mm, lm = bounds(i - 1, j)
        lo -= lm
        hi -= mm
    if i > 0 and j < n - 1:
        mpm, lpm = bounds(i - 1, j + 1)
        lo += mpm
        hi += lpm
    return lo, hi


def enumerate_simple_paths(points):
    """All simple faithful paths through the given plane points, one orientation each."""
    pts = sorted(set(points))
    inside = set(pts)
    out = []

    def extend(seq):
        path = ZigzagPath(tuple(seq))
        if path.points <= tuple(reversed(path.points)):
            out.append(path)
        x, y = seq[-1]
        for dx, dy in _STEPS:
            q = (x + dx, y + dy)
            if q in inside and q not in seq_set:
                seq.append(q)
                seq_set.add(q)
                extend(seq)
                seq_set.remove(q)
                seq.pop()

    for start in pts:
        seq = [start]
        seq_set = {start}
        extend(seq)
    return out


def maximal_simple_paths(points):
    """Simple faithful paths in the point set that cannot be extended at either end."""
    inside = set(points)

    def extendable(seq):
        ends = [seq[0], seq[-1]]
        for e in ends:
            for dx, dy in _STEPS:
                q = (e[0] + dx, e[1] + dy)
                if q in inside and q not in seq:
                    return True
        return False

    out = []
    for path in enumerate_simple_paths(points):
        if not extendable(list(path.points)):
            out.append(path)
    return out


def _exactly_spanned(module: PModule, gi: GridInterval) -> int | None:
    """Full-bar multiplicity over a spanning negative or simple tame path."""
    if is_thin(gi):
        return zigzag_rank(module, negative_cover_path(gi))
    path = simple_tame_path(gi)
    if path is not None:
        return zigzag_rank(module, path)
    return None


def _exact_span(module: PModule, gi: GridInterval) -> int | None:
    """``_exactly_spanned``, memoised per module: it depends on the module
    and the interval alone (the memo is ``PModule._spans``)."""
    spans = module._spans
    if gi not in spans:
        spans[gi] = _exactly_spanned(module, gi)
    return spans[gi]


EXHAUSTIVE_CAP = 12


def gri_bounds_from_zib(module: PModule, gi: GridInterval) -> tuple[int, int]:
    """Bracket an interval's generalized rank using only path barcodes.

    Thin intervals are traced by a negative path and solid intervals by
    a simple tame path, so both are exact (lower == upper).  Otherwise:
    the upper bound is the least full-bar multiplicity over simple paths
    inside the interval, the lower bound the largest one over exactly
    spanned supersets inside the module's window.  Every simple path
    inside and every spanned superset gives a sound bound, so above
    ``EXHAUSTIVE_CAP`` points the exponential families are replaced by
    small sound ones: for each minimal p <= maximal q, the path up from
    p and then right to q, and window-clipped thickenings outside.  The
    interval holds the rectangle between p and q, and every monotone
    p -> q path has the rank of the map from p to q, so one such path per
    pair gives the bound of them all.  Exact spans are memoised per
    module, and so is the list of a small window's intervals.
    """
    exact = _exact_span(module, gi)
    if exact is not None:
        return exact, exact
    if len(gi) <= EXHAUSTIVE_CAP:
        inside = maximal_simple_paths(gi.points())
    else:
        mins, maxs = gi.antichains()
        inside = [ZigzagPath(straight_path((p, (p[0], q[1]), q)))
                  for p in mins for q in maxs if p[0] <= q[0] and p[1] <= q[1]]
    upper = min(zigzag_rank(module, path) for path in inside)

    (x0, y0), (w, h) = module.window_origin_size()
    x1, y1 = x0 + w - 1, y0 + h - 1
    lower = 0
    if _count_past(w, h, None, None, 20_000) <= 20_000:
        # only the max over the candidates is read, so their order does not matter
        if module._span_candidates is None:
            module._span_candidates = canonical_grid_intervals((x0, y0, x1, y1))
        candidates = module._span_candidates
    else:
        clipped = []
        diam = max(x1 - x0, y1 - y0)
        for eps in range(1, diam + 1):
            fat = gi.thicken(eps)
            rows = []
            for i, (a, b) in enumerate(fat.rows):
                y = fat.y0 + i
                if y0 <= y <= y1 and max(a, x0) <= min(b, x1):
                    rows.append((y, (max(a, x0), min(b, x1))))
            if rows:
                clipped.append(GridInterval(rows[0][0], tuple(r for _, r in rows)))
        candidates = clipped
    for cand in candidates:
        if not cand.issuperset(gi):
            continue
        v = _exact_span(module, cand)
        if v is not None:
            lower = max(lower, v)
    return lower, upper
