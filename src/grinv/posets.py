"""Finite posets, grid windows, and their intervals / connected subsets.

Two representations coexist:

* ``FinitePoset`` — an abstract finite poset on ids 0..n-1 (boolean leq
  matrix + Hasse cover list), optionally carrying grid coordinates when
  the poset is a product-order window of the integer plane.
* ``GridInterval`` — an interval of the ambient integer plane, stored as
  a staircase of per-row x-ranges.  This is the working representation
  for thickenings and fence constructions, which must not be clipped to
  any particular window.

Canonical order everywhere: subsets sorted by (size, lexicographic
sorted member list), the ``sort_key`` of each member, which keeps every
downstream table deterministic and diffable.  A given collection is
sorted by one helper, :func:`canonical_order`; for plane intervals it
orders by one int per member, built from the staircase rows without
listing points.  The intervals of a box are enumerated straight into
that order by :func:`canonical_grid_intervals`, which sums each
member's int key while it builds the member and ends with one int sort.
The unsorted generator :func:`iter_grid_intervals` is its test oracle
and still serves callers that do not need the order.

Members are their own keys, equal exactly when equal as sets.
Containment has one index, :class:`Supersets`; only
:func:`containment_poset` builds an n x n structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import attrgetter

import numpy as np

DEFAULT_INTERVAL_CAP = 5_000_000
DEFAULT_CONNECTED_CAP = 16


class EnumerationCapError(Exception):
    """Raised when an enumeration would exceed its configured guard."""


class FinitePoset:
    """A finite poset on elements 0..n-1.

    ``leq`` is a read-only boolean matrix (reflexive, antisymmetric,
    transitive — validated on construction); ``covers`` is its transitive
    reduction.  Instances are immutable and safe to share.
    """

    __slots__ = ("n", "leq", "grid_coords", "_covers", "_lower_covers", "_topo", "_comparable_bits")

    def __init__(self, leq: np.ndarray, grid_coords: tuple | None = None, validate: bool = True):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise ValueError("leq must be square")
        if validate:
            if not leq.diagonal().all():
                raise ValueError("leq is not reflexive")
            if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
                raise ValueError("leq is not antisymmetric")
            closure = leq @ leq
            if not np.array_equal(closure | leq, leq):
                raise ValueError("leq is not transitive")
        leq = leq.copy()
        leq.setflags(write=False)
        self.n = n
        self.leq = leq
        self.grid_coords = tuple(grid_coords) if grid_coords is not None else None
        self._covers = None
        self._lower_covers = None
        self._topo = None
        self._comparable_bits = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_covers(cls, n: int, cover_pairs, grid_coords=None) -> "FinitePoset":
        adj = np.eye(n, dtype=bool)
        for a, b in cover_pairs:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"cover {a} {b} is not a pair of distinct ids in 0..{n - 1}")
            adj[a, b] = True
        # Kleene closure by repeated squaring.
        closure = adj
        while True:
            nxt = closure | (closure @ closure)
            if np.array_equal(nxt, closure):
                break
            closure = nxt
        return cls(closure, grid_coords=grid_coords)

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        return cls(np.triu(np.ones((n, n), dtype=bool)), validate=False)

    # -- structure -------------------------------------------------------

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (a, b) with a covered by b, sorted.

        From the strict up-set bitsets: b covers a unless b lies in up(c)
        for some c in up(a), so the cost follows the number of comparable
        pairs instead of n**3.
        """
        if self._covers is None:
            lt = self.leq & ~np.eye(self.n, dtype=bool)
            up = row_bitsets(lt)
            lows, highs = (ix.tolist() for ix in np.nonzero(lt))
            above = [0] * self.n
            for a, c in zip(lows, highs):
                above[a] |= up[c]
            self._covers = tuple((a, b) for a, b in zip(lows, highs) if not above[a] >> b & 1)
        return self._covers

    @property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """Per element b, the elements covered by b, in the order of ``covers``."""
        if self._lower_covers is None:
            lower = [[] for _ in range(self.n)]
            for a, b in self.covers:
                lower[b].append(a)
            self._lower_covers = tuple(map(tuple, lower))
        return self._lower_covers

    def topological_order(self) -> tuple[int, ...]:
        """A linear extension of the order (ids sorted by down-set size, then id)."""
        if self._topo is None:
            self._topo = tuple(np.argsort(self.leq.sum(axis=0), kind="stable").tolist())
        return self._topo

    def up_ids(self, a: int) -> np.ndarray:
        return np.nonzero(self.leq[a])[0]

    def down_ids(self, a: int) -> np.ndarray:
        return np.nonzero(self.leq[:, a])[0]

    def segment(self, a: int, b: int) -> np.ndarray:
        """Ids x with a <= x <= b."""
        return np.nonzero(self.leq[a] & self.leq[:, b])[0]

    def comparable(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b] or self.leq[b, a])

    def minimal_of(self, members) -> tuple[int, ...]:
        ms = sorted(members)
        return tuple(a for a in ms if not any(self.leq[b, a] and b != a for b in ms))

    def maximal_of(self, members) -> tuple[int, ...]:
        ms = sorted(members)
        return tuple(a for a in ms if not any(self.leq[a, b] and b != a for b in ms))

    # -- subset predicates -------------------------------------------------

    def is_connected_subset(self, members) -> bool:
        """Whether the members span a connected subgraph of the comparability graph.

        Breadth-first over int bitsets: bit b of ``_comparable_bits[a]`` is
        set when a <= b or b <= a, and each round adds every member
        comparable to the frontier.  The empty set is not connected.
        """
        mask = 0
        for a in members:
            mask |= 1 << int(a)
        if not mask:
            return False
        if self._comparable_bits is None:
            self._comparable_bits = row_bitsets(self.leq | self.leq.T)
        comp = self._comparable_bits
        seen = frontier = mask & -mask
        while frontier and seen != mask:
            reach = 0
            # iter_bits inlined: its generator doubles the cost of small calls
            while frontier:
                low = frontier & -frontier
                reach |= comp[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    def is_convex_subset(self, members) -> bool:
        ms = sorted(set(members))
        inside = np.zeros(self.n, dtype=bool)
        inside[ms] = True
        for a in ms:
            for b in ms:
                if a != b and self.leq[a, b]:
                    if not inside[self.segment(a, b)].all():
                        return False
        return True

    def is_interval_subset(self, members) -> bool:
        ms = set(members)
        if not ms:
            return False
        return self.is_convex_subset(ms) and self.is_connected_subset(ms)

    def coord_of(self, a: int) -> tuple[int, int]:
        if self.grid_coords is None:
            raise ValueError("poset has no grid coordinates")
        return self.grid_coords[a]

    def id_of_coord(self) -> dict[tuple[int, int], int]:
        if self.grid_coords is None:
            raise ValueError("poset has no grid coordinates")
        return {xy: i for i, xy in enumerate(self.grid_coords)}

    # -- serialisation -----------------------------------------------------

    def to_text(self) -> str:
        if self.grid_coords is not None:
            xs = sorted({x for x, _ in self.grid_coords})
            ys = sorted({y for _, y in self.grid_coords})
            if len(self.grid_coords) == len(xs) * len(ys) and xs == list(
                range(xs[0], xs[0] + len(xs))
            ) and ys == list(range(ys[0], ys[0] + len(ys))):
                return f"grid {len(xs)} {len(ys)} {xs[0]} {ys[0]}"
        lines = [f"poset {self.n}"]
        lines += [f"cover {a} {b}" for a, b in self.covers]
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "FinitePoset":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        return cls._from_lines(lines, 0)[0]

    @classmethod
    def _from_lines(cls, lines: list[str], start: int) -> tuple["FinitePoset", int]:
        head = lines[start].split()
        if head[0] == "grid":
            w, h, ox, oy = (int(t) for t in head[1:5])
            return grid_poset(w, h, (ox, oy)), start + 1
        if head[0] != "poset":
            raise ValueError(f"expected 'poset <n>' or 'grid w h ox oy', got {lines[start]!r}")
        n = int(head[1])
        i = start + 1
        pairs = []
        while i < len(lines) and lines[i].startswith("cover "):
            _, a, b = lines[i].split()
            pairs.append((int(a), int(b)))
            i += 1
        return cls.from_covers(n, pairs), i


def grid_poset(width: int, height: int, origin: tuple[int, int] = (0, 0)) -> FinitePoset:
    """Product-order poset on a width x height window of the plane.

    Element ids run in lexicographic (x, y) order, which is a linear
    extension of the product order; covers are the unit steps.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    ox, oy = origin
    coords = tuple((ox + i, oy + j) for i in range(width) for j in range(height))
    xs = np.array([c[0] for c in coords])
    ys = np.array([c[1] for c in coords])
    leq = (xs[:, None] <= xs[None, :]) & (ys[:, None] <= ys[None, :])
    return FinitePoset(leq, grid_coords=coords, validate=False)


# -- subposet identifiers ---------------------------------------------------


@dataclass(frozen=True)
class SubposetId:
    """A named subset of a FinitePoset: kind + sorted member ids; equal by the ids alone."""

    kind: str = field(compare=False)  # "interval" | "connected" | "segment" | "path"
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty subposet")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @property
    def sort_key(self):
        return (len(self.members), self.members)

    def __len__(self):
        return len(self.members)


def subposet(poset: FinitePoset, members, kind: str | None = None) -> SubposetId:
    """Build a SubposetId, inferring and validating the kind."""
    ms = tuple(sorted(set(members)))
    if not ms:
        raise ValueError("empty subposet")
    connected = poset.is_connected_subset(ms)
    if kind is None:
        if connected and poset.is_convex_subset(ms):
            mins = poset.minimal_of(ms)
            maxs = poset.maximal_of(ms)
            kind = "segment" if len(mins) == 1 and len(maxs) == 1 else "interval"
        elif connected:
            kind = "connected"
        else:
            raise ValueError("subset is not connected; pass kind explicitly to allow")
    else:
        if kind in ("interval", "segment") and not poset.is_interval_subset(ms):
            raise ValueError(f"subset is not an interval: {ms}")
        if kind == "connected" and not connected:
            raise ValueError("subset is not connected")
    return SubposetId(kind, ms)


# -- ambient grid intervals --------------------------------------------------


@dataclass(frozen=True)
class GridInterval:
    """A finite interval of the integer plane as a staircase of rows.

    ``rows[i]`` is the inclusive x-range (a, b) of row y0 + i.  Validity
    (checked on construction): every row nonempty, and for consecutive
    rows (a, b) below (a', b'): a' <= a, b' <= b and a <= b'.  These are
    exactly convexity + connectivity for subsets of the plane with
    contiguous rows.
    """

    y0: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty interval")
        for a, b in self.rows:
            if a > b:
                raise ValueError("empty row in interval")
        for (a, b), (a2, b2) in zip(self.rows, self.rows[1:]):
            if not (a2 <= a and b2 <= b and a <= b2):
                raise ValueError(f"rows {(a, b)} -> {(a2, b2)} do not form an interval")

    # -- queries ------------------------------------------------------------

    @property
    def y1(self) -> int:
        return self.y0 + len(self.rows) - 1

    def __len__(self) -> int:
        return sum(b - a + 1 for a, b in self.rows)

    def points(self) -> list[tuple[int, int]]:
        return [
            (x, self.y0 + i)
            for i, (a, b) in enumerate(self.rows)
            for x in range(a, b + 1)
        ]

    def __contains__(self, xy: tuple[int, int]) -> bool:
        x, y = xy
        if not self.y0 <= y <= self.y1:
            return False
        a, b = self.rows[y - self.y0]
        return a <= x <= b

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.points())

    @cached_property
    def sort_key(self):
        return (len(self), tuple(sorted(self.points())))

    def issuperset(self, other: "GridInterval") -> bool:
        if other.y0 < self.y0 or other.y1 > self.y1:
            return False
        for i, (a, b) in enumerate(other.rows):
            sa, sb = self.rows[other.y0 + i - self.y0]
            if a < sa or b > sb:
                return False
        return True

    def bbox(self) -> tuple[int, int, int, int]:
        # row starts and ends never grow going up, so the top row starts
        # leftmost and the bottom row ends rightmost
        return (self.rows[-1][0], self.y0, self.rows[0][1], self.y1)

    def minimal_points(self) -> tuple[tuple[int, int], ...]:
        """The minimal antichain in ascending x (descending y), in one walk up
        the rows: the lowest row of each run of equal starts holds one."""
        pts = []
        for i, (a, _) in enumerate(self.rows):
            if not pts or a < pts[-1][0]:
                pts.append((a, self.y0 + i))
        return tuple(reversed(pts))

    def maximal_points(self) -> tuple[tuple[int, int], ...]:
        """The maximal antichain in ascending x (descending y), in one walk down
        the rows: the highest row of each run of equal ends holds one."""
        pts, top = [], self.y1
        for i, (_, b) in enumerate(reversed(self.rows)):
            if not pts or b > pts[-1][0]:
                pts.append((b, top - i))
        return tuple(pts)

    # -- constructions --------------------------------------------------------

    def thicken(self, eps: int) -> "GridInterval":
        """Dilation by the sup-norm ball of radius eps (ambient, never clipped)."""
        if eps < 0:
            raise ValueError("eps must be >= 0")
        if eps == 0:
            return self
        last = len(self.rows) - 1
        rows = []
        for y in range(self.y0 - eps, self.y1 + eps + 1):
            hi = min(y + eps - self.y0, last)
            lo = max(y - eps - self.y0, 0)
            rows.append((self.rows[hi][0] - eps, self.rows[lo][1] + eps))
        return GridInterval(self.y0 - eps, tuple(rows))

    @classmethod
    def from_points(cls, pts) -> "GridInterval":
        pts = set(pts)
        if not pts:
            raise ValueError("empty interval")
        ys = sorted({y for _, y in pts})
        if ys != list(range(ys[0], ys[0] + len(ys))):
            raise ValueError("rows are not contiguous")
        rows = []
        for y in ys:
            xs = sorted(x for x, yy in pts if yy == y)
            if xs != list(range(xs[0], xs[0] + len(xs))):
                raise ValueError(f"row {y} is not contiguous")
            rows.append((xs[0], xs[-1]))
        return cls(ys[0], tuple(rows))

    @classmethod
    def rectangle(cls, lo: tuple[int, int], hi: tuple[int, int]) -> "GridInterval":
        if not (lo[0] <= hi[0] and lo[1] <= hi[1]):
            raise ValueError("rectangle corners must be ordered")
        return cls(lo[1], tuple((lo[0], hi[0]) for _ in range(lo[1], hi[1] + 1)))


# -- canonical order ------------------------------------------------------------


def canonical_order(items) -> list:
    """The items sorted by their ``sort_key``: size, then sorted member list.

    The one sort of the library.  A collection of plane intervals is
    sorted by the int keys of :func:`_frame_keys`, which order it exactly
    as ``sort_key`` does, and the sort is stable, so the result is
    ``sorted(items, key=sort_key)`` either way.  ``SubposetId``
    collections, and intervals too far apart for the int keys, sort by
    ``sort_key`` itself.
    """
    items = list(items)
    if items and all(isinstance(it, GridInterval) for it in items):
        keys = _frame_keys(items)
        if keys is not None:
            return [items[i] for i in sorted(range(len(items)), key=keys.__getitem__)]
    return sorted(items, key=attrgetter("sort_key"))


class _RowTerms(dict):
    """Row y of a frame: (a, b) -> (b - a + 1) << N minus the row's point mask.

    Over a frame of N points and height h, the point (x, y) gets bit
    ``top - (x - x0) * h`` with ``top = N - 1 - (y - y0)``, so a row's
    points are k = b - a + 1 bits spaced h apart.
    """

    __slots__ = ("n_bits", "h", "x0", "top")

    def __init__(self, n_bits: int, h: int, x0: int, top: int):
        super().__init__()
        self.n_bits, self.h, self.x0, self.top = n_bits, h, x0, top

    def __missing__(self, row):
        a, b = row
        k, h = b - a + 1, self.h
        mask = ((1 << k * h) - 1) // ((1 << h) - 1) << (self.top - (b - self.x0) * h)
        term = self[row] = (k << self.n_bits) - mask
        return term


def _frame_keys(intervals) -> list[int] | None:
    """One int per interval that sorts as ``sort_key`` does, or None.

    Over the union frame [x0, x1] x [y0, y1] of the collection, with N
    points, the point of lexicographic rank r gets bit N - 1 - r of a
    mask.  For sets A, B of equal size, A's sorted point list comes first
    iff the lex-least point of A ^ B lies in A, iff mask(A) > mask(B).
    So the key ``size << N | (2**N - 1 - mask)`` orders like ``sort_key``.
    The rows of an interval are disjoint, so the key is 2**N - 1 plus one
    memoised term per row (:class:`_RowTerms`): O(rows), no points.

    Returns None (use ``sort_key``) unless sum of rows * N <= 64 * sum of
    sizes: the keys, the row memo and the words added to build them then
    stay within a few words per point of the collection, however far
    apart the members lie.  A frame of at most 64 points always fits.
    """
    x0, y0, x1, y1 = intervals[0].bbox()
    for gi in intervals:
        rows, y = gi.rows, gi.y0
        if rows[-1][0] < x0:
            x0 = rows[-1][0]
        if rows[0][1] > x1:
            x1 = rows[0][1]
        if y < y0:
            y0 = y
        if y + len(rows) - 1 > y1:
            y1 = y + len(rows) - 1
    h = y1 - y0 + 1
    n_bits = (x1 - x0 + 1) * h
    if n_bits > 64:
        n_rows = sum(len(gi.rows) for gi in intervals)
        if n_rows * n_bits > 64 * sum(len(gi) for gi in intervals):
            return None
    terms = [_RowTerms(n_bits, h, x0, n_bits - 1 - i) for i in range(h)]
    full = (1 << n_bits) - 1
    get = dict.__getitem__  # falls back to _RowTerms.__missing__ on a new row
    out = []
    for gi in intervals:
        i = gi.y0 - y0
        out.append(full + sum(map(get, terms[i:i + len(gi.rows)], gi.rows)))
    return out


# -- enumeration --------------------------------------------------------------


def _staircase(y0: int, rows: tuple) -> GridInterval:
    """A GridInterval from rows already known to be valid, skipping re-validation."""
    gi = object.__new__(GridInterval)
    object.__setattr__(gi, "y0", y0)
    object.__setattr__(gi, "rows", rows)
    return gi


def _iter_row_ranges(x0: int, x1: int):
    for a in range(x0, x1 + 1):
        for b in range(a, x1 + 1):
            yield (a, b)


def iter_grid_intervals(bbox, max_min_pts=None, max_max_pts=None):
    """All GridIntervals inside bbox = (x0, y0, x1, y1), unsorted.

    Min/max-point budgets prune during generation: going up, each strict
    drop of the row start adds a minimal point, each strict drop of the
    row end adds a maximal point to the row below.
    """
    x0, y0, x1, y1 = bbox
    mmin = max_min_pts if max_min_pts is not None else (x1 - x0 + y1 - y0 + 2)
    mmax = max_max_pts if max_max_pts is not None else (x1 - x0 + y1 - y0 + 2)
    if mmin < 1 or mmax < 1:
        raise ValueError("min/max point budgets must be >= 1")

    def extend(ybase, rows, mins_used, maxs_used):
        yield _staircase(ybase, tuple(rows))
        if ybase + len(rows) > y1:
            return
        a, b = rows[-1]
        for a2 in range(x0, a + 1):
            new_mins = mins_used + (1 if a2 < a else 0)
            if new_mins > mmin:
                continue
            for b2 in range(max(a2, a), b + 1):
                new_maxs = maxs_used + (1 if b2 < b else 0)
                if new_maxs > mmax:
                    continue
                rows.append((a2, b2))
                yield from extend(ybase, rows, new_mins, new_maxs)
                rows.pop()

    for ybase in range(y0, y1 + 1):
        for rng in _iter_row_ranges(x0, x1):
            # maxs_used counts drops below the current top row; the top row
            # itself always contributes one maximal point, budgeted here.
            yield from extend(ybase, [rng], 1, 1)


class _Steps(dict):
    """Row (a, b) -> the rows (a2, b2) that may go on top of it.

    Going up, a drop of the row start adds a minimal point and a drop of
    the row end a maximal point; ``drop_a``/``drop_b`` say whether the
    budgets still allow each.  Entries are built on first use, so the
    table never holds more rows than the walk pushes.
    """

    __slots__ = ("x0", "drop_a", "drop_b")

    def __init__(self, x0: int, drop_a: bool, drop_b: bool):
        super().__init__()
        self.x0, self.drop_a, self.drop_b = x0, drop_a, drop_b

    def __missing__(self, row):
        a, b = row
        out = self[row] = tuple(((a2, b2), a2 < a, b2 < b)
                                for a2 in (range(self.x0, a + 1) if self.drop_a else (a,))
                                for b2 in (range(a, b + 1) if self.drop_b else (b,)))
        return out


def canonical_grid_intervals(bbox, max_min_pts=None, max_max_pts=None) -> list[GridInterval]:
    """All GridIntervals inside bbox = (x0, y0, x1, y1), in canonical order.

    The staircases of :func:`iter_grid_intervals` (its test oracle), with
    the same budgets, found by a depth-first walk up the rows on an
    explicit stack.  Each member is built once and carries its
    :func:`_frame_keys` key over the box as a running sum of memoised row
    terms, so one int sort puts the members in ``sort_key`` order without
    listing any points.  The members are distinct sets, so no keys tie.
    """
    items, keys = _keyed_walk(bbox, max_min_pts, max_max_pts)
    return [items[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def _keyed_walk(bbox, max_min_pts, max_max_pts) -> tuple[list[GridInterval], list[int]]:
    """The members of :func:`canonical_grid_intervals` and their keys, in
    walk order.  The row memos go with this frame, before the sort."""
    x0, y0, x1, y1 = bbox
    mmin = max_min_pts if max_min_pts is not None else (x1 - x0 + y1 - y0 + 2)
    mmax = max_max_pts if max_max_pts is not None else (x1 - x0 + y1 - y0 + 2)
    if mmin < 1 or mmax < 1:
        raise ValueError("min/max point budgets must be >= 1")
    h = y1 - y0 + 1
    n_bits = (x1 - x0 + 1) * h
    terms = [_RowTerms(n_bits, h, x0, n_bits - 1 - i) for i in range(h)]
    full = (1 << n_bits) - 1
    # steps[False][False] stays empty: a row whose start and end may not
    # drop can only be repeated
    steps = [[_Steps(x0, drop_a, drop_b) for drop_b in (False, True)] for drop_a in (False, True)]
    items: list[GridInterval] = []
    keys: list[int] = []
    stack: list = []
    push, pop = stack.append, stack.pop
    for base in range(h):
        y = y0 + base
        for row in _iter_row_ranges(x0, x1):
            push(((row,), full + terms[base][row], 1, 1))
            while stack:
                rows, key, mins, maxs = pop()
                items.append(_staircase(y, rows))
                keys.append(key)
                top = base + len(rows)
                if top == h:
                    continue
                term, row = terms[top], rows[-1]
                drop_a, drop_b = mins < mmin, maxs < mmax
                if drop_a or drop_b:
                    for row2, new_min, new_max in steps[drop_a][drop_b][row]:
                        push((rows + (row2,), key + term[row2], mins + new_min, maxs + new_max))
                else:
                    push((rows + (row,), key + term[row], mins, maxs))
    return items, keys


def count_grid_intervals(width: int, height: int, max_min_pts=None, max_max_pts=None) -> int:
    """Interval count of a width x height window without enumeration (row DP)."""
    mmin = max_min_pts if max_min_pts is not None else width + height
    mmax = max_max_pts if max_max_pts is not None else width + height
    ranges = list(_iter_row_ranges(0, width - 1))
    total = 0
    for band in range(1, height + 1):
        n_bands = height - band + 1
        if band == 1:
            total += n_bands * len(ranges)
            continue
        # state: (range, mins_used, maxs_used) after the bottom row
        state = {(r, 1, 1): 1 for r in ranges}
        for _ in range(band - 1):
            nxt: dict = {}
            for ((a, b), mu, xu), cnt in state.items():
                for a2 in range(0, a + 1):
                    mu2 = mu + (1 if a2 < a else 0)
                    if mu2 > mmin:
                        continue
                    for b2 in range(max(a2, a), b + 1):
                        xu2 = xu + (1 if b2 < b else 0)
                        if xu2 > mmax:
                            continue
                        key = ((a2, b2), mu2, xu2)
                        nxt[key] = nxt.get(key, 0) + cnt
            state = nxt
        total += n_bands * sum(state.values())
    return total


def check_interval_cap(width: int, height: int, max_min_pts, max_max_pts, cap: int) -> None:
    """Raise EnumerationCapError when a width x height window has more than
    ``cap`` intervals within the budgets, counted by the row DP."""
    n = count_grid_intervals(width, height, max_min_pts, max_max_pts)
    if n > cap:
        raise EnumerationCapError(
            f"{n} intervals exceed the cap of {cap}; raise the cap explicitly to proceed"
        )


def enumerate_grid_intervals(
    poset: FinitePoset,
    max_min_pts=None,
    max_max_pts=None,
    cap: int = DEFAULT_INTERVAL_CAP,
) -> list[GridInterval]:
    """Intervals of a grid window, canonical order, guarded by a count DP."""
    if poset.grid_coords is None:
        raise ValueError("not a grid poset")
    xs = [x for x, _ in poset.grid_coords]
    ys = [y for _, y in poset.grid_coords]
    check_interval_cap(max(xs) - min(xs) + 1, max(ys) - min(ys) + 1,
                       max_min_pts, max_max_pts, cap)
    return canonical_grid_intervals((min(xs), min(ys), max(xs), max(ys)), max_min_pts, max_max_pts)


def enumerate_intervals(
    poset: FinitePoset,
    max_min_pts=None,
    max_max_pts=None,
    cap: int = DEFAULT_INTERVAL_CAP,
) -> list[SubposetId]:
    """All intervals with at most the given numbers of minimal/maximal points.

    Grid windows use staircase generation; other posets fall back to the
    brute-force subset filter (exponential, so capped by element count).
    With budgets (1, 1) this is exactly the set of segments [p, q].
    """
    if poset.grid_coords is not None:
        idx = poset.id_of_coord()
        return [
            SubposetId("interval", tuple(sorted(idx[pt] for pt in gi.points())))
            for gi in enumerate_grid_intervals(poset, max_min_pts, max_max_pts, cap)
        ]
    if poset.n > 20:
        raise EnumerationCapError(
            f"brute-force interval enumeration over {poset.n} elements refused"
        )
    if 2**poset.n - 1 > cap:
        raise EnumerationCapError(f"2^{poset.n} subsets exceed the cap of {cap}")
    out = []
    for size in range(1, poset.n + 1):
        for ms in combinations(range(poset.n), size):
            if not poset.is_interval_subset(ms):
                continue
            if max_min_pts is not None and len(poset.minimal_of(ms)) > max_min_pts:
                continue
            if max_max_pts is not None and len(poset.maximal_of(ms)) > max_max_pts:
                continue
            out.append(SubposetId("interval", ms))
    return out


def enumerate_connected(poset: FinitePoset, cap: int = DEFAULT_CONNECTED_CAP) -> list[SubposetId]:
    """All connected nonempty subsets, canonical order. Exponential: capped."""
    if poset.n > cap:
        raise EnumerationCapError(
            f"connected-subset enumeration over {poset.n} > {cap} elements refused"
        )
    out = []
    for size in range(1, poset.n + 1):
        for ms in combinations(range(poset.n), size):
            if poset.is_connected_subset(ms):
                out.append(SubposetId("connected", ms))
    return out


def enumerate_segments(poset: FinitePoset) -> list[SubposetId]:
    """Segments [p, q] for p <= q, canonical order."""
    out = []
    for a in range(poset.n):
        for b in poset.up_ids(a):
            out.append(SubposetId("segment", tuple(int(i) for i in poset.segment(a, int(b)))))
    # [p, q] has p as its unique minimum and q as its unique maximum, so no
    # two segments coincide as sets
    return canonical_order(out)


# -- boundary fences -------------------------------------------------------------


def fence_points(ext, lower: bool) -> tuple[tuple[int, int], ...]:
    """The shortest faithful path threading an antichain via its joins or meets.

    With the minimal (``lower``) points p0, p1, ... of an interval in
    ascending x, the join of consecutive points shares its y with the
    earlier and its x with the later, so each leg is a straight unit-step
    segment and the path is unique: p0 -> (x1, y0) -> p1 -> ...  The upper
    fence through the maximal points q0, q1, ... is its mirror image,
    q0 -> (x0, y1) -> q1 -> ...  One point gives the one-point path.
    """
    pts: list[tuple[int, int]] = [ext[0]]
    for (x0, y0), (x1, y1) in zip(ext, ext[1:]):
        if lower:
            for x in range(x0 + 1, x1 + 1):
                pts.append((x, y0))
            for y in range(y0 - 1, y1 - 1, -1):
                pts.append((x1, y))
        else:
            for y in range(y0 - 1, y1 - 1, -1):
                pts.append((x0, y))
            for x in range(x0 + 1, x1 + 1):
                pts.append((x, y1))
    return tuple(pts)


def check_fence_inside(gi: GridInterval, ext, lower: bool) -> None:
    """Raise AssertionError if the fence through ``ext`` leaves ``gi``.  Each
    fence point lies between a point of ``ext`` and the join (lower) or meet
    (upper) of a consecutive pair, so by convexity these corners suffice."""
    for (x0, y0), (x1, y1) in zip(ext, ext[1:]):
        corner = (x1, y0) if lower else (x0, y1)
        if corner not in gi:
            raise AssertionError(f"fence point {corner} escaped the interval")


def lower_fence(gi: GridInterval) -> tuple[tuple[int, int], ...]:
    """The lower fence of ``gi``, through its minimal points; it stays inside ``gi``."""
    mins = gi.minimal_points()
    check_fence_inside(gi, mins, lower=True)
    return fence_points(mins, lower=True)


def upper_fence(gi: GridInterval) -> tuple[tuple[int, int], ...]:
    """The upper fence of ``gi``, through its maximal points; it stays inside ``gi``."""
    maxs = gi.maximal_points()
    check_fence_inside(gi, maxs, lower=False)
    return fence_points(maxs, lower=False)


# -- the containment poset -----------------------------------------------------


class Supersets:
    """Which indexed members contain a given member: the one containment index.

    For every point x (plane coordinates of a ``GridInterval``, ids of a
    ``SubposetId``), the Python-int bitset of the members that contain x
    (bit j for member j).  The members containing I are the AND of those
    bitsets over I's points: |I| big-int ANDs in C.  Built in one packed
    batch over a whole collection; ``add`` grows an index over a support.
    """

    __slots__ = ("_size", "_by_point")

    def __init__(self, members=()):
        rows: dict = {}
        for j, it in enumerate(members):
            for x in _points(it):
                rows.setdefault(x, []).append(j)
        self._size = len(members)
        self._by_point = {x: bitset(js, self._size) for x, js in rows.items()}

    def add(self, member) -> None:
        """Index one more member, as the next bit."""
        bit = 1 << self._size
        self._size += 1
        for x in _points(member):
            self._by_point[x] = self._by_point.get(x, 0) | bit

    def containing(self, member) -> int:
        """Bitset of the indexed members that contain the member."""
        mask = -1  # every bit, until the first point's bitset
        for x in _points(member):
            mask &= self._by_point.get(x, 0)
            if not mask:
                break
        return mask


def _points(member):
    return member.points() if isinstance(member, GridInterval) else member.members


def canonical_members(items) -> tuple:
    """The items in canonical order; ``ValueError`` when two are equal (as sets)."""
    items = tuple(canonical_order(items))
    if len(set(items)) != len(items):
        raise ValueError("duplicate items in collection")
    return items


def bitset(indices, n: int) -> int:
    """The int with exactly the given bits set, all below n (packed by numpy)."""
    row = np.zeros(-(-n // 8) * 8, dtype=bool)
    row[list(indices)] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def row_bitsets(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, bit j standing for column j."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(matrix, axis=1, bitorder="little")]


def iter_bits(mask: int):
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ContainmentPoset:
    """A collection of subsets ordered by reverse inclusion: I <= J iff I >= J.

    ``poset`` is the abstract FinitePoset on indices into ``items``; the
    zeta/mobius machinery applies to it directly.
    """

    items: tuple
    poset: FinitePoset

    @cached_property
    def _index(self) -> dict:
        return {it: i for i, it in enumerate(self.items)}

    def index_of(self, item) -> int:
        try:
            return self._index[item]
        except KeyError:
            raise KeyError("item not in collection") from None


def containment_poset(items) -> ContainmentPoset:
    """The collection in canonical order, ordered by reverse inclusion.

    Column j of ``leq`` is the bitset of the members containing member j.
    The library's one n x n structure: about 3.5 n**2 bytes at peak.
    """
    items = canonical_members(items)
    sup = Supersets(items)
    n = len(items)
    nbytes = (n + 7) // 8
    packed = b"".join(sup.containing(it).to_bytes(nbytes, "little") for it in items)
    cols = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(n, nbytes),
                         axis=1, bitorder="little")[:, :n]
    return ContainmentPoset(items, FinitePoset(cols.T.astype(bool), validate=False))
