"""Finite posets, grid windows, and their intervals / connected subsets.

Two representations coexist:

* ``FinitePoset`` — an abstract finite poset on ids 0..n-1 (up-set and
  down-set int bitsets + Hasse cover list), optionally carrying grid
  coordinates when the poset is a product-order window of the integer
  plane.  One constructor takes the bitsets as they are, and
  ``from_covers`` closes and checks a relation from outside.  Its
  boolean ``leq`` matrix is built with numpy on first use, for oracles;
  nothing else here imports numpy.
* ``SubposetId`` — the sorted member ids of a subset of a FinitePoset.
  :func:`subposet` checks a subset against a kind (interval, segment,
  connected) on the way in.
* ``GridInterval`` — an interval of the integer plane, stored as
  a staircase of per-row x-ranges.  This is the working representation
  for thickenings and fence constructions, which must not be clipped to
  any particular window.

Canonical order everywhere: subsets sorted by (size, lexicographic
sorted member list), the ``sort_key`` of each member, which keeps every
downstream table deterministic and diffable.  One gate,
:func:`canonical_members`, sorts a collection (for plane intervals by
one int per member, built from the staircase rows without listing
points) into a :class:`CanonicalMembers` tuple, which the enumerators
return too and the gate passes through.  The intervals of a box are
enumerated straight into that order by :func:`canonical_grid_intervals`,
which sums each member's int key while it builds the member and ends
with one int sort.  The unsorted generator :func:`iter_grid_intervals`
is its test oracle and nothing else.  Such a full box is labelled with
its :class:`GridBox` (box, budgets, sort permutation), so a layer knows
it in O(1) and can walk it again (:func:`box_antichains`: every
member's minimal and maximal antichains, carried up the rows) instead
of reading its members one by one.  One table of the walk's subtree
sizes counts a box, stops a cap check at the cap and skips the walk's
dead subtrees; a missing min/max point budget is ``inf``.

Members are their own keys, equal exactly when equal as sets, and a
plane interval hashes once.  Containment has one index,
:class:`Supersets`; only :func:`containment_poset` builds an n x n
structure (n bitsets of n bits each way).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, repeat
from math import inf

DEFAULT_INTERVAL_CAP = 5_000_000
DEFAULT_CONNECTED_CAP = 16
# a poset's bitsets take about n**2 / 4 bytes, 64 MiB at this many elements
MAX_FILE_ELEMENTS = 2 ** 14


class EnumerationCapError(Exception):
    """Raised when an enumeration would exceed its configured guard."""


class FinitePoset:
    """A finite poset on elements 0..n-1, as up-set and down-set int bitsets.

    Bit b of ``up[a]`` is set iff a <= b, and bit a of ``down[b]`` iff
    a <= b.  The constructor takes both bitset lists as they are, with
    the covers when known; a relation from outside goes through
    :meth:`from_covers`, which closes and checks it.  ``covers`` is the
    transitive reduction; ``leq``, the boolean matrix, is built on first
    use for oracles.  Instances are immutable and safe to share.
    """

    __slots__ = ("n", "up", "down", "grid_coords", "_covers", "_lower_covers", "_topo", "_leq")

    def __init__(self, up, down, grid_coords=None, covers=None):
        self.n = len(up)
        self.up = tuple(up)
        self.down = tuple(down)
        self.grid_coords = tuple(grid_coords) if grid_coords is not None else None
        self._covers = covers
        self._lower_covers = None
        self._topo = None
        self._leq = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_covers(cls, n: int, cover_pairs, grid_coords=None) -> "FinitePoset":
        """The order generated by the pairs (redundant pairs allowed).

        One topological sort of the pairs, then one pass each way closes
        them: down-sets flow along the pairs in topological order, up-sets
        against them in reverse.  A cycle leaves elements unsorted: the
        relation is not antisymmetric.
        """
        succ: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for a, b in cover_pairs:
            a, b = int(a), int(b)
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"cover {a} {b} is not a pair of distinct ids in 0..{n - 1}")
            succ[a].append(b)
            indegree[b] += 1
        order = [a for a in range(n) if not indegree[a]]
        for a in order:  # grows while it is walked
            for b in succ[a]:
                indegree[b] -= 1
                if not indegree[b]:
                    order.append(b)
        if len(order) < n:
            raise ValueError("leq is not antisymmetric")
        up = [1 << a for a in range(n)]
        down = up.copy()
        for a in order:
            for b in succ[a]:
                down[b] |= down[a]
        for a in reversed(order):
            for b in succ[a]:
                up[a] |= up[b]
        return cls(up, down, grid_coords)

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        full = (1 << n) - 1
        return cls([full >> a << a for a in range(n)], [(2 << a) - 1 for a in range(n)],
                   covers=tuple((a, a + 1) for a in range(n - 1)))

    def with_coords(self, grid_coords) -> "FinitePoset":
        """The same order with other grid coordinates."""
        return FinitePoset(self.up, self.down, grid_coords, self._covers)

    def induced(self, members) -> "FinitePoset":
        """The subposet on the given ids, relabelled 0..k-1 in ascending id
        order; grid coordinates go with their elements."""
        ms = sorted(set(int(m) for m in members))

        def pack(mask):
            return bitset([k for k, b in enumerate(ms) if mask >> b & 1], len(ms))

        coords = None if self.grid_coords is None else [self.grid_coords[m] for m in ms]
        return FinitePoset([pack(self.up[m]) for m in ms], [pack(self.down[m]) for m in ms], coords)

    # -- structure -------------------------------------------------------

    @property
    def leq(self):
        """The read-only boolean matrix of the order (numpy), built on first use."""
        if self._leq is None:
            import numpy as np

            n, nbytes = self.n, (self.n + 7) // 8
            packed = b"".join(bits.to_bytes(nbytes, "little") for bits in self.up)
            leq = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(n, nbytes),
                                axis=1, bitorder="little")[:, :n].astype(bool)
            leq.setflags(write=False)
            self._leq = leq
        return self._leq

    def le(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (a, b) with a covered by b, sorted.

        The upper covers of a are the minimal elements of its strict
        up-set: from any element still left, step down inside what is left
        to a minimal one, keep it and drop its up-set.  The cost follows
        the number of covers times the chain length, not the comparable
        pairs.
        """
        if self._covers is None:
            up, down = self.up, self.down
            out = []
            for a in range(self.n):
                rest = up[a] ^ 1 << a
                tops = []
                while rest:
                    c = rest.bit_length() - 1
                    while below := (down[c] & rest) ^ 1 << c:
                        c = below.bit_length() - 1
                    tops.append(c)
                    rest &= ~up[c]
                out += [(a, c) for c in sorted(tops)]
            self._covers = tuple(out)
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
            sizes = [bits.bit_count() for bits in self.down]
            self._topo = tuple(sorted(range(self.n), key=sizes.__getitem__))
        return self._topo

    def up_ids(self, a: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.up[a]))

    def down_ids(self, a: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.down[a]))

    def segment(self, a: int, b: int) -> tuple[int, ...]:
        """Ids x with a <= x <= b."""
        return tuple(iter_bits(self.up[a] & self.down[b]))

    def comparable(self, a: int, b: int) -> bool:
        return bool((self.up[a] | self.down[a]) >> b & 1)

    def minimal_of(self, members) -> tuple[int, ...]:
        ms = sorted(int(m) for m in members)
        check_ids(ms, self.n)
        mask = bitset(ms, self.n)
        return tuple(a for a in ms if self.down[a] & mask == 1 << a)

    def maximal_of(self, members) -> tuple[int, ...]:
        ms = sorted(int(m) for m in members)
        check_ids(ms, self.n)
        mask = bitset(ms, self.n)
        return tuple(a for a in ms if self.up[a] & mask == 1 << a)

    # -- subset predicates -------------------------------------------------

    def is_connected_subset(self, members) -> bool:
        """Whether the members span a connected subgraph of the comparability graph.

        Breadth-first over int bitsets: b is comparable to a when bit b of
        ``up[a] | down[a]`` is set, and each round adds every member
        comparable to the frontier.  The empty set is not connected.
        """
        members = tuple(members)
        check_ids(members, self.n)
        mask = bitset(members, self.n)
        if not mask:
            return False
        up, down = self.up, self.down
        seen = frontier = mask & -mask
        while frontier and seen != mask:
            reach = 0
            # iter_bits inlined: its generator doubles the cost of small calls
            while frontier:
                low = frontier & -frontier
                a = low.bit_length() - 1
                reach |= up[a] | down[a]
                frontier ^= low
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    def is_convex_subset(self, members) -> bool:
        """Whether every x with a <= x <= b for members a, b is a member:
        the up-set and the down-set of the members meet inside them."""
        mask = above = below = 0
        for a in members:
            a = int(a)
            mask |= 1 << a
            above |= self.up[a]
            below |= self.down[a]
        return above & below & ~mask == 0

    def is_interval_subset(self, members) -> bool:
        ms = set(members)
        if not ms:
            return False
        return self.is_convex_subset(ms) and self.is_connected_subset(ms)

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
        return cls._from_lines(content_lines(text), 0)[0]

    @classmethod
    def _from_lines(cls, lines: list[str], start: int) -> tuple["FinitePoset", int]:
        head = lines[start].split()
        if len(head) != {"grid": 5, "poset": 2}.get(head[0], len(head)):
            raise ValueError(f"malformed {head[0]} line: {lines[start]!r}")
        if head[0] == "grid":
            w, h, ox, oy = map(int, head[1:])
            _check_declared(max(w, 0) * max(h, 0), lines[start])  # grid_poset rejects w, h < 1
            return grid_poset(w, h, (ox, oy)), start + 1
        if head[0] != "poset":
            raise ValueError(f"expected 'poset <n>' or 'grid w h ox oy', got {lines[start]!r}")
        n = int(head[1])
        if n < 1:
            raise ValueError(f"a poset needs at least one element: {lines[start]!r}")
        _check_declared(n, lines[start])
        i = start + 1
        pairs = []
        while i < len(lines) and lines[i].startswith("cover "):
            _, a, b = lines[i].split()
            pairs.append((int(a), int(b)))
            i += 1
        return cls.from_covers(n, pairs), i


def content_lines(text: str) -> list[str]:
    """The lines of an input file (poset, module, path or collection) that
    carry content: each line stripped, blank and ``#`` lines skipped."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _check_declared(n: int, header: str) -> None:
    """Refuse a file header that declares more than MAX_FILE_ELEMENTS elements."""
    if n > MAX_FILE_ELEMENTS:
        raise ValueError(f"{header!r} declares {n} elements, more than {MAX_FILE_ELEMENTS}")


def grid_poset(width: int, height: int, origin: tuple[int, int] = (0, 0)) -> FinitePoset:
    """Product-order poset on a width x height window of the plane.

    Element ids run in lexicographic (x, y) order, which is a linear
    extension of the product order; covers are the unit steps.  Id
    i * height + j is the point (ox + i, oy + j), so its up-set is the
    column mask of rows >= j repeated in every column >= i, and its
    down-set that of rows <= j in every column <= i.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    ox, oy = origin
    h, n = height, width * height
    coords = tuple((ox + i, oy + j) for i in range(width) for j in range(h))
    repeat = ((1 << n) - 1) // ((1 << h) - 1)  # bit i * h for every column i
    rows_up = [((1 << h) - (1 << j)) * repeat for j in range(h)]
    rows_down = [((2 << j) - 1) * repeat for j in range(h)]
    up, down, covers = [], [], []
    for i in range(width):
        right, left = (1 << n) - (1 << i * h), (1 << (i + 1) * h) - 1
        for j in range(h):
            a = i * h + j
            up.append(rows_up[j] & right)
            down.append(rows_down[j] & left)
            if j + 1 < h:
                covers.append((a, a + 1))
            if i + 1 < width:
                covers.append((a, a + h))
    return FinitePoset(up, down, coords, tuple(covers))


# -- subposet identifiers ---------------------------------------------------


@dataclass(frozen=True)
class SubposetId:
    """A subset of a FinitePoset as its sorted member ids, equal by them."""

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
    """The SubposetId of members of the poset, checked against the kind:
    "interval" must be an interval, "segment" an interval with one
    minimal and one maximal element, "connected" and the default None
    connected."""
    ms = tuple(sorted(set(members)))
    if not ms:
        raise ValueError("empty subposet")
    check_ids(ms, poset.n)
    if kind in ("interval", "segment"):
        if not poset.is_interval_subset(ms):
            raise ValueError(f"subset is not an interval: {ms}")
        if kind == "segment":
            check_segment(len(poset.minimal_of(ms)), len(poset.maximal_of(ms)))
    elif kind not in (None, "connected"):
        raise ValueError(f"unknown subposet kind {kind!r}")
    elif not poset.is_connected_subset(ms):
        raise ValueError("subset is not connected")
    return SubposetId(ms)


def check_segment(n_min: int, n_max: int) -> None:
    """Raise ValueError unless an interval with n_min minimal and n_max
    maximal points is a segment: one of each."""
    if n_min != 1 or n_max != 1:
        raise ValueError(f"subset is not a segment: it has {n_min} minimal "
                         f"and {n_max} maximal points")


def check_ids(ids, n: int) -> None:
    """Raise ValueError unless every id lies in 0..n-1."""
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"element id {i} is not in 0..{n - 1}")


# -- plane grid intervals ----------------------------------------------------


@dataclass(frozen=True)
class GridInterval:
    """A finite interval of the integer plane as a staircase of rows.

    ``rows[i]`` is the inclusive x-range (a, b) of row y0 + i.  Validity
    (checked on construction): every row nonempty, and for consecutive
    rows (a, b) below (a', b'): a' <= a, b' <= b and a <= b'.  These are
    exactly convexity + connectivity for subsets of the plane with
    contiguous rows.  The hash of (y0, rows) is taken once, on
    construction, and takes no part in equality.
    """

    y0: int
    rows: tuple[tuple[int, int], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty interval")
        for a, b in self.rows:
            if a > b:
                raise ValueError("empty row in interval")
        for (a, b), (a2, b2) in zip(self.rows, self.rows[1:]):
            if not (a2 <= a and b2 <= b and a <= b2):
                raise ValueError(f"rows {(a, b)} -> {(a2, b2)} do not form an interval")
        object.__setattr__(self, "_hash", hash((self.y0, self.rows)))

    def __hash__(self) -> int:
        return self._hash

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

    def antichains(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(minimal points, maximal points), each in ascending x (descending
        y), in one walk up the rows: the lowest row of each run of equal
        starts holds a minimal point, the highest row of each run of equal
        ends a maximal one.

        Every point of a fence lies between a point of its antichain and a
        corner, the join of consecutive minimal points (lower fence) or the
        meet of consecutive maximal points (upper fence), so by convexity
        the fences stay inside once the corners do.  The walk checks each
        corner as it meets it and raises AssertionError if one is outside.
        """
        (a, b), y = self.rows[0], self.y0
        mins, maxs = [(a, y)], []
        for a2, b2 in self.rows[1:]:
            y += 1
            x = mins[-1][0]
            if a2 < x:  # (a2, y) is minimal, and (x, y) its join with the last one
                if x > b2:
                    raise AssertionError(f"fence point {(x, y)} escaped the interval")
                mins.append((a2, y))
            if b2 < b:  # (b, y - 1) is maximal, and (b2, y - 1) its meet with the next
                if b2 < a:
                    raise AssertionError(f"fence point {(b2, y - 1)} escaped the interval")
                maxs.append((b, y - 1))
            a, b = a2, b2
        maxs.append((b, y))
        return tuple(reversed(mins)), tuple(reversed(maxs))

    # -- constructions --------------------------------------------------------

    def thicken(self, eps: int) -> "GridInterval":
        """Dilation by the sup-norm ball of radius eps (in the plane, never clipped)."""
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


class CanonicalMembers(tuple):
    """Distinct members in canonical order, built only by
    :func:`canonical_members` and the enumerators; being a tuple, it
    stays so.

    ``box`` is the :class:`GridBox` of the collection when it is every
    interval of a box within budgets, as :func:`canonical_grid_intervals`
    lists it, and None otherwise: a new tuple built from the members
    (a slice, a subsequence) carries no label.
    """

    box: "GridBox | None" = None


class GridBox:
    """Every interval of ``bbox`` = (x0, y0, x1, y1) within ``budgets`` =
    (minimal points, maximal points), as resolved by :func:`_budgets`.

    ``order[i]`` is the position in :func:`_keyed_walk`'s visit order of
    canonical member i, so a table filled in walk order (as
    :func:`box_antichains` feeds it) reads in canonical order through it.
    """

    __slots__ = ("bbox", "budgets", "order")

    def __init__(self, bbox: tuple[int, int, int, int], budgets: tuple[int, int], order: array):
        self.bbox, self.budgets, self.order = bbox, budgets, order


def canonical_members(items) -> CanonicalMembers:
    """The items sorted by their ``sort_key``: size, then sorted member list.

    The one sort of the library; ``ValueError`` when two items are equal
    as sets, and a :class:`CanonicalMembers` passes through in O(1).
    Plane intervals sort by the int keys of :func:`_frame_keys`, which
    order them as ``sort_key`` does; ``SubposetId``s, and intervals too
    far apart for int keys, by ``sort_key``.  Either key ties exactly on
    equal sets, so repeats end up side by side.
    """
    if type(items) is CanonicalMembers:
        return items
    items = list(items)
    keys = _frame_keys(items) if items and all(isinstance(it, GridInterval) for it in items) else None
    if keys is None:
        keys = [it.sort_key for it in items]
    order = sorted(range(len(items)), key=keys.__getitem__)
    if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
        raise ValueError("duplicate items in collection")
    return CanonicalMembers(map(items.__getitem__, order))


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
    object.__setattr__(gi, "_hash", hash((y0, rows)))
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
    mmin, mmax = _budgets(max_min_pts, max_max_pts)

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
    table never holds more rows than the walk pushes or the count
    (:func:`_subtree_size`) reaches.
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

    def count(self, row) -> int:
        """``len(self[row])``, without listing the rows."""
        a, b = row
        return (a - self.x0 + 1 if self.drop_a else 1) * (b - a + 1 if self.drop_b else 1)


def canonical_grid_intervals(bbox, max_min_pts=None, max_max_pts=None) -> CanonicalMembers:
    """All GridIntervals inside bbox = (x0, y0, x1, y1), in canonical order.

    The staircases of :func:`iter_grid_intervals` (its test oracle), with
    the same budgets, found by a depth-first walk up the rows on an
    explicit stack.  Each member is built once and carries its
    :func:`_frame_keys` key over the box as a running sum of memoised row
    terms, so one int sort puts the members in ``sort_key`` order without
    listing any points.  The members are distinct sets, so no keys tie.

    The result is labelled with its :class:`GridBox` (``box``): the box,
    the budgets and the sort permutation, so a layer recognises a full
    box in O(1) and can walk it again in the same order
    (:func:`box_antichains`) instead of reading its members one by one.
    """
    bbox = tuple(bbox)
    budgets = _budgets(max_min_pts, max_max_pts)
    items, keys = _keyed_walk(bbox, *budgets)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    out = CanonicalMembers(map(items.__getitem__, order))
    out.box = GridBox(bbox, budgets, array("q", order))
    return out


def _box_steps(x0: int) -> list[list[_Steps]]:
    """The step tables of a walk over a box starting at x0, by whether the
    start and the end may still drop; with neither, the one step repeats
    the row."""
    return [[_Steps(x0, drop_a, drop_b) for drop_b in (False, True)] for drop_a in (False, True)]


def _keyed_walk(bbox, mmin, mmax) -> tuple[list[GridInterval], list[int]]:
    """The members of :func:`canonical_grid_intervals` and their keys, in
    walk order.  The row memos go with this frame, before the sort."""
    x0, y0, x1, y1 = bbox
    h = y1 - y0 + 1
    n_bits = (x1 - x0 + 1) * h
    terms = [_RowTerms(n_bits, h, x0, n_bits - 1 - i) for i in range(h)]
    full = (1 << n_bits) - 1
    # rows whose start and end may not drop are repeated without a lookup
    steps = _box_steps(x0)
    items: list[GridInterval] = []
    keys: list[int] = []
    stack: list = []
    push, pop = stack.append, stack.pop
    for base in range(h):
        y = y0 + base
        for row in _iter_row_ranges(x0, x1):
            push(((row,), full + terms[base][row], mmin - 1, mmax - 1))
            while stack:
                rows, key, left_min, left_max = pop()
                items.append(_staircase(y, rows))
                keys.append(key)
                top = base + len(rows)
                if top == h:
                    continue
                term, row = terms[top], rows[-1]
                drop_a, drop_b = left_min > 0, left_max > 0
                if drop_a or drop_b:
                    for row2, new_min, new_max in steps[drop_a][drop_b][row]:
                        push((rows + (row2,), key + term[row2], left_min - new_min, left_max - new_max))
                else:
                    push((rows + (row,), key + term[row], left_min, left_max))
    return items, keys


def _subtree_size(sizes: dict, steps, y1: int, root) -> int:
    """The number of members in the walk's subtree at ``root`` = (top row,
    height, minimal points left, maximal points left), up to height y1.

    ``sizes`` is the one table of subtree sizes, filled on an explicit
    stack, children first, so a box of any height takes no recursion.
    With no budget the points left stay ``inf``: one state per (row,
    height).  A state that can drop neither way heads a column, and one
    just below y1 has a one-row child per step: both are counted, not
    walked.
    """
    stack = [root]
    while stack:
        state = stack[-1]
        if state in sizes:  # counted since it was pushed
            stack.pop()
            continue
        row, y, left_min, left_max = state
        drop_a, drop_b = left_min > 0, left_max > 0
        if y == y1 or not (drop_a or drop_b):
            sizes[state] = y1 - y + 1
        elif y + 1 == y1:
            sizes[state] = 1 + steps[drop_a][drop_b].count(row)
        else:
            kids = [(row2, y + 1, left_min - new_min, left_max - new_max)
                    for row2, new_min, new_max in steps[drop_a][drop_b][row]]
            todo = [kid for kid in kids if kid not in sizes]
            if todo:
                stack += todo
                continue
            sizes[state] = 1 + sum(map(sizes.__getitem__, kids))
        stack.pop()
    return sizes[root]


def box_antichains(box: GridBox, live):
    """Per member of the box, in :func:`_keyed_walk`'s visit order, its
    ``GridInterval.antichains()``, or None when one of its rows is not
    live: ``live[y - y0]`` holds the rows (a, b) allowed at height y.

    The same depth-first walk up the rows over the same step tables and
    budgets left, with no member built.  A stack entry carries its top
    row's antichains: going up to (a2, b2) from (a, b), a drop of the
    start prepends the minimal point (a2, y), and the new top (b2, y) is
    prepended to the maximal points, replacing the old top (b, y - 1)
    unless the end dropped.  Where a point is added the walk checks the
    corner between it and its neighbour, the join (a, y) or the meet
    (b2, y - 1), and raises AssertionError if it leaves the interval, as
    ``antichains`` does.  A row that is not live makes its whole subtree
    dead: the walk yields one None per member of it, counted
    (:func:`_subtree_size`), not walked.
    """
    x0, y0, x1, y1 = box.bbox
    mmin, mmax = box.budgets
    steps, sizes, stack = _box_steps(x0), {}, []
    push, pop = stack.append, stack.pop
    for base in range(y0, y1 + 1):
        roots = live[base - y0]
        for row in _iter_row_ranges(x0, x1):
            push((row, base, mmin - 1, mmax - 1,
                  (((row[0], base),), ((row[1], base),)) if row in roots else None))
            while stack:
                row, y, left_min, left_max, ext = pop()
                if ext is None:
                    yield from repeat(None, _subtree_size(sizes, steps, y1, (row, y, left_min, left_max)))
                    continue
                yield ext
                if y == y1:
                    continue
                a, up = row[0], y + 1
                ok, (low, high) = live[up - y0], ext
                for row2, new_min, new_max in steps[left_min > 0][left_max > 0][row]:
                    if row2 not in ok:
                        push((row2, up, left_min - new_min, left_max - new_max, None))
                        continue
                    a2, b2 = row2
                    if b2 < a:
                        corner = (a, up) if new_min else (b2, y)
                        raise AssertionError(f"fence point {corner} escaped the interval")
                    push((row2, up, left_min - new_min, left_max - new_max,
                          (((a2, up),) + low if new_min else low,
                           ((b2, up),) + (high if new_max else high[1:]))))


def _budgets(max_min_pts, max_max_pts) -> tuple:
    """The min/max point budgets: a given budget must be >= 1, and a
    missing one is ``inf``, which the walks' drops never use up."""
    budgets = tuple(inf if n is None else n for n in (max_min_pts, max_max_pts))
    if min(budgets) < 1:
        raise ValueError("min/max point budgets must be >= 1")
    return budgets


def _count_past(width: int, height: int, max_min_pts, max_max_pts, cap=inf) -> int:
    """The number of intervals of a width x height window within the
    budgets, or the running total once it passes ``cap``: the one-row
    members of the top height, then the walk's subtree sizes at the roots
    of each lower height, going down (:func:`_subtree_size`)."""
    mmin, mmax = _budgets(max_min_pts, max_max_pts)
    steps, sizes, top = _box_steps(0), {}, height - 1
    total = width * (width + 1) // 2
    for y in range(top - 1, -1, -1):
        for row in _iter_row_ranges(0, width - 1):
            if total > cap:
                return total
            total += _subtree_size(sizes, steps, top, (row, y, mmin - 1, mmax - 1))
    return total


def count_grid_intervals(width: int, height: int, max_min_pts=None, max_max_pts=None) -> int:
    """Interval count of a width x height window without enumeration,
    from the subtree sizes of :func:`canonical_grid_intervals`'s walk."""
    return _count_past(width, height, max_min_pts, max_max_pts)


def check_interval_cap(width: int, height: int, max_min_pts, max_max_pts, cap: int) -> None:
    """Raise EnumerationCapError when a width x height window has more than
    ``cap`` intervals within the budgets, counted only that far."""
    if _count_past(width, height, max_min_pts, max_max_pts, cap) > cap:
        raise EnumerationCapError(
            f"more than the cap of {cap} intervals; raise the cap explicitly to proceed"
        )


def enumerate_grid_intervals(
    poset: FinitePoset,
    max_min_pts=None,
    max_max_pts=None,
    cap: int = DEFAULT_INTERVAL_CAP,
) -> CanonicalMembers:
    """Intervals of a grid window, canonical order, guarded by the cap."""
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
) -> CanonicalMembers:
    """All intervals with at most the given numbers of minimal/maximal points.

    Grid windows give their plane intervals; other posets fall back to
    the brute-force subset filter (exponential, so capped by element
    count), by size, then lexicographically: canonical order.  With
    budgets (1, 1) this is exactly the set of segments [p, q].
    """
    if poset.grid_coords is not None:
        return enumerate_grid_intervals(poset, max_min_pts, max_max_pts, cap)
    if poset.n > 20:
        raise EnumerationCapError(
            f"brute-force interval enumeration over {poset.n} elements refused"
        )
    if 2**poset.n - 1 > cap:
        raise EnumerationCapError(f"2^{poset.n} subsets exceed the cap of {cap}")

    def keep(ms):
        return (poset.is_interval_subset(ms)
                and (max_min_pts is None or len(poset.minimal_of(ms)) <= max_min_pts)
                and (max_max_pts is None or len(poset.maximal_of(ms)) <= max_max_pts))

    return _subsets(poset, keep)


def enumerate_connected(poset: FinitePoset, cap: int = DEFAULT_CONNECTED_CAP) -> CanonicalMembers:
    """All connected nonempty subsets, canonical order. Exponential: capped."""
    if poset.n > cap:
        raise EnumerationCapError(
            f"connected-subset enumeration over {poset.n} > {cap} elements refused"
        )
    return _subsets(poset, poset.is_connected_subset)


def _subsets(poset: FinitePoset, keep) -> CanonicalMembers:
    """The nonempty subsets that ``keep`` accepts, as SubposetIds, by size
    and then lexicographically: canonical order."""
    return CanonicalMembers(SubposetId(ms)
                            for size in range(1, poset.n + 1)
                            for ms in combinations(range(poset.n), size)
                            if keep(ms))


def enumerate_segments(poset: FinitePoset) -> CanonicalMembers:
    """Segments [p, q] for p <= q, canonical order.  [p, q] has p as its
    unique minimum and q as its unique maximum, so no two coincide as sets."""
    return canonical_members(SubposetId(poset.segment(a, b))
                             for a in range(poset.n) for b in poset.up_ids(a))


# -- boundary fences -------------------------------------------------------------


def fence_turns(ext, lower: bool) -> tuple[tuple[int, int], ...]:
    """The turning points of the fence threading an antichain in ascending x.

    The lower fence through minimal points p0, p1, ... turns at the joins:
    p0 -> (x1, y0) <- p1 -> (x2, y1) <- ...  The upper fence through
    maximal points q0, q1, ... turns at the meets: q0 <- (x0, y1) -> q1 ...
    Between two turns the fence is a straight leg of unit steps, a chain.
    """
    pts = [ext[0]]
    for (x0, y0), (x1, y1) in zip(ext, ext[1:]):
        pts += ((x1, y0) if lower else (x0, y1), (x1, y1))
    return tuple(pts)


def straight_path(turns) -> tuple[tuple[int, int], ...]:
    """The unit-step path through the turns, each consecutive pair joined
    by a straight leg (they share a row or a column); a repeated turn
    adds no point."""
    x, y = turns[0]
    pts = [(x, y)]
    for x1, y1 in turns[1:]:
        if y1 == y:
            step = 1 if x1 > x else -1
            while x != x1:
                x += step
                pts.append((x, y))
        elif x1 == x:
            step = 1 if y1 > y else -1
            while y != y1:
                y += step
                pts.append((x, y))
        else:
            raise ValueError(f"turns {(x, y)} and {(x1, y1)} share no row or column")
    return tuple(pts)


def lower_fence(gi: GridInterval) -> tuple[tuple[int, int], ...]:
    """The lower fence of ``gi``: the shortest faithful path through its
    minimal points, each leg running right to a join and then down.  It
    stays inside ``gi``."""
    return straight_path(fence_turns(gi.antichains()[0], lower=True))


def upper_fence(gi: GridInterval) -> tuple[tuple[int, int], ...]:
    """The upper fence of ``gi``: the shortest faithful path through its
    maximal points, each leg running down to a meet and then right.  It
    stays inside ``gi``."""
    return straight_path(fence_turns(gi.antichains()[1], lower=False))


# -- the containment poset -----------------------------------------------------


class Supersets:
    """Which indexed members contain a given member: the one containment index.

    For every point (plane coordinates of a ``GridInterval``, ids of a
    ``SubposetId``), the Python-int bitset of the members that contain it
    (bit j for member j).  The members containing I are the AND of those
    bitsets over I's points: |I| big-int ANDs in C.  Points are filed by
    row, ``_rows[y][x]`` for the point (x, y) and ``_rows[None][i]`` for
    id i, so a plane interval is read row range by row range without
    listing its points.  Built in one batch over a whole collection, one
    bytearray per point set bit by bit; ``add`` grows an index over a
    support.
    """

    __slots__ = ("_size", "_rows")

    def __init__(self, members=()):
        self._size = n = len(members)
        nbytes = -(-n // 8)
        rows: dict = {}
        for j, it in enumerate(members):
            byte, bit = j >> 3, 1 << (j & 7)
            for y, xs in _lines(it):
                line = rows.get(y)
                if line is None:
                    line = rows[y] = {}
                for x in xs:
                    packed = line.get(x)
                    if packed is None:
                        packed = line[x] = bytearray(nbytes)
                    packed[byte] |= bit
        self._rows = {y: {x: int.from_bytes(packed, "little") for x, packed in line.items()}
                      for y, line in rows.items()}

    def add(self, member) -> None:
        """Index one more member, as the next bit."""
        bit = 1 << self._size
        self._size += 1
        for y, xs in _lines(member):
            line = self._rows.setdefault(y, {})
            for x in xs:
                line[x] = line.get(x, 0) | bit

    def containing(self, member) -> int:
        """Bitset of the indexed members that contain the member."""
        mask = -1  # every bit, until the first point's bitset
        for y, xs in _lines(member):
            line = self._rows.get(y)
            if line is None:
                return 0
            for x in xs:
                mask &= line.get(x, 0)
                if not mask:
                    return 0
        return mask

    def within(self, member) -> int:
        """Bitset of the indexed members that the member contains: those
        with no point outside it."""
        outside = 0
        inside = {y: set(xs) for y, xs in _lines(member)}
        for y, line in self._rows.items():
            xs = inside.get(y, ())
            for x, bits in line.items():
                if x not in xs:
                    outside |= bits
        return (1 << self._size) - 1 & ~outside


def _lines(member):
    """The member's points by row: (y, x range) per row of a plane interval,
    one (None, ids) for a ``SubposetId``."""
    if isinstance(member, GridInterval):
        return [(y, range(a, b + 1)) for y, (a, b) in enumerate(member.rows, member.y0)]
    return [(None, member.members)]


def bitset(indices, n: int) -> int:
    """The int with exactly the given bits set, all below n."""
    packed = bytearray(-(-n // 8))
    for j in indices:
        packed[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(packed, "little")


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


def containment_poset(items) -> ContainmentPoset:
    """The collection in canonical order, ordered by reverse inclusion.

    The down-set of member j is the bitset of the members containing it,
    and its up-set that of the members it contains, both read from one
    :class:`Supersets` index.
    """
    items = canonical_members(items)
    sup = Supersets(items)
    return ContainmentPoset(items, FinitePoset([sup.within(it) for it in items],
                                                   [sup.containing(it) for it in items]))
