"""Persistence modules over finite posets.

A module assigns a GF(p) vector space dimension to every element and a
matrix to every Hasse edge, stored as rows of Python ints; composites
along cover paths (`PModule.transition`) are int rows too, cached per
module, so no numpy product touches a module map.  Functoriality (path
independence of the composed matrices) is validated at construction by
one rule on every poset and size: paths into an element through two of
its lower covers agree at their maximal common lower bounds (unit squares
on a full grid window; see `PModule._check_functorial`).  Limits and colimits
are the kernels of the stacked cover-edge constraints (on sections, and
on the functionals that vanish on the relations), which suffices once
functoriality holds; the test suite checks this against an
all-comparable-pairs oracle rather than assuming it.  They are the
general rank route and the oracle of the grid fast path, which solves
each interval's two boundary fences with the zigzag sweep step
(`sweep_step`, shared with path barcodes), one step per fence leg
between its turning points, memoised per module by the interval's
minimal and maximal antichains (see `generalized_ranks_fast`, the loop
that ranks a whole collection; a full box feeds it from one walk of the
box, `posets.box_antichains`, instead of member by member).  Each
module interns the reduced bases
it reaches (`_intern`), so its memos key on small subspace ids: the
fences, one memo of subspace moves that every sweep step goes through
(`_move`) and one memo of rank(Q E) per pair of ids (`_pair_rank`).
Both routes run on rows of Python ints through the `gf` row routines.

A module whose poset has grid coordinates is extended by zero: it is
regarded as a plane module that vanishes outside its points, so ranks
over subsets that leave them are zero without materialising anything
infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from typing import TYPE_CHECKING

from .gf import (DEFAULT_P, MAX_DIM, check_modulus, kernel_rows, mul_rows, pull_rows,
                 random_invertible, rows_from_lines, rows_to_text, rref_rows)
from .posets import (FinitePoset, GridInterval, SubposetId, box_antichains, check_ids, content_lines,
                     fence_turns)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SectionSpace:
    """Basis of the space of sections (the limit) of a module.

    ``vectors`` are the sections, one int row each; coordinates are
    stacked over the poset's elements in id order, ``offsets[i]`` giving
    the first coordinate of element i.
    """

    vectors: list[list[int]]
    offsets: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _columns(rows: list[list[int]], width: int) -> list[list[int]]:
    """The columns of a matrix given by its rows; rows alone lose the width when empty."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(width)]


def _shape(m) -> tuple[int, ...]:
    """The shape of a map given as int rows or a numpy array; rows alone
    lose the width when there are none."""
    if hasattr(m, "shape"):
        return tuple(m.shape)
    widths = {len(row) for row in m}
    if len(widths) > 1:
        raise ValueError("map rows of different lengths")
    return (len(m), *widths)


def _window_holds(geom, gi: GridInterval) -> bool:
    """Whether gi lies in the window of ``PModule._window_geometry()`` geom.

    The top row of a staircase starts leftmost and its bottom row ends
    rightmost (see ``GridInterval.bbox``), so two rows bound it in x.
    """
    ox, oy, w, h, _ = geom
    rows, y = gi.rows, gi.y0 - oy
    return y >= 0 and y + len(rows) <= h and rows[-1][0] >= ox and rows[0][1] < ox + w


def _rank_forced_zero(geom, gi: GridInterval) -> bool:
    """The trivial-zero filter: gi leaves the window of geom or touches a
    zero-dimensional point, so its rank is 0 without any sweep."""
    if not _window_holds(geom, gi):
        return True
    ox, oy, _, _, zeros = geom
    for y, (a, b) in enumerate(gi.rows, gi.y0 - oy):
        pre = zeros[y]
        if pre[b - ox + 1] != pre[a - ox]:
            return True
    return False


# the token count of each module-file header line
_HEADER_TOKENS = {"field": 2, "dims": 3, "map": 3}


class PModule:
    """A functor from a finite poset to GF(p) vector spaces.

    ``maps[(a, b)]``, the map on a cover a -> b, is ``dims[b]`` int rows of
    residues; the constructor also takes numpy arrays.  On a poset with
    grid coordinates the module is extended by zero off its points.
    """

    __slots__ = ("poset", "dims", "maps", "p", "_trans", "_window_idx", "_window_geom",
                 "_fences", "_moves", "_sids", "_bases", "_pair_ranks", "_spans",
                 "_span_candidates")

    def __init__(self, poset: FinitePoset, dims, maps, p: int = DEFAULT_P,
                 validate: bool = True):
        self.poset = poset
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != poset.n or any(d < 0 for d in self.dims):
            raise ValueError("dims must list one nonnegative dimension per element")
        if any(d > MAX_DIM for d in self.dims):
            raise ValueError(f"dimensions above {MAX_DIM} are not supported")
        check_modulus(p)
        if validate:
            self._check_shapes(maps)
        self.maps = {(int(a), int(b)): [[int(v) % p for v in row] for row in m]
                     for (a, b), m in maps.items()}
        self.p = p
        self._window_idx = poset.id_of_coord() if poset.grid_coords is not None else None
        self._clear_memos()
        if validate:
            self._check_functorial()

    def _clear_memos(self):
        """Forget every memo: transitions, window geometry, fence sweeps,
        subspace moves, the intern table of reduced bases, the ranks of
        (E, Q) pairs and the exact spans of ``zigzag.gri_bounds_from_zib``."""
        self._trans = {}
        self._window_geom = None
        self._fences = {}
        self._moves = {}
        self._sids = {(): 0}  # reduced basis -> subspace id; 0 is the zero subspace
        self._bases = [()]  # subspace id -> reduced basis
        self._pair_ranks = {}
        self._spans = {}
        self._span_candidates = None

    # -- construction-time checks -----------------------------------------

    def _check_shapes(self, maps):
        cover_set = set(self.poset.covers)
        for (a, b), m in maps.items():
            a, b = int(a), int(b)
            if (a, b) not in cover_set:
                raise ValueError(f"map on non-cover pair ({a}, {b})")
            shape = _shape(m)
            # a list without rows carries no width
            if shape != (self.dims[b], self.dims[a]) and not (shape == (0,) and not self.dims[b]):
                raise ValueError(
                    f"map {a}->{b} has shape {shape}, expected {(self.dims[b], self.dims[a])}"
                )

    def _edge(self, a: int, b: int) -> list[list[int]]:
        m = self.maps.get((a, b))
        if m is None:
            return [[0] * self.dims[a] for _ in range(self.dims[b])]
        return m

    def _check_functorial(self):
        """Path independence, by one rule on every poset: for each element d
        and pair of its lower covers ci, cj, map(ci, d) T(a, ci) must equal
        map(cj, d) T(a, cj) at each maximal common lower bound a of ci and cj.
        A failure exhibits two path composites a -> d.  Passing is complete,
        by induction up a linear extension: a path a -> d ends in a cover
        c -> d; for last covers ci != cj pick a maximal common bound m >= a,
        and T(a, c) = T(m, c) T(a, m) below d carries agreement at m down to a.
        On a full grid window the bounds are the unit squares' origins.

        One sweep up a linear extension (grid rows bottom-up, naming the
        lowest, leftmost fault) builds down-set and upper-cover bitsets and
        walks the bounds: from the top of what is left of down(ci) & down(cj),
        climb upper covers to a maximal a, check it, drop down(a).  Chains
        and trees have no pairs to check.
        """
        poset, p, dims, low = self.poset, self.p, self.dims, self.poset.lower_covers
        coords = poset.grid_coords
        order = (poset.topological_order() if coords is None
                 else sorted(range(poset.n), key=lambda i: coords[i][::-1]))
        down, up = [0] * poset.n, [0] * poset.n
        for d in order:
            down[d] = bit = 1 << d
            for c in low[d]:
                down[d] |= down[c]
                up[c] |= bit
            for ci, cj in combinations(low[d], 2):
                rest = down[ci] & down[cj]
                while rest:
                    a = rest.bit_length() - 1
                    while above := up[a] & rest:
                        a = above.bit_length() - 1
                    rest &= ~down[a]
                    # read a cover's map directly: transition() is the slow route
                    t_i = self._edge(a, ci) if a in low[ci] else self.transition(a, ci)
                    t_j = self._edge(a, cj) if a in low[cj] else self.transition(a, cj)
                    if (mul_rows(self._edge(ci, d), _columns(t_i, dims[a]), p)
                            != mul_rows(self._edge(cj, d), _columns(t_j, dims[a]), p)):
                        unit = coords is not None and coords[d] == tuple(v + 1 for v in coords[a])
                        where = (f"on the unit square from {coords[a]} to {coords[d]}" if unit
                                 else f"between {a} and {d} (via covers {ci}->{d} and {cj}->{d})")
                        raise ValueError(f"functoriality violated {where}")

    # -- basic queries -------------------------------------------------------

    def transition(self, a: int, b: int, transpose: bool = False) -> list[list[int]]:
        """T(a, b), the composite along any cover path a -> b (a <= b), as int
        rows, or the rows of its transpose; cached per module."""
        key = (a, b, transpose)
        rows = self._trans.get(key)
        if rows is not None:
            return rows
        if a == b:
            d = self.dims[a]
            rows = [[int(r == c) for c in range(d)] for r in range(d)]
        elif transpose:
            rows = _columns(self.transition(a, b), self.dims[a])
        elif not self.poset.le(a, b):
            raise ValueError(f"{a} <= {b} does not hold")
        else:
            # the last cover step c -> b of some path from a
            c = next(c for c in self.poset.lower_covers[b] if self.poset.le(a, c))
            rows = mul_rows(self._edge(c, b), _columns(self.transition(a, c), self.dims[a]), self.p)
        self._trans[key] = rows
        return rows

    def window_origin_size(self) -> tuple[tuple[int, int], tuple[int, int]]:
        ox, oy, w, h, _ = self._window_geometry()
        return (ox, oy), (w, h)

    def contains_interval(self, gi: GridInterval) -> bool:
        return _window_holds(self._window_geometry(), gi)

    def _window_geometry(self):
        """(x origin, y origin, width, height, zero prefix counts per window
        row), built once.

        ``zeros[y - oy][k]`` counts the zero-dimensional points among the
        first k points of window row y, so the row segment from x = a to
        x = b avoids them iff ``zeros[y - oy][b - ox + 1] == zeros[y - oy][a - ox]``.
        """
        if self._window_geom is None:
            coords = self.poset.grid_coords
            if coords is None:
                raise ValueError("module is not on a grid window")
            xs = [x for x, _ in coords]
            ys = [y for _, y in coords]
            ox, oy = min(xs), min(ys)
            is_zero = [[1] * (max(xs) - ox + 1) for _ in range(max(ys) - oy + 1)]
            for i, (x, y) in enumerate(coords):
                is_zero[y - oy][x - ox] = int(self.dims[i] == 0)
            zeros = [[0, *accumulate(row)] for row in is_zero]
            self._window_geom = (ox, oy, len(is_zero[0]), len(is_zero), zeros)
        return self._window_geom

    # -- derived modules -------------------------------------------------------

    def restrict(self, members) -> "PModule":
        """Induced submodule on a subset of elements (a new, smaller poset)."""
        ms = sorted(set(int(m) for m in members))
        sub = self.poset.induced(ms)
        dims = [self.dims[m] for m in ms]
        maps = {}
        for a, b in sub.covers:
            maps[(a, b)] = self.transition(ms[a], ms[b])
        return PModule(sub, dims, maps, self.p, validate=False)

    def direct_sum(self, other: "PModule") -> "PModule":
        if other.poset.up != self.poset.up:
            raise ValueError("direct sum needs the same poset")
        if other.p != self.p:
            raise ValueError("field mismatch")
        dims = [d1 + d2 for d1, d2 in zip(self.dims, other.dims)]
        maps = {}
        for a, b in self.poset.covers:
            right, left = [0] * other.dims[a], [0] * self.dims[a]
            maps[(a, b)] = ([row + right for row in self._edge(a, b)]
                            + [left + row for row in other._edge(a, b)])
        return PModule(self.poset, dims, maps, self.p, validate=False)

    def __add__(self, other: "PModule") -> "PModule":
        return self.direct_sum(other)

    def scramble(self, rng: np.random.Generator) -> "PModule":
        """An isomorphic copy via a random basis change at every element."""
        p = self.p
        bas = [random_invertible(rng, d, p) for d in self.dims]
        # mul_rows(x, y) is x y^T, so B M A^-1 = mul_rows(B, mul_rows(A^-T, M))
        rows, inv_t = [m.a.tolist() for m in bas], [m.inverse().a.T.tolist() for m in bas]
        maps = {}
        for a, b in self.poset.covers:
            maps[(a, b)] = mul_rows(rows[b], mul_rows(inv_t[a], self._edge(a, b), p), p)
        return PModule(self.poset, self.dims, maps, self.p, validate=False)

    # -- serialisation -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [self.poset.to_text(), f"field {self.p}"]
        for i, d in enumerate(self.dims):
            if d:
                lines.append(f"dims {i} {d}")
        for a, b in self.poset.covers:
            if self.dims[a] and self.dims[b]:
                lines.append(f"map {a} {b}")
                lines.append(rows_to_text(self._edge(a, b), self.dims[a]))
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "PModule":
        lines = content_lines(text)
        poset, i = FinitePoset._from_lines(lines, 0)
        p = None
        dims, maps, widths = {}, {}, {}
        while i < len(lines):
            line, toks = lines[i], lines[i].split()
            i += 1
            if len(toks) != _HEADER_TOKENS.get(toks[0], len(toks)):
                raise ValueError(f"malformed {toks[0]} line: {line!r}")
            if toks[0] == "field":
                if p is not None:
                    raise ValueError(f"repeated field line: {line!r}")
                p = int(toks[1])
            elif toks[0] == "dims":
                a = int(toks[1])
                if a in dims or not 0 <= a < poset.n:
                    raise ValueError(f"repeated or out-of-range dims line: {line!r}")
                dims[a] = int(toks[2])
            elif toks[0] == "map":
                a, b = int(toks[1]), int(toks[2])
                if (a, b) in maps:
                    raise ValueError(f"repeated map line: {line!r}")
                maps[(a, b)], widths[(a, b)], i = rows_from_lines(lines, i)
            else:
                raise ValueError(f"unrecognised module line: {line!r}")
        dims = [dims.get(a, 0) for a in range(poset.n)]
        for (a, b), rows in maps.items():
            # a block without rows declares its width only in its header
            if not rows and widths[(a, b)] != dims[a] and (a, b) in poset.covers:
                raise ValueError(f"map {a}->{b} has shape {(0, widths[(a, b)])}, "
                                 f"expected {(dims[b], dims[a])}")
        return cls(poset, dims, maps, DEFAULT_P if p is None else p)


# -- module constructors ------------------------------------------------------


def interval_module(poset: FinitePoset, members, p: int = DEFAULT_P) -> PModule:
    """The module with dimension 1 on the interval, identities inside it."""
    ms = set(int(m) for m in members)
    if not poset.is_interval_subset(ms):
        raise ValueError("support is not an interval")
    dims = [1 if i in ms else 0 for i in range(poset.n)]
    maps = {(a, b): [[1]] for a, b in poset.covers if a in ms and b in ms}
    return PModule(poset, dims, maps, p, validate=False)


def zero_module(poset: FinitePoset, p: int = DEFAULT_P) -> PModule:
    return PModule(poset, [0] * poset.n, {}, p, validate=False)


def grid_interval_module(window: FinitePoset, gi: GridInterval, p: int = DEFAULT_P) -> PModule:
    idx = window.id_of_coord()
    return interval_module(window, [idx[pt] for pt in gi.points()], p)


def direct_sum(*mods: PModule) -> PModule:
    out = mods[0]
    for m in mods[1:]:
        out = out.direct_sum(m)
    return out


def pullback(n_module: PModule, pi, target_poset: FinitePoset) -> PModule:
    """The pullback along an order-preserving map pi: target -> source poset.

    ``pi`` maps each target id to a source id; monotonicity is validated on
    the target's covers.
    """
    pi = [int(pi[i]) for i in range(target_poset.n)]
    src = n_module.poset
    for a, b in target_poset.covers:  # complete by transitivity
        if not src.le(pi[a], pi[b]):
            raise ValueError(f"map is not order-preserving at ({a}, {b})")
    dims = [n_module.dims[pi[a]] for a in range(target_poset.n)]
    maps = {}
    for a, b in target_poset.covers:
        maps[(a, b)] = n_module.transition(pi[a], pi[b])
    return PModule(target_poset, dims, maps, n_module.p, validate=False)


# -- limits, colimits, ranks -----------------------------------------------------


def _cover_constraints(module: PModule, what: str, transpose: bool):
    """(offsets, rows) of the cover constraints over the stacked coordinates.

    For each cover a -> b with map M: sections satisfy x_b - M x_a = 0
    (d_b rows); with ``transpose``, functionals vanishing on the relations
    satisfy f_a - M^T f_b = 0 (d_a rows).
    """
    if not module.poset.is_connected_subset(range(module.poset.n)):
        raise ValueError(f"{what} requires a connected poset")
    offs = tuple(accumulate(module.dims, initial=0))
    p = module.p
    rows = []
    for a, b in module.poset.covers:
        own, other = (a, b) if transpose else (b, a)
        for i, m_row in enumerate(module.transition(a, b, transpose)):
            row = [0] * offs[-1]
            row[offs[own] + i] = 1
            row[offs[other] : offs[other + 1]] = [-v % p for v in m_row]
            rows.append(row)
    return offs, rows


def limit(module: PModule) -> SectionSpace:
    """The space of sections, as the kernel of the stacked cover constraints."""
    offs, rows = _cover_constraints(module, "limit", transpose=False)
    return SectionSpace(kernel_rows(rows, offs[-1], module.p), offs)


def colimit(module: PModule) -> tuple[int, list[list[int]]]:
    """Quotient of the direct sum by the cover-edge relations.

    Returns (dim, functionals): int rows on the stacked coordinates, a
    basis of the functionals that vanish on every relation (v at a) minus
    (M v at b), so together they map the direct sum onto the colimit.
    """
    offs, rows = _cover_constraints(module, "colimit", transpose=True)
    proj = kernel_rows(rows, offs[-1], module.p)
    return len(proj), proj


def _rank_of_restriction(module: PModule, ms: list[int]) -> int:
    sub = module.restrict(ms)
    if any(d == 0 for d in sub.dims):
        return 0
    sections = limit(sub)
    if sections.dim == 0:
        return 0
    qdim, proj = colimit(sub)
    if qdim == 0:
        return 0
    lo, hi = sections.offsets[:2]
    e = [v[lo:hi] for v in sections.vectors]
    q = [f[lo:hi] for f in proj]
    return len(rref_rows(mul_rows(e, q, module.p), qdim, module.p)[1])


def _members_of(module: PModule, region) -> list[int] | None:
    """Resolve a region (SubposetId | GridInterval | id-iterable) to ids.

    Returns None when the region leaves the module's points, in which case
    every rank over it vanishes.
    """
    if isinstance(region, GridInterval):
        idx = module._window_idx
        if idx is None:
            raise ValueError("grid interval given for a module without coordinates")
        ids = [idx.get(pt) for pt in region.points()]
        return None if None in ids else ids
    ids = list(region.members) if isinstance(region, SubposetId) else [int(i) for i in region]
    check_ids(ids, module.poset.n)
    return ids


def generalized_rank(module: PModule, region) -> int:
    """Rank of the canonical limit-to-colimit map of the restriction.

    Zero whenever some point of the region carries the zero space (in
    particular whenever the region leaves the module's points).
    """
    ms = _members_of(module, region)
    if ms is None:
        return 0
    if not ms:
        raise ValueError("empty region")
    if not module.poset.is_connected_subset(ms):
        raise ValueError("region must be connected")
    if any(module.dims[m] == 0 for m in ms):
        return 0
    return _rank_of_restriction(module, ms)


def sweep_step(module: PModule, a: int, b: int, rows, dual: bool):
    """One step of the zigzag sweep, from element a to a comparable element b.

    ``rows`` (E: limit -> V_a) hold the images in V_a of vectors spanning
    the limit of the zigzag swept so far or, when ``dual``, (Q: V_a ->
    colimit) the functionals on V_a spanning the coordinates of its
    colimit, as int rows; returns them moved to V_b.  Along M: V_a -> V_b,
    E is pushed forward by M and Q is pulled back along M^T (the pushout,
    as the pullback of the dual functionals); along M: V_b -> V_a, E is
    pulled back along M and Q is composed with M.  Only the span matters:
    the rows may be dependent, and the span moved to depends on it alone.
    """
    forward = module.poset.le(a, b)
    m = module.transition(*((a, b) if forward else (b, a)), transpose=dual)
    if forward != dual:
        return mul_rows(rows, m, module.p)
    return pull_rows(rows, m, module.dims[b], module.p)


@cache
def _identity(d: int) -> tuple[tuple[int, ...], ...]:
    """The reduced basis of a whole space of dimension d, built once per d
    (the tuples are immutable, so every caller shares them)."""
    return tuple(tuple(int(r == c) for c in range(d)) for r in range(d))


def _basis(rows, width: int, p: int) -> tuple[tuple[int, ...], ...]:
    """A basis of the span of the rows, as tuples: hashable, for the intern table."""
    rows, pivots = rref_rows(rows, width, p)
    return tuple(map(tuple, rows[:len(pivots)]))


def _intern(module: PModule, basis) -> int:
    """The id of a reduced basis in the module's intern table: ``_sids``
    maps each basis to its id and ``_bases`` lists them by id, so the
    memos key on small ints instead of hashing nested tuples.  Reduced
    bases are canonical, so equal ids mean equal subspaces; the zero
    subspace is id 0, so a falsy id means rank 0."""
    sid = module._sids.get(basis)
    if sid is None:
        sid = module._sids[basis] = len(module._bases)
        module._bases.append(basis)
    return sid


def _move(module: PModule, dual: bool, a: int, b: int, sid: int) -> int:
    """The subspace id at b of ``sweep_step`` from subspace id ``sid`` at
    a, memoised per module: the step depends only on the span and reduced
    bases are canonical, so every sweep reaching one subspace shares it."""
    key = (dual, a, b, sid)
    hit = module._moves.get(key)
    if hit is None:
        rows = sweep_step(module, a, b, module._bases[sid], dual)
        hit = module._moves[key] = _intern(module, _basis(rows, module.dims[b], module.p))
    return hit


def _rank_at(e, q, p: int) -> int:
    """rank(Q E) at one point, from reduced bases of E and Q there (rows
    of the point's dimension): an elimination only when neither spans the
    space."""
    if not e or not q:
        return 0
    width = len(e[0])
    if len(e) == width:
        return len(q)
    if len(q) == width:
        return len(e)
    return len(rref_rows(mul_rows(e, q, p), len(q), p)[1])


def _pair_rank(module: PModule, se: int, sq: int) -> int:
    """rank(Q E) from the subspace ids of E and Q at one point, memoised
    per module by the pair of ids (the rank depends on the two bases alone)."""
    key = (se, sq)
    rank = module._pair_ranks.get(key)
    if rank is None:
        rank = module._pair_ranks[key] = _rank_at(module._bases[se], module._bases[sq], module.p)
    return rank


def _fence_solve(module: PModule, ext, lower: bool) -> tuple[int, int]:
    """(last fence id, subspace id of E or Q there), memoised.

    The key is the antichain ``ext`` that fixes the fence; its turning
    points are listed only on a miss.  One sweep from the identity at the
    first point, one `_move` per leg, with each leg's composite
    ``PModule.transition``: 2k steps for an antichain of k + 1 points.  A
    lower fence keeps only E, an upper fence only Q.  The points of a
    fence induce exactly the path's covers, so E spans the image of the
    fence's limit and Q the coordinates of its colimit.  A leg is a chain,
    over which the limit and colimit restrict isomorphically to its ends,
    and pushforwards and pullbacks compose, so the spans (and their
    reduced bases) are those of a sweep through every fence point.
    """
    key = (lower, ext)
    hit = module._fences.get(key)
    if hit is None:
        idx = module._window_idx
        ids = [idx[pt] for pt in fence_turns(ext, lower)]
        sid = _intern(module, _identity(module.dims[ids[0]]))
        for a, b in zip(ids, ids[1:]):
            sid = _move(module, not lower, a, b, sid)
        hit = module._fences[key] = (ids[-1], sid)
    return hit


def generalized_ranks_fast(module: PModule, members) -> list[int]:
    """Generalized ranks over grid intervals via their boundary fences, in
    the order of ``members``.

    Sections over an interval restrict isomorphically to its lower fence,
    and the colimit restricts isomorphically to its upper fence.  Both
    fences are zigzag paths, solved by the zigzag sweep: E spans the image
    of the limit at the lower fence's last point a (the start of the
    bottom row), Q maps the upper fence's last point b (the rightmost
    maximal point) onto the colimit, and a <= b, so the rank is
    rank(Q T(a, b) E), all on int rows.

    Many intervals share a fence, so the module memoises one sweep per
    distinct minimal or maximal antichain (the key); pushing E to b is one
    more memoised move (`_move`), and rank(Q E) one entry of the memo of
    (E, Q) subspace-id pairs (`_pair_rank`).  The memos are bounded by
    those counts, not by the number of intervals, and exact: an entry is
    a deterministic function of its key and the module alone.

    One loop (`_fence_ranks`) makes the four memo lookups per member; a
    miss falls through to the solving helper.  It has two feeders.  A
    plain member list runs, per member, the trivial-zero filter
    (`_rank_forced_zero`) and one walk up the rows
    (`GridInterval.antichains`) that finds both antichains and checks
    that the fences stay inside the interval at their corners.  A full
    box (``members.box``, see ``posets.canonical_grid_intervals``) is
    walked once instead (`posets.box_antichains`), carrying both
    antichains and the zero filter up the rows, so no member's rows are
    read; the ranks come out in walk order and are put in canonical
    order by the box's permutation.  Both feeders give each member the
    same keys, so the memos and the ranks are the same either way.
    """
    if module._window_idx is None:
        raise ValueError("fast path needs a grid module")
    geom = module._window_geometry()
    box = getattr(members, "box", None)
    if box is None:
        return _fence_ranks(module, (None if _rank_forced_zero(geom, gi) else gi.antichains()
                                     for gi in members))
    walked = _fence_ranks(module, box_antichains(box, _live_rows(geom, box.bbox)))
    return list(map(walked.__getitem__, box.order))


def _live_rows(geom, bbox) -> list[set]:
    """Per height y0..y1 of the box, the rows (a, b) in x0..x1 that pass
    the trivial-zero filter as one-row intervals: inside the window and
    clear of zero-dimensional points.  An interval passes it iff each
    of its rows does."""
    x0, y0, x1, y1 = bbox
    rows = [(a, b) for a in range(x0, x1 + 1) for b in range(a, x1 + 1)]
    return [{row for row in rows if not _rank_forced_zero(geom, GridInterval(y, (row,)))}
            for y in range(y0, y1 + 1)]


def _fence_ranks(module: PModule, antichains) -> list[int]:
    """The rank per (minimal antichain, maximal antichain) pair, 0 per None:
    two fence lookups, the push of E to b and the pair rank."""
    fence, move, pair = module._fences.get, module._moves.get, module._pair_ranks.get
    out = []
    append = out.append
    for ext in antichains:
        if ext is None:
            append(0)
            continue
        mins, maxs = ext
        a, e = fence((True, mins)) or _fence_solve(module, mins, True)
        if not e:  # id 0 is the zero subspace
            append(0)
            continue
        b, q = fence((False, maxs)) or _fence_solve(module, maxs, False)
        if not q:
            append(0)
            continue
        eb = move((False, a, b, e))
        if eb is None:
            eb = _move(module, False, a, b, e)
        rank = pair((eb, q))
        append(_pair_rank(module, eb, q) if rank is None else rank)
    return out


def generalized_rank_fast(module: PModule, gi: GridInterval) -> int:
    """Generalized rank over one grid interval: `generalized_ranks_fast`
    on a single member."""
    return generalized_ranks_fast(module, (gi,))[0]
