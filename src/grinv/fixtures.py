"""Built-in example modules.

Each fixture is constructed in code (not read from data files) so the
field modulus stays configurable; every matrix entry below lies in
{0, 1, -1}, making the examples characteristic-independent at the
fixture level.  ``FIXTURES`` maps names to builders; builders return a
:class:`FixtureBundle`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .gf import DEFAULT_P
from .modules import PModule, direct_sum, grid_interval_module, interval_module, pullback
from .posets import FinitePoset, Frozen, GridInterval, SubposetId, grid_poset
from .zigzag import ZigzagPath

if TYPE_CHECKING:
    import numpy as np


class FixtureBundle(Frozen):
    __slots__ = _fields = ("name", "description", "poset", "modules", "intervals", "paths", "extras")

    def __init__(self, name: str, description: str, poset: FinitePoset, modules: dict | None = None,
                 intervals: dict | None = None, paths: dict | None = None, extras: dict | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "poset", poset)
        for field, value in zip(self._fields[3:], (modules, intervals, paths, extras)):
            object.__setattr__(self, field, {} if value is None else value)


def chain4_pair(p: int = DEFAULT_P, **_) -> FixtureBundle:
    """Two interval-decomposable modules on the 4-chain with equal ranks on
    the three smaller segments but different ranks on the full chain."""
    poset = FinitePoset.chain(4)
    seg = {
        "[1,4]": SubposetId((0, 1, 2, 3)),
        "[1,3]": SubposetId((0, 1, 2)),
        "[2,4]": SubposetId((1, 2, 3)),
        "[2,3]": SubposetId((1, 2)),
    }
    plus = direct_sum(
        interval_module(poset, seg["[1,4]"].members, p),
        interval_module(poset, seg["[2,3]"].members, p),
    )
    minus = direct_sum(
        interval_module(poset, seg["[1,3]"].members, p),
        interval_module(poset, seg["[2,4]"].members, p),
    )
    return FixtureBundle(
        "chain4-pair",
        "4-chain: k[1,4]+k[2,3] versus k[1,3]+k[2,4]; equal rank tables over "
        "{[2,3],[1,3],[2,4]}, split apart by [1,4]",
        poset,
        modules={"plus": plus, "minus": minus},
        intervals=seg,
        extras={"small_collection": [seg["[2,3]"], seg["[1,3]"], seg["[2,4]"]],
                "split_at": seg["[1,4]"]},
    )


def square_indicator(p: int = DEFAULT_P, **_) -> FixtureBundle:
    """The 2x2 hook family: the containment diamond whose indicator inversion
    is 1_I - 1_J1 - 1_J2 + 1_J3, realised by two modules with equal rank
    tables away from the hook."""
    window = grid_poset(2, 2, (0, 0))
    hook = GridInterval.from_points([(0, 0), (0, 1), (1, 0)])
    j1 = GridInterval.from_points([(0, 0), (0, 1)])
    j2 = GridInterval.from_points([(0, 0), (1, 0)])
    j3 = GridInterval.from_points([(0, 0)])
    m = direct_sum(grid_interval_module(window, hook, p), grid_interval_module(window, j3, p))
    n = direct_sum(grid_interval_module(window, j1, p), grid_interval_module(window, j2, p))
    return FixtureBundle(
        "ex-2x2-indicator",
        "2x2 window: k_hook + k_corner versus k_leftedge + k_bottomedge; the rank "
        "tables agree on the three sub-intervals and differ exactly on the hook",
        window,
        modules={"m": m, "n": n},
        intervals={"I": hook, "J1": j1, "J2": j2, "J3": j3},
        extras={"small_collection": [j1, j2, j3], "split_at": hook},
    )


def _module_from_pattern(window: FinitePoset, dims_by_coord: dict, maps_by_coord: dict,
                         p: int) -> PModule:
    idx = window.id_of_coord()
    dims = [0] * window.n
    for xy, d in dims_by_coord.items():
        dims[idx[xy]] = d
    maps = {(idx[src], idx[dst]): mat for (src, dst), mat in maps_by_coord.items()}
    return PModule(window, dims, maps, p)


def grid3_zib_pair(p: int = DEFAULT_P, **_) -> FixtureBundle:
    """Two 3x3-window modules with identical rank tables over every interval
    of the window whose restrictions to a 7-point boundary path are
    non-isomorphic zigzag modules."""
    window = grid_poset(3, 3, (1, 1))
    center_double = _module_from_pattern(
        window,
        {(1, 3): 1, (2, 3): 1, (3, 3): 1,
         (1, 2): 1, (2, 2): 2, (3, 2): 1,
         (2, 1): 1, (3, 1): 1},
        {
            ((1, 3), (2, 3)): [[1]], ((2, 3), (3, 3)): [[1]],
            ((1, 2), (2, 2)): [[0], [1]], ((2, 2), (3, 2)): [[0, 1]],
            ((2, 1), (3, 1)): [[1]],
            ((1, 2), (1, 3)): [[1]], ((2, 2), (2, 3)): [[0, 1]], ((3, 2), (3, 3)): [[1]],
            ((2, 1), (2, 2)): [[1], [1]], ((3, 1), (3, 2)): [[1]],
        },
        p,
    )
    staircase = GridInterval.from_points(
        [(1, 3), (2, 3), (3, 3), (2, 2), (3, 2), (3, 1)]
    )
    m = direct_sum(center_double, grid_interval_module(window, staircase, p))
    i1 = GridInterval.from_points([(3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    i2 = GridInterval.from_points([(2, 1), (3, 1), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    n = direct_sum(
        grid_interval_module(window, i1, p),
        grid_interval_module(window, i2, p),
        grid_interval_module(window, GridInterval.from_points([(2, 2)]), p),
    )
    path = ZigzagPath(((1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1)))
    return FixtureBundle(
        "grid3-zib-pair",
        "3x3 window: equal generalized rank invariants over all 83 intervals, "
        "yet the two modules restrict to non-isomorphic zigzag modules on the "
        "7-point boundary path",
        window,
        modules={"m": m, "n": n, "center_double": center_double},
        paths={"gamma": path},
    )


def staircase_zz_pair(p: int = DEFAULT_P, **_) -> FixtureBundle:
    """Two modules on a 6-point staircase interval with identical barcodes
    over every simple path but different generalized ranks on the full
    staircase (1 versus 0)."""
    window = grid_poset(4, 2, (0, 0))
    stair = GridInterval(0, ((1, 3), (0, 2)))
    w = _module_from_pattern(
        window,
        {(0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1},
        {
            ((0, 1), (1, 1)): [[1], [0]], ((1, 1), (2, 1)): [[1, 1]],
            ((1, 0), (1, 1)): [[0], [1]], ((1, 0), (2, 0)): [[1], [1]],
            ((2, 0), (2, 1)): [[1, 0]], ((2, 0), (3, 0)): [[0, 1]],
        },
        p,
    )
    a = _module_from_pattern(
        window,
        {(0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1},
        {
            ((0, 1), (1, 1)): [[1], [0]], ((1, 1), (2, 1)): [[1, 1]],
            ((1, 0), (1, 1)): [[0], [1]], ((1, 0), (2, 0)): [[1]],
            ((2, 0), (2, 1)): [[1]], ((2, 0), (3, 0)): [[1]],
        },
        p,
    )
    b = _module_from_pattern(
        window,
        {(0, 1): 1, (1, 1): 1, (2, 1): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1},
        {
            ((0, 1), (1, 1)): [[1]], ((1, 1), (2, 1)): [[1]],
            ((1, 0), (1, 1)): [[1]], ((1, 0), (2, 0)): [[1], [1]],
            ((2, 0), (2, 1)): [[1, 0]], ((2, 0), (3, 0)): [[0, 1]],
        },
        p,
    )
    m = direct_sum(grid_interval_module(window, stair, p), w)
    n = direct_sum(a, b)
    return FixtureBundle(
        "staircase-zz-pair",
        "6-point staircase: simple-path barcodes coincide everywhere while the "
        "generalized rank over the staircase itself is 1 for one module and 0 "
        "for the other",
        window,
        modules={"m": m, "n": n},
        intervals={"I": stair},
    )


def _upset(window: FinitePoset, corners) -> GridInterval:
    pts = [
        xy
        for xy in window.grid_coords
        if any(xy[0] >= cx and xy[1] >= cy for cx, cy in corners)
    ]
    return GridInterval.from_points(pts)


def betti_pair(p: int = DEFAULT_P, **_) -> FixtureBundle:
    """Two modules with the same graded Betti data whose barcodes over the
    3-point zigzag through the corner differ by a full bar."""
    window = grid_poset(4, 4, (0, 0))
    a, b, c, top = (0, 2), (1, 1), (2, 0), (2, 2)
    union_ac = _upset(window, [a, c])
    b_up = _upset(window, [b])
    b_notch = GridInterval.from_points(
        [xy for xy in b_up.points() if not (xy[0] >= top[0] and xy[1] >= top[1])]
    )
    m = direct_sum(
        grid_interval_module(window, union_ac, p),
        grid_interval_module(window, b_up, p),
    )
    n = direct_sum(
        grid_interval_module(window, _upset(window, [a]), p),
        grid_interval_module(window, _upset(window, [c]), p),
        grid_interval_module(window, b_notch, p),
    )
    path = ZigzagPath((a, top, c))
    return FixtureBundle(
        "betti-pair",
        "up-set pair with matching generator/relation counts: the zigzag over "
        "corner -> join <- corner carries a full bar for one module only",
        window,
        modules={"m": m, "n": n},
        intervals={"union": union_ac, "notched": b_notch},
        paths={"gamma": path},
    )


def center_double(p: int = DEFAULT_P, **_) -> FixtureBundle:
    """The non-interval indecomposable on a 3x3 window (two-dimensional at the
    center); the standard seed for tightness pairs."""
    bundle = grid3_zib_pair(p)
    return FixtureBundle(
        "center-double",
        "3x3 window module with a 2-dimensional center: indecomposable but not "
        "an interval module; its signed diagram over the window's intervals "
        "has a negative entry",
        bundle.poset,
        modules={"m": bundle.modules["center_double"]},
    )


def anti_diagonal(p: int = DEFAULT_P, window: int = 4, **_) -> FixtureBundle:
    """Constant rank-2 wall on the anti-diagonal projecting onto a constant
    rank-1 region above it; tame via an obvious three-level quotient."""
    h = window // 2
    win = grid_poset(window, window, (-h, -h))
    chain3 = FinitePoset.chain(3)
    n = PModule(chain3, [0, 2, 1], {(1, 2): [[1, 0]]}, p)
    pi = []
    for x, y in win.grid_coords:
        s = x + y
        pi.append(0 if s < 0 else (1 if s == 0 else 2))
    m = pullback(n, pi, win)
    return FixtureBundle(
        "anti-diagonal",
        "plane module: zero below the anti-diagonal, rank 2 on it, rank 1 above, "
        "with first-coordinate projections; the pullback of a 3-chain module",
        win,
        modules={"m": m, "quotient": n},
        extras={"projection": pi},
    )


# -- the tame-but-not-invertible window family ---------------------------------------


def _diag_quotient(p: int) -> tuple[FinitePoset, PModule]:
    """The 6-point poset (bottom, two wall colors, two cap colors, top) and
    its module: k -> k^2 (diagonal), k^2 -> k (the two coordinate
    projections, swapped between the colors), 0 on top."""
    ids = dict(b=0, w_even=1, w_odd=2, c_even=3, c_odd=4, z=5)
    covers = [
        (ids["b"], ids["w_even"]), (ids["b"], ids["w_odd"]),
        (ids["w_even"], ids["c_even"]), (ids["w_even"], ids["c_odd"]),
        (ids["w_odd"], ids["c_even"]), (ids["w_odd"], ids["c_odd"]),
        (ids["c_even"], ids["z"]), (ids["c_odd"], ids["z"]),
    ]
    q = FinitePoset.from_covers(6, covers)
    dims = [1, 2, 2, 1, 1, 0]
    e1, e2, diag = [[1, 0]], [[0, 1]], [[1], [1]]
    maps = {
        (ids["b"], ids["w_even"]): diag,
        (ids["b"], ids["w_odd"]): diag,
        (ids["w_even"], ids["c_even"]): e2,  # step up keeps parity
        (ids["w_even"], ids["c_odd"]): e1,  # step right flips parity
        (ids["w_odd"], ids["c_odd"]): e2,
        (ids["w_odd"], ids["c_even"]): e1,
    }
    return q, PModule(q, dims, maps, p)


def tame_counterexample(p: int = DEFAULT_P, window: int = 6, **_) -> FixtureBundle:
    """Finite windows of the tame plane module whose interval rank table
    needs ever more inversion support as the window grows.

    The module is k below the anti-diagonal, k^2 on it, and k on the
    diagonal just above, reached by the two coordinate projections in an
    alternating pattern; it is the pullback of a 6-point quotient.  For
    each admissible shift the serrated interval (all of the lower half
    plus every other cap point, skipping two adjacent ones) has rank
    exactly 1, while every strictly larger connected subset that keeps
    the serration honest has rank 0.
    """
    if window % 2 != 0 or window < 4:
        raise ValueError("window must be an even size >= 4")
    h = window // 2
    win = grid_poset(window, window, (-h, -h))
    q, n = _diag_quotient(p)
    pi = []
    for x, y in win.grid_coords:
        s = x + y
        if s < 0:
            pi.append(0)
        elif s == 0:
            pi.append(1 if x % 2 == 0 else 2)
        elif s == 1:
            pi.append(3 if x % 2 == 0 else 4)
        else:
            pi.append(5)
    m = pullback(n, pi, win)
    shifts = admissible_shifts(window)
    intervals = {f"serrated[{a}]": serrated_interval(a, window) for a in shifts}
    return FixtureBundle(
        "thm-tame-counterexample",
        f"{window}x{window} window of the serrated-cap module: rank 1 on each "
        "admissible serrated interval, rank 0 on honest strict supersets; the "
        "inversion support must include every serrated interval",
        win,
        modules={"m": m, "quotient": n},
        intervals=intervals,
        extras={"shifts": shifts, "projection": pi, "window": window},
    )


def admissible_shifts(window: int) -> tuple[int, ...]:
    """Shifts whose skipped cap pair lies inside the window."""
    h = window // 2
    lo, hi = -h, h - 1
    out = []
    for a in range(lo, hi + 1):
        if lo <= a <= hi and lo <= -a + 1 <= hi and lo <= a + 1 <= hi and lo <= -a <= hi:
            out.append(a)
    return tuple(out)


def cap_pattern(a: int, window: int) -> tuple[int, ...]:
    """x-coordinates of the cap points (on x + y = 1) kept by shift a, in-window."""
    h = window // 2
    lo, hi = -h, h - 1
    xs = []
    x = a - 1
    while x >= lo:
        if lo <= 1 - x <= hi and x <= hi:
            xs.append(x)
        x -= 2
    x = a + 2
    while x <= hi:
        if lo <= 1 - x <= hi:
            xs.append(x)
        x += 2
    return tuple(sorted(xs))


def serrated_interval(a: int, window: int) -> GridInterval:
    """The window part of the shifted serrated interval: the closed lower
    half-plane plus every other cap point (skipping the two at the shift)."""
    h = window // 2
    lo, hi = -h, h - 1
    caps = set(cap_pattern(a, window))
    pts = [(x, y) for x in range(lo, hi + 1) for y in range(lo, hi + 1) if x + y <= 0]
    pts += [(x, 1 - x) for x in caps]
    return GridInterval.from_points(pts)


def claim2_supersets(bundle: FixtureBundle, rng: np.random.Generator,
                     count: int = 50) -> list[list[int]]:
    """Strict connected supersets of a serrated interval with vanishing rank.

    At finite windows the rank-zero argument localises in two ways: the
    added point either carries the zero space (above the cap diagonal),
    or it is a cap point adjacent to a kept cap point inside the window,
    creating the rank-killing two-projection wedge over the wall point
    between them.  Supersets are sampled from exactly those families;
    window-edge truncations of other supersets can genuinely keep rank 1
    and are excluded on purpose.
    """
    window = bundle.extras["window"]
    shifts = bundle.extras["shifts"]
    win = bundle.poset
    idx = win.id_of_coord()
    h = window // 2
    lo, hi = -h, h - 1
    out: list[list[int]] = []
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        a = int(shifts[rng.integers(0, len(shifts))])
        base = serrated_interval(a, window)
        base_ids = [idx[pt] for pt in base.points()]
        caps = set(cap_pattern(a, window))
        if rng.random() < 0.5:
            # a zero-space point above the cap diagonal, comparable into the base
            cands = [
                (x, y)
                for x in range(lo, hi + 1)
                for y in range(lo, hi + 1)
                if x + y >= 2 and (x, -x) in base
            ]
        else:
            # an absent cap point whose cap neighbour is kept, wall point in-window
            cands = []
            for x in range(lo, hi + 1):
                y = 1 - x
                if not (lo <= y <= hi) or x in caps:
                    continue
                left_kept = (x - 1) in caps and lo <= x - 1
                right_kept = (x + 1) in caps and x + 1 <= hi
                if (left_kept or right_kept) and lo <= -x <= hi:
                    cands.append((x, y))
        if not cands:
            continue
        extra = cands[int(rng.integers(0, len(cands)))]
        out.append(sorted(base_ids + [idx[extra]]))
    return out


FIXTURES = {
    "chain4-pair": chain4_pair,
    "ex-2x2-indicator": square_indicator,
    "grid3-zib-pair": grid3_zib_pair,
    "staircase-zz-pair": staircase_zz_pair,
    "betti-pair": betti_pair,
    "center-double": center_double,
    "anti-diagonal": anti_diagonal,
    "thm-tame-counterexample": tame_counterexample,
}


def build_fixture(name: str, p: int = DEFAULT_P, **kwargs) -> FixtureBundle:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}")
    return builder(p=p, **kwargs)
