"""Random generators for posets, modules, and paths.

Random modules must satisfy functoriality, so general modules are built
from ingredients that are functorial by construction: sums of interval
modules, optionally a translated copy of the non-interval center-double
pattern, and a random basis change at every element (which produces an
isomorphic module with messy matrices).  Chain modules have no
commutativity constraints, so their maps are genuinely arbitrary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fixtures import grid3_zib_pair
from .modules import PModule, direct_sum, grid_interval_module
from .posets import FinitePoset, GridInterval

if TYPE_CHECKING:
    import numpy as np


def random_poset(rng: np.random.Generator, n: int, density: float = 0.35) -> FinitePoset:
    """Random finite poset: a random DAG on ordered ids, transitively closed."""
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return FinitePoset.from_covers(n, edges)


def random_grid_interval(rng: np.random.Generator, bbox) -> GridInterval:
    """Uniform-ish staircase inside bbox = (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = bbox
    ybase = int(rng.integers(y0, y1 + 1))
    height = int(rng.integers(1, y1 - ybase + 2))
    a = int(rng.integers(x0, x1 + 1))
    b = int(rng.integers(a, x1 + 1))
    rows = [(a, b)]
    for _ in range(height - 1):
        a2 = int(rng.integers(x0, a + 1))
        b2 = int(rng.integers(max(a2, a), b + 1))
        rows.append((a2, b2))
        a, b = a2, b2
    return GridInterval(ybase, tuple(rows))


def random_interval_decomposable(
    rng: np.random.Generator,
    window: FinitePoset,
    max_summands: int = 6,
    p: int = 2,
    scramble: bool = True,
) -> tuple[PModule, dict]:
    """A random sum of interval modules; returns (module, barcode multiset).

    The barcode is keyed by frozen point sets with multiplicities.
    """
    xs = [x for x, _ in window.grid_coords]
    ys = [y for _, y in window.grid_coords]
    bbox = (min(xs), min(ys), max(xs), max(ys))
    k = int(rng.integers(1, max_summands + 1))
    barcode: dict[frozenset, int] = {}
    summands = []
    for _ in range(k):
        gi = random_grid_interval(rng, bbox)
        barcode[gi.member_set] = barcode.get(gi.member_set, 0) + 1
        summands.append(grid_interval_module(window, gi, p))
    module = direct_sum(*summands)
    if scramble:
        module = module.scramble(rng)
    return module, barcode


def _translated_center_double(window: FinitePoset, dx: int, dy: int, p: int) -> PModule:
    """The center-double pattern re-rooted at (dx, dy) inside the window."""
    base = grid3_zib_pair(p=p).modules["center_double"]
    idx = window.id_of_coord()
    base_idx = {xy: i for i, xy in enumerate(base.poset.grid_coords)}
    dims = [0] * window.n
    maps = {}
    for (x, y), i in base_idx.items():
        dims[idx[(x + dx, y + dy)]] = base.dims[i]
    for (a, b), mat in base.maps.items():
        ax, ay = base.poset.grid_coords[a]
        bx, by = base.poset.grid_coords[b]
        maps[(idx[(ax + dx, ay + dy)], idx[(bx + dx, by + dy)])] = mat
    return PModule(window, dims, maps, p, validate=False)


def random_module(rng: np.random.Generator, window: FinitePoset, p: int = 2,
                  max_summands: int = 4, allow_nondecomposable: bool = True) -> PModule:
    """A random functorial module: intervals, maybe a non-interval summand, scrambled."""
    module, _ = random_interval_decomposable(rng, window, max_summands, p, scramble=False)
    xs = sorted({x for x, _ in window.grid_coords})
    ys = sorted({y for _, y in window.grid_coords})
    if allow_nondecomposable and len(xs) >= 3 and len(ys) >= 3 and rng.random() < 0.6:
        # the base pattern occupies coords 1..3 in each direction
        dx = int(rng.integers(xs[0] - 1, xs[-1] - 3 + 1))
        dy = int(rng.integers(ys[0] - 1, ys[-1] - 3 + 1))
        module = module.direct_sum(_translated_center_double(window, dx, dy, p))
    return module.scramble(rng)


def random_chain_module(rng: np.random.Generator, n: int, p: int = 2) -> PModule:
    """Arbitrary dims and maps over a chain (no commutativity constraints)."""
    poset = FinitePoset.chain(n)
    dims = [int(rng.integers(0, 4)) for _ in range(n)]
    maps = {}
    for a in range(n - 1):
        maps[(a, a + 1)] = rng.integers(0, p, (dims[a + 1], dims[a]))
    return PModule(poset, dims, maps, p, validate=False)


def random_faithful_path(rng: np.random.Generator, window: FinitePoset, length: int):
    """Random unit-step walk inside a window (may revisit points)."""
    from .zigzag import ZigzagPath

    coords = set(window.grid_coords)
    pts = [window.grid_coords[int(rng.integers(0, window.n))]]
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for _ in range(length - 1):
        x, y = pts[-1]
        options = [(x + dx, y + dy) for dx, dy in steps if (x + dx, y + dy) in coords]
        if len(pts) >= 2:
            options = [q for q in options if q != pts[-2]] or options
        pts.append(options[int(rng.integers(0, len(options)))])
    return ZigzagPath(tuple(pts))

