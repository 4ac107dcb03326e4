"""Generalized rank invariants for persistence modules over finite posets.

Core surfaces:

* :mod:`grinv.posets` — finite posets, grid windows, intervals, connected
  subsets, containment posets, thickenings.
* :mod:`grinv.gf` — exact GF(p) linear algebra.
* :mod:`grinv.modules` — persistence modules, limits/colimits, generalized
  ranks (with the boundary-fence fast path on grids).
* :mod:`grinv.mobius` — incidence algebra: delta, zeta, Mobius, convolution.
* :mod:`grinv.invariants` — rank tables, signed diagrams, minimal rank
  decompositions, invertibility checks, canonical non-isomorphic pairs.
* :mod:`grinv.zigzag` — paths, fences, zigzag barcodes, mutual bounds
  between path barcodes and interval ranks.
* :mod:`grinv.erosion` — erosion distance, diagonal shifts, trade-off study.
* :mod:`grinv.fixtures` — built-in example modules.
"""

from .gf import DEFAULT_P, FFMatrix
from .invariants import (
    GriTable,
    RankCache,
    SignedDiagram,
    gpd,
    gri,
    gri_difference_kernel_check,
    indicator_inversion,
    minimal_nonisomorphic_pair,
    minimal_rank_decomposition,
    realize,
    reconstruct_table,
    tightness_pair,
    verify_invertibility,
)
from .mobius import (
    IncidenceElement,
    PosetFunction,
    convolve,
    delta,
    mobius_function,
    mobius_invert,
    multiply,
    zeta,
)
from .modules import (
    PModule,
    SectionSpace,
    colimit,
    direct_sum,
    generalized_rank,
    generalized_rank_fast,
    grid_interval_module,
    interval_module,
    limit,
    pullback,
    zero_module,
)
from .posets import (
    ContainmentPoset,
    EnumerationCapError,
    FinitePoset,
    GridInterval,
    SubposetId,
    containment_poset,
    count_grid_intervals,
    enumerate_connected,
    enumerate_grid_intervals,
    enumerate_intervals,
    enumerate_segments,
    grid_poset,
    subposet,
)
from .zigzag import (
    Barcode,
    ZigzagPath,
    boundary_cap,
    gri_bounds_from_zib,
    interval_hull,
    is_solid,
    is_tame,
    is_thin,
    max_zz,
    min_zz,
    multiplicity_bounds,
    rank_bounds_from_gri,
    simple_tame_path,
    zib,
    zigzag_barcode,
    zigzag_rank,
)
from .erosion import ThickeningFamily, erosion_distance, shift_module, verify_erosion

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
