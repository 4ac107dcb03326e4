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

``import grinv`` loads this package and :mod:`grinv.mobius` only.  Every
public name (each in ``__all__``, the layers among them) resolves on first
use: ``grinv.gri`` imports :mod:`grinv.invariants` and the layers it
needs, then stays bound here.  ``from grinv.posets import ...`` adds
that layer and the ones it imports, here none.
"""

# eager: perfbench/tracing.py looks each traced layer up in sys.modules, and no
# other layer imports this one
from . import mobius  # noqa: F401

# each layer and the public names it provides
_NAMES = {
    "gf": "DEFAULT_P FFMatrix",
    "invariants": "GriTable RankCache SignedDiagram gpd gri gri_difference_kernel_check "
                  "indicator_inversion minimal_nonisomorphic_pair minimal_rank_decomposition "
                  "realize reconstruct_table tightness_pair verify_invertibility",
    "mobius": "IncidenceElement PosetFunction convolve delta mobius_function mobius_invert "
              "multiply zeta",
    "modules": "PModule SectionSpace colimit direct_sum generalized_rank generalized_rank_fast "
               "grid_interval_module interval_module limit pullback zero_module",
    "posets": "ContainmentPoset EnumerationCapError FinitePoset GridInterval SubposetId "
              "containment_poset count_grid_intervals enumerate_connected "
              "enumerate_grid_intervals enumerate_intervals enumerate_segments grid_poset subposet",
    "zigzag": "Barcode ZigzagPath boundary_cap gri_bounds_from_zib interval_hull is_solid is_tame "
              "is_thin max_zz min_zz multiplicity_bounds rank_bounds_from_gri simple_tame_path zib "
              "zigzag_barcode zigzag_rank",
    "erosion": "ThickeningFamily erosion_distance shift_module verify_erosion",
}
# public name -> the layer that defines it; a layer's own name maps to itself
_LAYERS = {name: layer for layer, names in _NAMES.items() for name in (layer, *names.split())}

__all__ = sorted(_LAYERS)
__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _LAYERS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{layer}")
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    # the names an eager import bound here: the public ones, bound yet or not
    return sorted({*globals(), *__all__} - {"__dir__", "__getattr__", "_LAYERS", "_NAMES"})
