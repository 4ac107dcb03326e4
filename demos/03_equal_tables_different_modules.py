"""How much can a rank table miss?

Dropping one interval from the query collection always costs something:
inverting the indicator of the dropped interval produces a canonical
pair of non-isomorphic interval-decomposable modules whose tables agree
everywhere else.  And even the *full* interval table is not complete:
two modules on a 3x3 window can agree on all 83 intervals yet restrict
to different zigzag modules along a boundary path.
"""

from grinv import enumerate_grid_intervals, gri, zigzag_barcode
from grinv.fixtures import build_fixture
from grinv.invariants import (
    format_members,
    gri_difference_kernel_check,
    indicator_inversion,
    minimal_nonisomorphic_pair,
)

fx = build_fixture("ex-2x2-indicator")
hook = fx.intervals["I"]
small = [fx.intervals[k] for k in ("J1", "J2", "J3")]
big = small + [hook]

print("2x2 window, query collection = {J1, J2, J3, hook}")
d = indicator_inversion(big, hook)
print("inverted indicator of the hook:")
for item, value in d.support:
    print(f"  {format_members(item)} -> {value:+d}")

plus, minus, _ = minimal_nonisomorphic_pair(big, hook, fx.poset)
tp, tn = gri(plus, big), gri(minus, big)
print("\nthe realised pair agrees off the hook and differs on it:")
for item, a, b in zip(tp.collection, tp.ranks, tn.ranks):
    marker = "  <-- differs" if a != b else ""
    print(f"  {format_members(item)}: {a} vs {b}{marker}")

print("\nand the difference of diagrams lies in the dropped-indicator span:")
assert gri_difference_kernel_check(plus, minus, small, big)
print("  certified in integers: it is the sum of those indicators' inversions,\n"
      "  weighted by the table difference")

print("\n3x3 window: equal tables on all 83 intervals, different path barcodes")
fx3 = build_fixture("grid3-zib-pair")
ints = enumerate_grid_intervals(fx3.poset)
tm = gri(fx3.modules["m"], ints)
tn = gri(fx3.modules["n"], ints)
assert tm.ranks == tn.ranks
gamma = fx3.paths["gamma"]
bm = zigzag_barcode(fx3.modules["m"], gamma)
bn = zigzag_barcode(fx3.modules["n"], gamma)
print(f"  path {' '.join(str(p) for p in gamma.points)}")
print(f"  barcode of m: {bm.bars}")
print(f"  barcode of n: {bn.bars}")
assert dict(bm.bars) != dict(bn.bars)
print("  the interval table cannot tell them apart; the path barcode can")
