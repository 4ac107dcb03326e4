"""Rank tables over collections, their Mobius inversions, and rank decompositions.

A ``GriTable`` stores the generalized rank of one module over a chosen
collection of subsets (segments, intervals, connected sets, or an
explicit list).  Its Mobius inversion over the containment order is a
``SignedDiagram``: a finitely supported integer function whose positive
and negative parts form the minimal rank decomposition whenever one
exists.  Everything here is exact integer arithmetic.

Members are their own keys, put in canonical order once (by
``posets.canonical_members``, which :func:`gri` tables keep).
Containment is read from per-point member bitsets
(``posets.Supersets``): the inversion is a sparse
back-substitution from the largest members down that indexes only the
support found so far, and the zeta sum and the monotonicity alarm are
bitset ANDs.  The incidence algebra of :mod:`grinv.mobius` is the
general API and the test oracle.
"""

from __future__ import annotations

from functools import cached_property

from .modules import (PModule, direct_sum, generalized_rank, generalized_rank_fast, generalized_ranks_fast,
                      grid_interval_module, interval_module, zero_module)
from .posets import (CanonicalMembers, ContainmentPoset, Frozen, GridInterval, SubposetId, Supersets, bitset,
                     canonical_members, iter_bits)


def _cache_key(region):
    """GridInterval/SubposetId are canonical frozen values: hash them directly."""
    if isinstance(region, (GridInterval, SubposetId)):
        return region
    return frozenset(region)


class RankCache:
    """Memoised generalized ranks of one module, keyed by member.

    Grid intervals use the fence fast path, whose fence sweeps, subspace
    moves and (E, Q) pair ranks are memoised on the module itself (exact:
    each is a deterministic function of its key and the module), so
    caches of the same module share them.  ``ranks`` serves a whole
    collection: its warm path is one list comprehension, and its misses
    are filed from one pass of the loop kernel
    (``modules.generalized_ranks_fast``); ``rank`` serves one member.
    A full box (``posets.CanonicalMembers.box``) given to an empty cache
    is ranked by the kernel's one walk of the box and filed in bulk: its
    ranks in canonical order, and its member index built only when a
    later call looks a member up.  ``queries`` counts distinct misses,
    the deterministic work measure used by the erosion trade-off
    instrumentation.
    """

    def __init__(self, module: PModule):
        self.module = module
        self._index: dict = {}  # member -> its position in _ranks
        self._ranks: list[int] = []
        self._box = None  # a full box filed in _ranks whose members _index lacks

    @property
    def queries(self) -> int:
        return len(self._ranks)

    def _index_box(self) -> None:
        """Index the members of the full box filed by ``ranks``, in order."""
        self._index = dict(zip(self._box, range(len(self._box))))
        self._box = None

    def rank(self, region) -> int:
        """The rank over the region, with one dict operation (one hash) per
        call: a miss files the next free position before it is filled."""
        key = _cache_key(region)
        ranks = self._ranks
        if self._box is not None:
            self._index_box()
        i = self._index.setdefault(key, len(ranks))
        if i < len(ranks):
            return ranks[i]
        try:
            if isinstance(region, GridInterval):
                ranks.append(generalized_rank_fast(self.module, region))
            else:
                ranks.append(generalized_rank(self.module, region))
        except BaseException:
            del self._index[key]
            raise
        return ranks[i]

    def ranks(self, members) -> list[int]:
        """The ranks over the members, in their order.

        When every member is cached, one comprehension reads them.
        Otherwise each distinct miss is filed at the next free position,
        the grid intervals among them are ranked by one kernel pass and
        the other regions by ``generalized_rank``; if either raises, the
        filed positions are dropped and the cache is as it was.
        """
        if not isinstance(members, (list, tuple)):
            members = list(members)
        if not self._ranks and getattr(members, "box", None) is not None:
            self._ranks = generalized_ranks_fast(self.module, members)
            self._box = members
            return self._ranks.copy()
        if self._box is not None:
            self._index_box()
        index, ranks = self._index, self._ranks
        try:
            return [ranks[index[m]] for m in members]
        except (KeyError, TypeError):  # a miss, or a region keyed by its frozenset
            pass
        misses, pos, free = [], [], len(ranks)
        for m in members:
            i = index.setdefault(_cache_key(m), free)
            if i == free:
                misses.append(m)
                free += 1
            pos.append(i)
        try:
            grid = [m for m in misses if isinstance(m, GridInterval)]
            filled = generalized_ranks_fast(self.module, grid) if grid else []
            if len(grid) < len(misses):
                fast = iter(filled)
                filled = [next(fast) if isinstance(m, GridInterval) else generalized_rank(self.module, m)
                          for m in misses]
        except BaseException:
            for m in misses:
                del index[_cache_key(m)]
            raise
        ranks.extend(filled)
        # all distinct misses: the positions are the new ones, in order
        return filled if len(misses) == len(members) else [ranks[i] for i in pos]


class GriTable(Frozen):
    """Generalized rank invariant of a module over a fixed collection."""

    _fields = ("collection", "ranks")

    def __init__(self, collection: tuple, ranks: tuple[int, ...]):
        if len(collection) != len(ranks):
            raise ValueError("one rank per collection member")
        object.__setattr__(self, "collection", collection)
        object.__setattr__(self, "ranks", ranks)

    @cached_property
    def _rank_by_item(self) -> dict:
        # reversed, so a repeated member keeps its first rank
        return dict(zip(reversed(self.collection), reversed(self.ranks)))

    def rank_of(self, item) -> int:
        try:
            return self._rank_by_item[item]
        except KeyError:
            raise KeyError("item not in collection") from None

    def restrict(self, subcollection) -> "GriTable":
        keys = set(subcollection)
        keep = [i for i, it in enumerate(self.collection) if it in keys]
        if len(keep) != len(keys):
            raise KeyError("subcollection is not contained in the table")
        # a subsequence of a canonical tuple is canonical
        kind = CanonicalMembers if isinstance(self.collection, CanonicalMembers) else tuple
        return GriTable(kind(self.collection[i] for i in keep), tuple(self.ranks[i] for i in keep))

    def canonical(self) -> "GriTable":
        """The table in canonical order, itself if it is; ``ValueError`` on a repeat."""
        items = canonical_members(self.collection)
        if items is self.collection:
            return self
        return GriTable(items, tuple(self.rank_of(it) for it in items))

    def check_monotone(self) -> tuple | None:
        """First violating pair (I, J) with I contained in J but rank(I) < rank(J).

        All ordered pairs, in collection order.  A violating J has a rank
        above the table's least one (0 wherever a rank vanishes), so the
        containment index holds only those members, in collection order:
        the support of a table with a zero.  For each I, the indexed
        members containing I (a bitset AND over I's points) meet those of
        greater rank, all of them for the least rank, and the lowest
        common bit is the first such J.
        """
        if not self.ranks:
            return None
        least = min(self.ranks)
        support = [j for j, r in enumerate(self.ranks) if r > least]
        by_rank: dict = {}
        for k, j in enumerate(support):
            by_rank.setdefault(self.ranks[j], []).append(k)
        above, greater = {}, 0
        for r in sorted(by_rank, reverse=True):
            above[r] = greater
            greater |= bitset(by_rank[r], len(support))
        above[least] = greater
        sup = Supersets([self.collection[j] for j in support])
        for it, r in zip(self.collection, self.ranks):
            hit = above[r]
            if hit:
                hit &= sup.containing(it)
            if hit:
                return (it, self.collection[support[(hit & -hit).bit_length() - 1]])
        return None

    def to_tsv(self) -> str:
        return "\n".join(
            f"{format_members(it)}\t{r}" for it, r in zip(self.collection, self.ranks)
        )


class SignedDiagram(Frozen):
    """Finitely supported integer multiplicities on a collection of subsets."""

    _fields = ("support",)

    def __init__(self, support: tuple):
        # ((item, value), ...) with nonzero values, canonical order
        object.__setattr__(self, "support", support)

    def items(self):
        return self.support

    @cached_property
    def _value_by_item(self) -> dict:
        return dict(self.support)

    def value_of(self, item) -> int:
        return self._value_by_item.get(item, 0)

    def positive_part(self) -> tuple:
        return tuple((it, v) for it, v in self.support if v > 0)

    def negative_part(self) -> tuple:
        return tuple((it, -v) for it, v in self.support if v < 0)

    def __add__(self, other: "SignedDiagram") -> "SignedDiagram":
        acc: dict = {}
        for it, v in self.support + other.support:
            acc[it] = acc.get(it, 0) + v
        order = canonical_members(it for it, v in acc.items() if v)
        return SignedDiagram(tuple((it, acc[it]) for it in order))

    def __eq__(self, other):
        if not isinstance(other, SignedDiagram):
            return NotImplemented
        return self._value_by_item == other._value_by_item

    def __hash__(self):
        return hash(frozenset(self._value_by_item.items()))

    def to_tsv(self) -> str:
        return "\n".join(f"{format_members(it)}\t{v}" for it, v in self.support)


def format_members(item) -> str:
    """Stable member-list serialisation: coordinate pairs for grid subsets, ids otherwise."""
    if isinstance(item, GridInterval):
        return " ".join(f"{x},{y}" for x, y in sorted(item.points()))
    return " ".join(str(m) for m in item.members)


# -- building tables -----------------------------------------------------------


def gri(module: PModule, collection, cache: RankCache | None = None) -> GriTable:
    """Rank table of a module over a collection, in canonical order
    (``posets.canonical_members``: ``ValueError`` on a repeated member)."""
    items = canonical_members(collection)
    cache = cache or RankCache(module)
    return GriTable(items, tuple(cache.ranks(items)))


def _invert(items, values) -> list[int]:
    """f with values(I) = sum of f(J) over the members J containing I.

    Distinct members in canonical order (sizes non-decreasing), so
    solving f(I) = values(I) - sum of f(J) over J strictly containing I
    from the last member down finds every such f(J) already solved.
    Only the support found so far is indexed, and only the support
    members containing I are walked.
    """
    f = [0] * len(items)
    support, found = Supersets(), []
    for k in range(len(items) - 1, -1, -1):
        v = values[k]
        for j in iter_bits(support.containing(items[k])):
            v -= found[j]
        if v:
            f[k] = v
            support.add(items[k])
            found.append(v)
    return f


def _diagram(items, f) -> SignedDiagram:
    return SignedDiagram(tuple((it, v) for it, v in zip(items, f) if v))


def gpd(table: GriTable) -> SignedDiagram:
    """Mobius inversion of a rank table over the containment order.

    The support is always contained in the support of the table (the
    table is non-increasing under containment, so inversion cannot
    create mass where the rank vanishes).  A table not in canonical
    order, as :func:`gri` builds it, is put in it first (``ValueError``
    on a collection with two equal members).
    """
    table = table.canonical()
    return _diagram(table.collection, _invert(table.collection, table.ranks))


def reconstruct_table(diagram: SignedDiagram, collection) -> GriTable:
    """Evaluate sum of diagram values over supersets: the zeta convolution,
    over the collection in canonical order (``ValueError`` on a repeat)."""
    items = canonical_members(collection)
    sup = Supersets([jt for jt, _ in diagram.support])
    values = [v for _, v in diagram.support]
    ranks = tuple(sum(values[j] for j in iter_bits(sup.containing(it))) for it in items)
    return GriTable(items, ranks)


class InvertibilityReport(Frozen):
    __slots__ = _fields = ("ok", "diagram", "witness")

    def __init__(self, ok: bool, diagram: SignedDiagram | None, witness: object | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "witness", witness)


def verify_invertibility(table: GriTable, candidate_support) -> InvertibilityReport:
    """Can the table be written as a superset-sum over the candidate subcollection?

    Inverts the table restricted to the candidates and re-evaluates the
    zeta sum at every member of the full collection, position by
    position in canonical order; on failure returns the first failing
    member as a witness.
    """
    table = table.canonical()
    diagram = gpd(table.restrict(candidate_support))
    recon = reconstruct_table(diagram, table.collection)
    for it, want, got in zip(table.collection, table.ranks, recon.ranks):
        if want != got:
            return InvertibilityReport(False, None, it)
    return InvertibilityReport(True, diagram)


# -- decompositions and realisations -----------------------------------------------


def minimal_rank_decomposition(diagram: SignedDiagram) -> tuple[tuple, tuple]:
    """Disjoint positive/negative multiset pair reproducing the table."""
    return diagram.positive_part(), diagram.negative_part()


def realize(part, host, p: int = 2) -> PModule:
    """Direct sum of interval modules with the given multiplicities.

    ``part`` is a ((item, multiplicity), ...) tuple; ``host`` the window
    poset the summands live on.
    """
    mods = []
    for it, mult in part:
        if mult < 0:
            raise ValueError("realize needs nonnegative multiplicities")
        for _ in range(mult):
            if isinstance(it, GridInterval):
                mods.append(grid_interval_module(host, it, p))
            else:
                mods.append(interval_module(host, it.members, p))
    if not mods:
        return zero_module(host, p)
    return direct_sum(*mods)


def indicator_inversion(collection, item) -> SignedDiagram:
    """Mobius inversion over the collection of the indicator of one member."""
    items = canonical_members(collection)
    indicator = [int(it == item) for it in items]
    if not any(indicator):
        raise KeyError("item not in collection")
    return _diagram(items, _invert(items, indicator))


def minimal_nonisomorphic_pair(collection, item, host, p: int = 2) -> tuple[PModule, PModule, SignedDiagram]:
    """The canonical pair realising the inverted indicator of one member.

    The two interval-decomposable modules have equal rank tables on the
    collection minus the chosen member and differ exactly there.
    """
    d = indicator_inversion(collection, item)
    plus = realize(d.positive_part(), host, p)
    minus = realize(d.negative_part(), host, p)
    return plus, minus, d


class IntervalDecomposableError(ValueError):
    pass


def tightness_pair(module: PModule, collection, full_collection=None) -> tuple[PModule, PModule]:
    """A pair (interval-decomposable, contains-the-module) with equal tables.

    From the signed diagram of the module over the collection: the
    positive part realised as interval modules versus the module plus
    the realised negative part.  Raises if the module behaves
    interval-decomposably over the reference collection (the realised
    diagram reproduces its full table), since then no tightness gap
    exists.  The summands live on the module's poset and field.
    """
    host, p = module.poset, module.p
    table = gri(module, collection)
    diagram = gpd(table)
    if full_collection is not None:
        full_table = gri(module, full_collection)
        full_diag = gpd(full_table)
        realized = realize(full_diag.positive_part(), host, p)
        if gri(realized, full_collection).ranks == full_table.ranks:
            raise IntervalDecomposableError(
                "module is interval-decomposable over the reference collection"
            )
    n_plus = realize(diagram.positive_part(), host, p)
    n_prime = module.direct_sum(realize(diagram.negative_part(), host, p))
    return n_plus, n_prime


def gri_difference_kernel_check(m1: PModule, m2: PModule, small_collection, big_collection) -> bool:
    """True iff the two modules' tables agree on the small collection.

    Mobius inversion is linear, so the difference of the two signed
    diagrams over the big collection is the sum of the inverted
    indicators weighted by the table difference; when the tables agree
    on the small collection, only members outside it carry weight.  That
    sum is checked in integers, inverting only the indicators of the
    members where the tables differ, and a mismatch raises (it would be
    an internal inconsistency, not a property of the inputs).
    """
    items = canonical_members(big_collection)
    r1, r2 = gri(m1, items).ranks, gri(m2, items).ranks  # in the order of items
    small = set(small_collection)
    if any(a != b for it, a, b in zip(items, r1, r2) if it in small):
        return False
    n = len(items)
    spanned = [0] * n
    for i, (a, b) in enumerate(zip(r1, r2)):
        if a != b:
            e_i = _invert(items, [int(j == i) for j in range(n)])  # row i of mu
            spanned = [s + (a - b) * v for s, v in zip(spanned, e_i)]
    target = [a - b for a, b in zip(_invert(items, r1), _invert(items, r2))]
    if spanned != target:
        raise AssertionError("diagram difference escaped the indicator span")
    return True


# -- emission -------------------------------------------------------------------


def containment_dot(cont: ContainmentPoset, diagram: SignedDiagram | None = None) -> str:
    """DOT rendering of the containment poset, optionally annotated with values."""
    lines = ["digraph containment {"]
    for i, it in enumerate(cont.items):
        label = format_members(it)
        if diagram is not None:
            v = diagram.value_of(it)
            label += f"\\n{v:+d}" if v else ""
        lines.append(f'  n{i} [label="{label}"];')
    for a, b in cont.poset.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
