"""Incidence algebra of a finite poset: delta, zeta, Mobius, convolution.

Values are exact Python integers (never reduced mod p): the signed
multiplicities produced by inversion live in Z.  On a finite poset every
function is convolvable (its support below each element is finite), so
no predicate checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .posets import FinitePoset


@dataclass(frozen=True)
class IncidenceElement:
    """A function on the comparable pairs (p <= q) of a finite poset."""

    poset: FinitePoset
    values: dict = field(default_factory=dict)

    def __call__(self, p: int, q: int) -> int:
        if not self.poset.le(p, q):
            raise KeyError(f"({p}, {q}) is not a comparable pair")
        return self.values.get((p, q), 0)

    def matrix(self, order=None):
        """Dense integer matrix under a linear extension (upper-triangular)."""
        import numpy as np

        order = list(order) if order is not None else list(self.poset.topological_order())
        pos = {v: i for i, v in enumerate(order)}
        n = self.poset.n
        out = np.zeros((n, n), dtype=np.int64)
        for (p, q), v in self.values.items():
            out[pos[p], pos[q]] = v
        return out


def delta(poset: FinitePoset) -> IncidenceElement:
    return IncidenceElement(poset, {(i, i): 1 for i in range(poset.n)})


def zeta(poset: FinitePoset) -> IncidenceElement:
    vals = {}
    for p in range(poset.n):
        for q in poset.up_ids(p):
            vals[(p, q)] = 1
    return IncidenceElement(poset, vals)


def mobius_function(poset: FinitePoset) -> IncidenceElement:
    """The inverse of zeta, by the segment recursion.

    mu(p, p) = 1 and mu(p, q) = -sum of mu(p, r) over p <= r < q; computed
    per source p by sweeping the up-set of p in a linear extension, which
    makes every segment sum available when needed.
    """
    vals: dict[tuple[int, int], int] = {}
    topo_pos = {v: i for i, v in enumerate(poset.topological_order())}
    for p in range(poset.n):
        ups = sorted(poset.up_ids(p), key=topo_pos.__getitem__)
        for q in ups:
            if q == p:
                vals[(p, p)] = 1
                continue
            s = 0
            for r in ups:
                if r != q and poset.le(r, q):
                    s += vals[(p, r)]
            vals[(p, q)] = -s
    return IncidenceElement(poset, {k: v for k, v in vals.items() if v != 0})


def multiply(alpha: IncidenceElement, beta: IncidenceElement) -> IncidenceElement:
    """Convolution product (alpha beta)(p, r) = sum over q in [p, r]."""
    if alpha.poset is not beta.poset and alpha.poset.up != beta.poset.up:
        raise ValueError("poset mismatch")
    poset = alpha.poset
    vals: dict[tuple[int, int], int] = {}
    for p in range(poset.n):
        for r in poset.up_ids(p):
            s = 0
            for q in poset.segment(p, r):
                s += alpha.values.get((p, q), 0) * beta.values.get((q, r), 0)
            if s:
                vals[(p, r)] = s
    return IncidenceElement(poset, vals)


@dataclass(frozen=True)
class PosetFunction:
    """An integer-valued function on the elements of a finite poset."""

    poset: FinitePoset
    values: tuple

    def __call__(self, q: int) -> int:
        return self.values[q]

    @classmethod
    def from_dict(cls, poset: FinitePoset, d: dict) -> "PosetFunction":
        return cls(poset, tuple(d.get(i, 0) for i in range(poset.n)))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v != 0)


def convolve(f: PosetFunction, alpha: IncidenceElement) -> PosetFunction:
    """Right action (f * alpha)(q) = sum over p <= q of f(p) alpha(p, q)."""
    if f.poset is not alpha.poset and f.poset.up != alpha.poset.up:
        raise ValueError("poset mismatch")
    poset = f.poset
    out = []
    for q in range(poset.n):
        s = 0
        for p in poset.down_ids(q):
            fp = f.values[p]
            if fp:
                s += fp * alpha.values.get((p, q), 0)
        out.append(s)
    return PosetFunction(poset, tuple(out))


def mobius_invert(g: PosetFunction) -> PosetFunction:
    """g * mu: the unique f with g(q) = sum over r <= q of f(r)."""
    return convolve(g, mobius_function(g.poset))
