from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grinv.mobius import (
    PosetFunction,
    convolve,
    delta,
    mobius_function,
    mobius_invert,
    multiply,
    zeta,
)
from grinv.posets import FinitePoset, containment_poset, enumerate_grid_intervals, grid_poset, subposet
from grinv.sampling import random_poset

from conftest import matrix_poset


def test_delta_is_idempotent(chain4):
    d = delta(chain4)
    assert dict(multiply(d, d).values) == dict(d.values)


def test_zeta_on_chain_is_upper_triangular_ones():
    c = FinitePoset.chain(3)
    z = zeta(c)
    assert z.matrix().tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_zeta_vanishes_on_incomparable(grid22):
    z = zeta(grid22)
    assert (1, 2) not in z.values and (2, 1) not in z.values


def test_mobius_on_chain():
    c = FinitePoset.chain(4)
    mu = mobius_function(c)
    for p in range(4):
        assert mu(p, p) == 1
        if p < 3:
            assert mu(p, p + 1) == -1
        for q in range(p + 2, 4):
            assert mu(p, q) == 0


def test_mobius_on_boolean_lattice():
    # subsets of {0,1,2} ordered by inclusion; mu(A,B) = (-1)^{|B\A|}
    subsets = [frozenset(c) for k in range(4) for c in combinations(range(3), k)]
    n = len(subsets)
    leq = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            leq[i, j] = a <= b
    lattice = matrix_poset(leq)
    mu = mobius_function(lattice)
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            if a <= b:
                assert mu(i, j) == (-1) ** len(b - a)


def test_mobius_diamond_coefficients(chain4):
    # segments of the 4-chain ordered by reverse inclusion
    full = subposet(chain4, (0, 1, 2, 3))
    left = subposet(chain4, (0, 1, 2))
    right = subposet(chain4, (1, 2, 3))
    mid = subposet(chain4, (1, 2))
    cp = containment_poset([full, left, right, mid])
    mu = mobius_function(cp.poset)
    i = {x: cp.items.index(x) for x in (full, left, right, mid)}
    assert mu(i[full], i[full]) == 1
    assert mu(i[full], i[left]) == -1
    assert mu(i[full], i[right]) == -1
    assert mu(i[full], i[mid]) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 10 ** 9))
def test_zeta_mobius_inverse_random_posets(n, seed):
    p = random_poset(np.random.default_rng(seed), n)
    z, mu, d = zeta(p), mobius_function(p), delta(p)
    assert dict(multiply(z, mu).values) == dict(d.values)
    assert dict(multiply(mu, z).values) == dict(d.values)


def test_zeta_mobius_inverse_on_interval_containment_posets():
    for w, h in ((2, 2), (3, 2), (3, 3)):
        cp = containment_poset(enumerate_grid_intervals(grid_poset(w, h)))
        z, mu, d = zeta(cp.poset), mobius_function(cp.poset), delta(cp.poset)
        assert dict(multiply(z, mu).values) == dict(d.values)
        assert dict(multiply(mu, z).values) == dict(d.values)


def test_convolve_with_delta_is_identity(rng):
    p = random_poset(rng, 8)
    f = PosetFunction(p, tuple(int(v) for v in rng.integers(-5, 6, p.n)))
    assert convolve(f, delta(p)).values == f.values


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(0, 10 ** 9))
def test_inversion_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    p = random_poset(rng, n)
    f = PosetFunction(p, tuple(int(v) for v in rng.integers(-4, 5, n)))
    g = convolve(f, zeta(p))
    assert convolve(g, mobius_function(p)).values == f.values
    assert mobius_invert(g).values == f.values


def test_inversion_of_up_set_indicator(rng):
    # the inversion of the indicator of an up-set {r >= q} is the point mass at q
    for _ in range(10):
        p = random_poset(rng, 8)
        q = int(rng.integers(0, p.n))
        ind = PosetFunction(p, tuple(1 if p.leq[q, r] else 0 for r in range(p.n)))
        got = mobius_invert(ind)
        want = tuple(1 if r == q else 0 for r in range(p.n))
        assert got.values == want


def test_constant_one_on_chain_inverts_to_bottom_mass():
    c = FinitePoset.chain(5)
    g = PosetFunction(c, (1,) * 5)
    assert mobius_invert(g).values == (1, 0, 0, 0, 0)


def test_convolve_is_linear(rng):
    p = random_poset(rng, 7)
    z = zeta(p)
    f1 = PosetFunction(p, tuple(int(v) for v in rng.integers(-3, 4, p.n)))
    f2 = PosetFunction(p, tuple(int(v) for v in rng.integers(-3, 4, p.n)))
    summed = PosetFunction(p, tuple(a + b for a, b in zip(f1.values, f2.values)))
    lhs = convolve(summed, z).values
    rhs = tuple(a + b for a, b in zip(convolve(f1, z).values, convolve(f2, z).values))
    assert lhs == rhs


def test_action_associativity(rng):
    for _ in range(10):
        p = random_poset(rng, 6)
        f = PosetFunction(p, tuple(int(v) for v in rng.integers(-3, 4, p.n)))
        alpha, beta = zeta(p), mobius_function(p)
        assert convolve(convolve(f, alpha), beta).values == convolve(f, multiply(alpha, beta)).values


def test_upper_triangular_view_and_invertibility(rng):
    for _ in range(10):
        p = random_poset(rng, 8)
        zmat = zeta(p).matrix()
        assert not np.tril(zmat, -1).any()
        assert (zmat.diagonal() == 1).all()  # unitriangular, hence invertible
        mumat = mobius_function(p).matrix()
        assert not np.tril(mumat, -1).any()
        assert np.array_equal((zmat @ mumat), np.eye(p.n, dtype=np.int64))


def test_incidence_element_rejects_incomparable(grid22):
    z = zeta(grid22)
    with pytest.raises(KeyError):
        z(1, 2)


def test_products_refuse_posets_of_another_order():
    """Equal sizes are not enough: multiply and convolve compare the orders."""
    chain, antichain = FinitePoset.chain(3), FinitePoset([1, 2, 4], [1, 2, 4])
    with pytest.raises(ValueError, match="poset mismatch"):
        multiply(zeta(chain), zeta(antichain))
    with pytest.raises(ValueError, match="poset mismatch"):
        convolve(PosetFunction(antichain, (1, 0, 0)), zeta(chain))
    # an equal order held by another object is the same poset
    twin = FinitePoset(chain.up, chain.down)
    assert multiply(zeta(chain), delta(twin)).values == zeta(chain).values
    assert convolve(PosetFunction(twin, (1, 0, 0)), zeta(chain)).values == (1, 1, 1)
