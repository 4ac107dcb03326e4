import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grinv.gf import (
    MAX_P,
    FFMatrix,
    check_modulus,
    is_prime,
    kernel_rows,
    mul_rows,
    pull_rows,
    random_invertible,
    rows_from_lines,
    rows_to_text,
    rref_rows,
)
from grinv.modules import PModule
from grinv.posets import FinitePoset


def test_check_modulus_rejects_composites():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="prime"):
            check_modulus(p)
        with pytest.raises(ValueError, match="prime"):
            FFMatrix([[1]], p)
    check_modulus(2)
    assert FFMatrix([[8]], 7).a.tolist() == [[1]]


def test_moduli_beyond_int64_exactness_are_rejected():
    # at 2**31 - 1 the int64 product of two 3x3 all-(p - 1) matrices wraps
    # around and used to come out as 2147483646 instead of 3
    big = 2**31 - 1
    assert is_prime(big) and big > MAX_P
    with pytest.raises(ValueError, match="exceeds"):
        FFMatrix([[big - 1] * 3] * 3, big)
    with pytest.raises(ValueError, match="exceeds"):
        check_modulus(big)


def test_a_modulus_above_the_cap_is_rejected_before_any_primality_test(monkeypatch):
    """Trial division of 2**61 - 1 would run for minutes, so the cap must
    be compared first; a composite above the cap is rejected the same way."""
    import grinv.gf as gf

    def no_trial_division(p):
        raise AssertionError(f"primality of {p} tested above the cap")

    monkeypatch.setattr(gf, "is_prime", no_trial_division)
    for big in (MAX_P + 1, 2**61 - 1, 2**62):
        with pytest.raises(ValueError, match="exceeds"):
            check_modulus(big)


def test_largest_allowed_prime_multiplies_exactly():
    # a 3-chain whose two maps are all p - 1, so each entry of the composite
    # transition sums 3 * (p - 1)**2
    p = next(q for q in range(MAX_P, 2, -1) if is_prime(q))
    m = [[p - 1] * 3] * 3
    chain = PModule(FinitePoset.chain(3), [3, 3, 3], {(0, 1): m, (1, 2): m}, p)
    assert chain.transition(0, 2) == [[3] * 3] * 3


def rank(rows, ncols, p=2):
    return len(rref_rows([list(r) for r in rows], ncols, p)[1])


def transpose(rows, ncols):
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(ncols)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_rank_identity_and_zero():
    assert rank(identity(5), 5) == 5
    assert rank([[0] * 4] * 3, 4) == 0


def test_rank_equal_rows_gf2():
    assert rank([[1, 1], [1, 1]], 2) == 1


def test_one_plus_one_is_zero_mod_2():
    assert mul_rows([[1, 1]], [[1, 1]], 2) == [[0]]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_and_cokernel_dims(rng, p):
    for _ in range(20):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.integers(0, p, (m, n)).tolist()
        r = rank(a, n, p)
        k = kernel_rows([list(row) for row in a], n, p)
        assert mul_rows(k, a, p) == [[0] * m] * len(k)  # A K = 0
        assert rank(k, n, p) == len(k)  # independent columns
        assert r + len(k) == n  # rank-nullity
        # the cokernel projector: functionals on k^m killing col(A), the kernel of A^T
        proj = kernel_rows(transpose(a, n), m, p)
        assert len(proj) == m - r
        assert mul_rows(proj, transpose(a, n), p) == [[0] * n] * len(proj)  # P A = 0
        assert rank(proj, m, p) == len(proj)  # surjective projection


def test_kernel_of_identity_and_zero():
    assert kernel_rows(identity(4), 4, 2) == []
    assert kernel_rows([[0] * 5] * 3, 5, 2) == identity(5)
    assert len(kernel_rows(transpose([[0] * 5] * 3, 5), 3, 2)) == 3


def test_rank_transpose_and_product_bound(rng):
    for _ in range(25):
        a = rng.integers(0, 2, (4, 6)).tolist()
        b = rng.integers(0, 2, (6, 3)).tolist()
        assert rank(a, 6) == rank(transpose(a, 6), 4)
        ab = transpose(mul_rows(transpose(b, 3), a, 2), 4)  # the rows of A B
        assert rank(ab, 3) <= min(rank(a, 6), rank(b, 3))


def test_inverse_round_trip(rng):
    for p in (2, 5):
        for _ in range(10):
            m = random_invertible(rng, 4, p)
            assert ((m.a @ m.inverse().a) % p).tolist() == identity(4)


def test_text_round_trip():
    rows = [[1, 2, 0], [0, 1, 2]]
    text = rows_to_text(rows, 3)
    assert text == "2 3\n1 2 0\n0 1 2"
    back, ncols, nxt = rows_from_lines(text.splitlines(), 0)
    assert (back, ncols, nxt) == (rows, 3, 3)
    # a block without rows keeps its width in the header alone
    assert rows_from_lines(rows_to_text([], 4).splitlines(), 0) == ([], 4, 1)


def test_rows_from_lines_reads_huge_entries_exactly():
    back, _, _ = rows_from_lines(["1 2", f"{2 ** 70} -{3 ** 50}"], 0)
    assert back == [[2 ** 70, -3 ** 50]]
    for bad in (["1 2", "1"], ["-1 2"], ["1 x"], ["1 2", "1 y"]):
        with pytest.raises(ValueError):
            rows_from_lines(bad, 0)


LARGEST_P = next(q for q in range(MAX_P, 2, -1) if is_prime(q))


def numpy_rref(a: FFMatrix) -> tuple[FFMatrix, list[int]]:
    """Elimination by numpy row operations: the oracle for FFMatrix.rref."""
    r = a.a.copy()
    p = a.p
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        sub = np.nonzero(r[row:, col])[0]
        if sub.size == 0:
            continue
        piv = row + int(sub[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        r[row] = (r[row] * inv) % p
        for i in np.nonzero(r[:, col])[0]:
            if i != row:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return FFMatrix(r, p, copy=False), pivots


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, LARGEST_P]), st.integers(0, 7), st.integers(0, 7), st.data())
def test_rref_reproduces_row_space(p, m, n, data):
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    if m >= 2 and data.draw(st.booleans()):
        # a dependent last row, so that large p also meets rank deficiency
        c = data.draw(st.integers(0, p - 1))
        rows[-1] = [(c * u + v) % p for u, v in zip(rows[0], rows[1])]
    a = FFMatrix(np.array(rows, dtype=np.int64).reshape(m, n), p)
    r, pivots = a.rref()
    want_r, want_pivots = numpy_rref(a)
    assert r == want_r and pivots == want_pivots
    # every pivot column has a single 1 in its pivot row
    for i, c in enumerate(pivots):
        col = r.a[:, c]
        assert col[i] == 1 and col.sum() == 1
    # R spans the row space of A
    assert rank(rows + r.a.tolist(), n, p) == len(pivots)
    basis = kernel_rows([list(row) for row in rows], n, p)
    assert len(basis) == n - len(pivots)
    assert mul_rows(basis, rows, p) == [[0] * m] * len(basis)
    assert rank(basis, n, p) == len(basis)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, LARGEST_P]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_pull_rows_spans_the_pullback(p, k, n, w, data):
    """k vectors of length n and M^T of shape n x w: pull_rows returns
    independent vectors b with M^T b in the span of the vectors, spanning
    all such b, even when the vectors are dependent."""
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    vecs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if k >= 2 and data.draw(st.booleans()):
        vecs[-1] = [(2 * v) % p for v in vecs[0]]
    mt = data.draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=n, max_size=n))
    span = np.array(vecs, dtype=np.int64).reshape(k, n).T
    mt_a = np.array(mt, dtype=np.int64).reshape(n, w)

    def np_rank(a):
        return len(numpy_rref(FFMatrix(a, p))[1])

    bs = pull_rows(vecs, mt, w, p)
    assert all(len(b) == w for b in bs)
    b_cols = np.array(bs, dtype=np.int64).reshape(len(bs), w).T
    images = mul_rows(bs, mt, p)
    assert images == ((mt_a @ b_cols) % p).T.tolist()
    for img in images:
        col = np.array(img, dtype=np.int64).reshape(n, 1)
        assert np_rank(np.hstack([span, col])) == np_rank(span)
    assert len(bs) == np_rank(b_cols) == w - np_rank(np.hstack([span, mt_a])) + np_rank(span)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
