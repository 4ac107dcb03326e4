"""Exact dense linear algebra over a prime field GF(p).

Everything downstream (limits, colimits, generalized ranks) reduces to
rank / kernel / cokernel computations of small dense matrices, and all
of it runs on rows of Python ints with no numpy products: elimination
(`rref_rows`, the one elimination routine of the package; nothing
eliminates over Q, so no `Fraction` is used), kernels (`kernel_rows`,
the one kernel routine; a cokernel is the kernel of the transpose) and
the two moves of the zigzag sweep (`mul_rows`, `pull_rows`) use modular
pivot inverses, exact for every p, and on the small matrices grinv
eliminates (tens of cells) they skip numpy's per-call overhead, which
would otherwise dominate.  Module maps are int rows as well, and module
files read and write them as rows (`rows_from_lines`, `rows_to_text`).
`FFMatrix` wraps an int64 numpy array and serves only the basis changes
of `PModule.scramble` (`random_invertible`, `inverse`); numpy is imported
inside it and `random_invertible`, so importing this module loads none.
Default p = 2.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_P = 2

# The int-row routines, and so every product of module maps, are exact
# for every p.  The int64 products left are those of `random_invertible`:
# one entry sums `inner` terms, each at most (p - 1)**2, with the
# dimension of one element's space as the inner dimension.  PModule caps
# those dimensions at MAX_DIM, and MAX_P is the largest modulus with
# MAX_DIM * (p - 1)**2 < 2**63.  Inputs beyond either cap are rejected.
MAX_DIM = 1 << 16
MAX_P = isqrt((2**63 - 1) // MAX_DIM) + 1


@cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime for which int64 arithmetic stays
    exact; the cap comes first, as trial division of 2**61 - 1 takes minutes."""
    if p > MAX_P:
        raise ValueError(f"modulus {p} exceeds {MAX_P}, the largest exact in int64")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


def rref_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of a matrix given as rows of residues in [0, p).

    Returns (rows, pivot_cols); ``rows`` is reduced in place.  Pivoting
    takes the first nonzero entry in each column (swap, scale, clear).
    The rows are lists of Python ints: exact for every p, and far
    cheaper than numpy row operations on matrices this small.
    """
    m = len(rows)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= m:
            break
        piv = next((i for i in range(row, m) if rows[i][col]), None)
        if piv is None:
            continue
        prow = rows[piv]
        rows[piv] = rows[row]
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            prow = [v * inv % p for v in prow]
        rows[row] = prow
        for i in range(m):
            f = rows[i][col]
            if f and i != row:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], prow)]
        pivots.append(col)
        row += 1
    return rows, pivots


def kernel_rows(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """A basis of ker(A) for A given as rows of residues, one vector per free column."""
    r, pivots = rref_rows(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -r[i][f] % p
        basis.append(v)
    return basis


def mul_rows(vecs: list[list[int]], rows: list[list[int]], p: int) -> list[list[int]]:
    """Apply the matrix with the given rows to each vector."""
    return [[sum(map(mul, row, v)) % p for row in rows] for v in vecs]


def pull_rows(vecs: list[list[int]], mt_rows: list[list[int]], width: int,
              p: int) -> list[list[int]]:
    """A basis of the pullback of span(vecs) along M^T.

    ``mt_rows`` are the rows of M^T (one per entry of the vectors, each
    ``width`` long).  The result is the nonzero b-parts of a basis of
    ker [vecs | M^T], with vecs as columns: every b has M^T b in the span
    of vecs, and together they span all such b.  A kernel vector whose
    free column lies among the vecs only records a dependency among them:
    its b-part is zero, and it is dropped.  Each vector left has a 1 at
    its own free column and 0 at the others, so they are independent.
    """
    k = len(vecs)
    m = [[v[r] for v in vecs] + row for r, row in enumerate(mt_rows)]
    return [b for z in kernel_rows(m, k + width, p) if any(b := z[k:])]


def rows_to_text(rows: list[list[int]], ncols: int) -> str:
    """The `rows cols` line and one line of residues per row."""
    return "\n".join([f"{len(rows)} {ncols}", *(" ".join(map(str, row)) for row in rows)])


def rows_from_lines(lines: list[str], start: int) -> tuple[list[list[int]], int, int]:
    """Parse the `rows cols` + row-major block starting at lines[start].

    Returns (rows, cols, index of the next line).  Entries are read as
    Python ints, so any size is exact; reducing them mod p is the
    caller's.
    """
    nrows, ncols = (int(t) for t in lines[start].split())
    if nrows < 0 or ncols < 0:
        raise ValueError("negative dimensions are not allowed")
    rows = []
    for i in range(nrows):
        toks = lines[start + 1 + i].split()
        if len(toks) != ncols:
            raise ValueError(f"matrix row {i}: expected {ncols} entries")
        rows.append([int(t) for t in toks])
    return rows, ncols, start + 1 + nrows


class FFMatrix:
    """A dense matrix over GF(p), wrapping a numpy int64 array."""

    __slots__ = ("a", "p")

    def __init__(self, data, p: int = DEFAULT_P, copy: bool = True):
        import numpy as np

        check_modulus(p)
        a = np.array(data, dtype=np.int64, copy=copy)
        if a.ndim != 2:
            raise ValueError("FFMatrix needs a 2-d array")
        self.a = a % p
        self.p = p

    # -- basic shape / access -----------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and other.p == self.p
            and other.a.shape == self.a.shape
            and other.a.tolist() == self.a.tolist()
        )

    def __repr__(self):
        return f"FFMatrix(p={self.p}, {self.a.tolist()})"

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["FFMatrix", list[int]]:
        """Reduced row-echelon form, by :func:`rref_rows`.

        Returns (R, pivot_cols).  Pivoting takes the first nonzero entry in
        each column, so the result is deterministic.
        """
        import numpy as np

        m, n = self.a.shape
        rows, pivots = rref_rows(self.a.tolist(), n, self.p)
        return FFMatrix(np.array(rows, dtype=np.int64).reshape(m, n), self.p, copy=False), pivots

    def inverse(self) -> "FFMatrix":
        import numpy as np

        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = FFMatrix(np.hstack([self.a, np.eye(n, dtype=np.int64)]), self.p)
        r, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return FFMatrix(r.a[:, n:], self.p, copy=False)


def random_invertible(rng: np.random.Generator, n: int, p: int) -> FFMatrix:
    """Random invertible matrix: unit lower-triangular @ unit upper-triangular @ permutation."""
    import numpy as np

    lo = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    return FFMatrix((lo @ up) % p @ perm, p, copy=False)

