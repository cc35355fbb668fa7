"""Exact dense linear algebra over the rationals, real or complex.

Matrices are plain lists of lists of ``Fraction`` or, for complex
entries, :class:`~regmaps.polynomial.ComplexPair` with rational parts.
:func:`integer_determinant` and :func:`integer_solve` share one
fraction-free elimination and stay on integers; the samplers use them
(every Cayley transform is one :func:`integer_solve`) and so does the
determinant check of an SO(n) point.  The rest is division-based Gaussian
elimination, which both scalar types support.  It serves the Jacobian rank
probe (exact nullspaces and ranks), the determinant correction of the
SU(k) sampler (one :func:`determinant` over complex pairs) and the tests,
which check the integer routines against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

from .polynomial import ComplexPair

Scalar = Union[Fraction, ComplexPair]
Matrix = List[List[Scalar]]


def identity(n: int, gaussian: bool = False) -> Matrix:
    one: Scalar = ComplexPair(Fraction(1), Fraction(0)) if gaussian else Fraction(1)
    zero: Scalar = ComplexPair(Fraction(0), Fraction(0)) if gaussian else Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("incompatible shapes for matrix product")
    rows, inner, cols = len(a), len(b), len(b[0])
    out: Matrix = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> list:
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def conjugate_transpose(a: Matrix) -> Matrix:
    return [[x.conjugate() for x in row] for row in zip(*a)]


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve ``a @ x = rhs`` for square invertible ``a`` (exact elimination)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    width = len(rhs[0])
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if not factor:
                continue
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n : n + width] for row in aug]


def inverse(a: Matrix) -> Matrix:
    gaussian = any(isinstance(x, ComplexPair) for row in a for x in row)
    return solve(a, identity(len(a), gaussian=gaussian))


def determinant(a: Matrix) -> Scalar:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    work = [list(row) for row in a]
    det: Scalar = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return det * work[col][col]  # zero, of the entries' type
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col]
        for r in range(col + 1, n):
            if not work[r][col]:
                continue
            factor = work[r][col] / inv
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def _bareiss(work: List[List[int]], n: int) -> int:
    """Bareiss's fraction-free elimination of the first ``n`` columns of the
    ``n`` integer rows ``work``, in place; the rows may carry more columns,
    which are carried along.  After step ``k`` every entry right of column
    ``k`` is a minor of the input, so each division by the previous pivot
    is exact and the work stays on integers; row ``k`` then reads, from its
    pivot on, as row ``k`` of an equivalent upper triangular system whose
    last pivot times the returned sign is the determinant.  A zero pivot is
    swapped with a lower row.  Returns the sign of the swaps, or 0 when a
    column has no pivot (singular).  Needs ``n >= 1``."""
    width = len(work[0])
    sign = 1
    previous = 1
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((r for r in range(k + 1, n) if work[r][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot_row = work[k]
        pivot = pivot_row[k]
        for row in work[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, width):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // previous
        previous = pivot
    return sign


def integer_determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination, which stays on integers."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if not n:
        return 1
    work = [list(row) for row in a]
    return _bareiss(work, n) * work[-1][-1]


def integer_solve(a: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]) -> tuple:
    """``(det(a), Y)`` with ``Y = det(a) * X`` for the solution ``X`` of
    ``a @ X = rhs``, square invertible ``a`` and ``rhs`` integer matrices.

    ``Y = adj(a) @ rhs`` is an integer matrix (Cramer's rule).  The
    augmented rows ``[a | rhs]`` go through the elimination of
    :func:`integer_determinant`; back-substitution from its last pivot
    ``d`` then solves ``U_ii Y_i = d b_i - sum_{j > i} U_ij Y_j`` for each
    row ``i`` of the triangular system ``U @ X = b``, and each division is
    exact because ``d * X`` is integral."""
    n = len(a)
    if not n or any(len(row) != n for row in a) or len(rhs) != n:
        raise ValueError("need a nonempty square matrix and as many right-hand rows")
    work = [list(row) + list(extra) for row, extra in zip(a, rhs)]
    sign = _bareiss(work, n)
    last = work[-1][n - 1]
    if not sign or not last:
        raise ValueError("matrix is singular")
    width = len(work[0]) - n
    y = [[0] * width for _ in range(n)]
    for i in reversed(range(n)):
        row = work[i]
        for c in range(width):
            rest = sum(row[j] * y[j][c] for j in range(i + 1, n))
            y[i][c] = (last * row[n + c] - rest) // row[i]
    if sign < 0:
        y = [[-v for v in row] for row in y]
    return sign * last, y


def row_echelon(a: Matrix) -> Matrix:
    """Reduced row echelon form (does not modify the input)."""
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    work = [list(row) for row in a]
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        pivot = next((r for r in range(lead, rows) if work[r][col]), None)
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        inv = work[lead][col]
        work[lead] = [x / inv for x in work[lead]]
        for r in range(rows):
            if r == lead or not work[r][col]:
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[lead])]
        lead += 1
    return work


def rank(a: Matrix) -> int:
    if not a:
        return 0
    echelon = row_echelon(a)
    return sum(1 for row in echelon if any(row))


def nullspace_basis(a: Matrix) -> Matrix:
    """Basis (list of vectors) of the right nullspace of ``a``."""
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    echelon = row_echelon(a)
    pivots = {}
    for r in range(rows):
        col = next((c for c in range(cols) if echelon[r][c]), None)
        if col is not None:
            pivots[col] = r
    free = [c for c in range(cols) if c not in pivots]
    basis: Matrix = []
    for f in free:
        vec: list = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for col, r in pivots.items():
            vec[col] = -echelon[r][f]
        basis.append(vec)
    return basis
