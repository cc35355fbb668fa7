"""Exact dense linear algebra.

:func:`integer_determinant`, :func:`integer_solve` and :func:`rank` share
one fraction-free (Bareiss) elimination and stay on integers (:func:`rank`
scales each row to integers first); the determinant also takes Gaussian
integers (:class:`~regmaps.polynomial.ComplexPair` with ``int`` parts,
whose ``//`` divides exactly).  The samplers, the SO(n) point check and the
Jacobian rank probe use them.  :func:`row_echelon`, Gaussian elimination
over ``Fraction`` or ``ComplexPair`` with rational parts, remains only
under :func:`inverse` (through :func:`solve`), which has no caller in the
package: it stays only for the benchmark's ``linalg.inverse_s`` probe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .polynomial import ComplexPair, scale_point

Scalar = Union[Fraction, ComplexPair]
Integral = Union[int, ComplexPair]  # a ComplexPair with int parts
Matrix = List[List[Scalar]]


def identity(n: int, gaussian: bool = False) -> Matrix:
    one: Scalar = ComplexPair(Fraction(1), Fraction(0)) if gaussian else Fraction(1)
    zero: Scalar = ComplexPair(Fraction(0), Fraction(0)) if gaussian else Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve ``a @ x = rhs`` for square invertible ``a`` (exact elimination):
    the reduced row echelon form of ``[a | rhs]`` reads ``[I | x]``."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    echelon = row_echelon([list(row) + list(extra) for row, extra in zip(a, rhs)])
    if not echelon[-1][n - 1]:  # no pivot in the last column of a: singular
        raise ValueError("matrix is singular")
    return [row[n:] for row in echelon]


def inverse(a: Matrix) -> Matrix:
    gaussian = any(isinstance(x, ComplexPair) for row in a for x in row)
    return solve(a, identity(len(a), gaussian=gaussian))


def _bareiss(work: List[List[Integral]], columns: int) -> Tuple[int, List[int]]:
    """Bareiss's fraction-free elimination of the first ``columns`` columns
    of the rows ``work`` of integers or Gaussian integers, in place; the
    rows may carry more columns, which are carried along.  Each column with
    a nonzero entry at or below the next pivot row gives a pivot (swapped up
    when needed); one with none is skipped.  Every entry below and right of
    the last pivot is then a minor of the input, so each division by the
    previous pivot is exact (in Z as in Z[i]).  With a pivot in every column
    of a square matrix, row ``k`` reads, from its pivot on, as row ``k`` of
    an equivalent upper triangular system whose last pivot times the sign
    is the determinant.  Returns ``(sign, pivots)``: the sign of the swaps
    and the pivot columns, as many as the rank.  Needs a row."""
    rows, width = len(work), len(work[0])
    sign = 1
    previous = 1
    pivots: List[int] = []
    for c in range(columns):
        k = len(pivots)
        if k == rows:
            break
        if not work[k][c]:
            swap = next((r for r in range(k + 1, rows) if work[r][c]), None)
            if swap is None:
                continue
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot_row = work[k]
        pivot = pivot_row[c]
        for row in work[k + 1 :]:
            factor = row[c]
            for j in range(c + 1, width):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // previous
        previous = pivot
        pivots.append(c)
    return sign, pivots


def integer_determinant(a: Sequence[Sequence[Integral]]) -> Integral:
    """Exact determinant of a square matrix of integers or of Gaussian
    integers by fraction-free (Bareiss) elimination, which stays on them."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if not n:
        return 1
    work = [list(row) for row in a]
    sign, pivots = _bareiss(work, n)
    return (sign if len(pivots) == n else 0) * work[-1][-1]


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
    sign, pivots = _bareiss(work, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    last = work[-1][n - 1]
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


def rank(a: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    """Exact rank of a matrix of integers or ``Fraction`` entries: each
    nonzero row, scaled to integers (which keeps the rank), goes through the
    fraction-free elimination of :func:`integer_determinant`, and the rank
    is its number of pivot columns."""
    rows = [scale_point(row)[1] for row in a if any(row)]
    if not rows:
        return 0
    return len(_bareiss(rows, len(rows[0]))[1])
