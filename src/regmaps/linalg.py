"""Exact dense linear algebra.

:func:`integer_determinant` and :func:`integer_solve` share one
fraction-free (Bareiss) elimination and stay on integers; the determinant
also takes Gaussian integers (:class:`~regmaps.polynomial.ComplexPair`
with ``int`` parts, whose ``//`` divides exactly).  The samplers' Cayley
transforms and SU(k) correction and the SO(n) point check use them.  The
rest is Gaussian elimination over ``Fraction`` or ``ComplexPair`` with
rational parts: :func:`row_echelon`, under the ranks and nullspaces of the
Jacobian rank probe.  :func:`inverse` (through :func:`solve`) has no caller
in the package: it stays only for the benchmark's ``linalg.inverse_s`` probe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

from .polynomial import ComplexPair

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


def _bareiss(work: List[List[Integral]], n: int) -> int:
    """Bareiss's fraction-free elimination of the first ``n`` columns of the
    ``n`` rows ``work`` of integers or Gaussian integers, in place; the rows
    may carry more columns, which are carried along.  After step ``k`` every
    entry right of column ``k`` is a minor of the input, so each division by
    the previous pivot is exact (in Z as in Z[i]) and the work stays on
    integers; row ``k`` then reads, from its pivot on, as row ``k`` of an
    equivalent upper triangular system whose last pivot times the returned
    sign is the determinant.  A zero pivot is swapped with a lower row.
    Returns the sign of the swaps, or 0 when a column has no pivot
    (singular).  Needs ``n >= 1``."""
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


def integer_determinant(a: Sequence[Sequence[Integral]]) -> Integral:
    """Exact determinant of a square matrix of integers or of Gaussian
    integers by fraction-free (Bareiss) elimination, which stays on them."""
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
