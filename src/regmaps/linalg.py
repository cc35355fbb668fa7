"""Exact dense linear algebra over the rationals and Gaussian rationals.

Matrices are plain lists of lists of ``Fraction`` or
:class:`GaussianRational`, the exact complex scalar defined here.
:func:`integer_determinant` and :func:`integer_solve` share one
fraction-free elimination and stay on integers; the samplers use them
(every Cayley transform is one :func:`integer_solve`) and so does the
determinant check of an SO(n) point.  The rest is division-based Gaussian
elimination, which both scalar types support.  It serves the Jacobian rank
probe (exact nullspaces and ranks), the determinant correction of the
SU(k) sampler (one :func:`determinant` over :class:`GaussianRational`) and
the tests, which check the integer routines against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Union


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: Union[int, Fraction], im: Union[int, Fraction] = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational"):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = _as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational"):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = _as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: object):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return _as_gaussian(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: object):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = _as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GaussianRational":
        other = _as_gaussian(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


def _as_gaussian(value: object) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot interpret {value!r} as a GaussianRational")


Scalar = Union[Fraction, GaussianRational]
Matrix = List[List[Scalar]]


def _is_zero(x: Scalar) -> bool:
    if isinstance(x, GaussianRational):
        return x.is_zero()
    return x == 0


def identity(n: int, gaussian: bool = False) -> Matrix:
    one: Scalar = GaussianRational.of(1) if gaussian else Fraction(1)
    zero: Scalar = GaussianRational.of(0) if gaussian else Fraction(0)
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
    return [
        [x.conjugate() if isinstance(x, GaussianRational) else x for x in row]
        for row in zip(*a)
    ]


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve ``a @ x = rhs`` for square invertible ``a`` (exact elimination)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    width = len(rhs[0])
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not _is_zero(aug[r][col])), None)
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
            if _is_zero(factor):
                continue
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n : n + width] for row in aug]


def inverse(a: Matrix) -> Matrix:
    gaussian = any(isinstance(x, GaussianRational) for row in a for x in row)
    return solve(a, identity(len(a), gaussian=gaussian))


def determinant(a: Matrix) -> Scalar:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    gaussian = any(isinstance(x, GaussianRational) for row in a for x in row)
    work = [list(row) for row in a]
    det: Scalar = GaussianRational.of(1) if gaussian else Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not _is_zero(work[r][col])), None)
        if pivot is None:
            return GaussianRational.of(0) if gaussian else Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col]
        for r in range(col + 1, n):
            if _is_zero(work[r][col]):
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
        pivot = next((r for r in range(lead, rows) if not _is_zero(work[r][col])), None)
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        inv = work[lead][col]
        work[lead] = [x / inv for x in work[lead]]
        for r in range(rows):
            if r == lead or _is_zero(work[r][col]):
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[lead])]
        lead += 1
    return work


def rank(a: Matrix) -> int:
    if not a:
        return 0
    echelon = row_echelon(a)
    return sum(1 for row in echelon if any(not _is_zero(x) for x in row))


def nullspace_basis(a: Matrix) -> Matrix:
    """Basis (list of vectors) of the right nullspace of ``a``."""
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    echelon = row_echelon(a)
    pivots = {}
    for r in range(rows):
        col = next((c for c in range(cols) if not _is_zero(echelon[r][c])), None)
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
