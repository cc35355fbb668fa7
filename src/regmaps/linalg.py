"""Exact dense linear algebra over the rationals and Gaussian rationals.

Small helper kit used by the samplers (Cayley transforms need an exact
matrix inverse), by the Jacobian rank probe (exact nullspaces and ranks)
and by checks that read a unitary image as a complex matrix.  Matrices
are plain lists of lists of ``Fraction`` or :class:`GaussianRational`,
the exact complex scalar defined here; everything is division-based
Gaussian elimination, which both scalar types support, except
:func:`integer_determinant`, which stays on integers.
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


def integer_determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss's
    fraction-free elimination: after step ``k`` every entry is a minor of
    ``a``, so each division by the previous pivot is exact and the work
    stays on integers.  A zero pivot is swapped with a lower row."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    work = [list(row) for row in a]
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
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // previous
        previous = pivot
    return sign * work[-1][-1] if n else 1


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
