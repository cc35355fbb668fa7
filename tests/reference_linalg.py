"""Division-based reference routines for the tests: exact matrix products,
transposes and determinants over ``Fraction`` or
:class:`~regmaps.polynomial.ComplexPair` entries with rational parts, and
sphere points from ``Fraction`` parameters.  The package computes these
fraction-free on integers; the tests check it against the textbook forms
here."""

from fractions import Fraction
from typing import Sequence, Tuple

from regmaps.linalg import Matrix, Scalar
from regmaps.varieties import _sphere_scaled


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("incompatible shapes for matrix product")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def conjugate_transpose(a: Matrix) -> Matrix:
    return [[x.conjugate() for x in row] for row in zip(*a)]


def determinant(a: Matrix) -> Scalar:
    """Determinant by Gaussian elimination with division."""
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


def sphere_coords_from_parameters(ts: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Rational point on the sphere from rational parameters via the inverse
    stereographic parametrization, as the samplers build it."""
    q, nums = _sphere_scaled([(t.numerator, t.denominator) for t in ts])
    return tuple([Fraction(n, q) for n in nums])
