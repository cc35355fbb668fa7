"""Topological invariants of rational maps, measured numerically or exactly.

* :func:`winding` -- exact degree of a circle self-map: a Cauchy index over
  the rationals, counted by signed remainder (Sturm) sequences.
* :func:`degree_mc` -- Monte Carlo mapping degree of a sphere self-map:
  the tangent Jacobian determinant det(B_f^T J B_x) in oriented orthonormal
  frames ([x | B_x], [f | B_f] positive), averaged over uniform points x,
  estimates the degree.  It equals det(f x^T + J (I - x x^T)), since in
  those frames that matrix is [[1, f^T J B_x], [0, B_f^T J B_x]]; so no
  frame is built.  Deterministic for a fixed seed: points are drawn in
  fixed-size chunks from counter-based streams keyed by (seed, chunk).
  Each chunk is held batch-last: ``x[var]`` is one coordinate at every
  point, and each polynomial value and Jacobian entry is a ``float`` where
  it is constant, else one batch array, so a constant partial or
  denominator costs scalar arithmetic.  The matrices are a ``dim x dim``
  table of batch arrays.  Up to ``LAPLACE_MAX_DIM`` their determinants come
  from a Laplace expansion that builds the minors of the bottom k rows from
  those of the bottom k - 1 (dim * 2^(dim-1) vector products, all but the
  first of each minor through one scratch buffer, no call per matrix);
  larger dimensions go to LAPACK through ``np.linalg.det``.
* :func:`regular_value_probe` -- exact-arithmetic check that given fiber
  points map to a common value and that the differential, restricted to
  the domain tangent space and projected to the codomain tangent space,
  has full rank there.  That rank is one bordered rank,
  rank [[J, N_c^T], [N_d, 0]] - rank N_d - rank N_c with ``N_d`` and ``N_c``
  the domain's and codomain's normal rows, so no tangent basis is built.
* :func:`radon_hurwitz` / :func:`check_codim_pair` -- the classical
  power-of-two counting function and the congruence test it feeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, dropwhile
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg
from .polynomial import Polynomial, exponents
from .ratmap import RationalMap, Verdict, compose
from .spheres import stereo_inv
from .varieties import PointOnVariety, sphere

CHUNK_SIZE = 1 << 14

# Largest dimension whose Monte Carlo determinants come from the shared-minor
# expansion; above it, np.linalg.det.  One chunk of 16,384 matrices held as
# a table of batch arrays, best of 15 on a 2-vCPU x86-64 machine with
# OpenBLAS 0.3.31 on one thread (expansion through its scratch buffer vs
# LAPACK): d = 4 1.0 vs 4.8 ms, d = 5 1.4 vs 6.6 ms, d = 6 3.7 vs 8.3 ms,
# d = 7 7.3 vs 11.6 ms, d = 8 15.4 vs 13.5 ms, d = 9 52 vs 27 ms; d = 8 is
# close (one run of three gave 20.0 vs 21.7 ms).  The expansion's cost
# doubles with each dimension; LAPACK's is polynomial.
LAPLACE_MAX_DIM = 7


class NonConvergenceError(RuntimeError):
    """Raised when a numeric invariant fails to stabilize."""


# ---------------------------------------------------------------------------
# Batched float evaluation of polynomials
# ---------------------------------------------------------------------------


TermData = List[Tuple[float, Tuple[Tuple[int, int], ...]]]
Value = Union[float, np.ndarray]  # a scalar where constant over the batch


def _term_data(p: Polynomial) -> TermData:
    # ``coeff / p.den`` is correctly rounded, as ``float`` of the Fraction is.
    out = []
    for m, coeff in p.terms.items():
        factors = tuple((i, e) for i, e in enumerate(exponents(m, p.registry)) if e)
        out.append((coeff / p.den, factors))
    return out


def _evaluate(
    term_data: TermData,
    x: np.ndarray,
    powers: Dict[Tuple[int, int], np.ndarray],
) -> Value:
    """A polynomial at a batch of points held batch-last (``x[var]`` is
    variable ``var`` at every point): a ``float`` when the polynomial is
    constant, else an array.  ``powers`` caches each ``x[var] ** exp`` for
    later calls on the same ``x``; a first power is the row itself."""
    total = 0.0
    for coeff, factors in term_data:
        value = coeff
        for key in factors:
            power = powers.get(key)
            if power is None:
                var, exp = key
                power = powers[key] = x[var] ** exp if exp > 1 else x[var]
            value = value * power
        total = total + value
    return total


# ---------------------------------------------------------------------------
# Winding number of circle maps
# ---------------------------------------------------------------------------


def _coefficients(p: Polynomial) -> List[Fraction]:
    """Dense coefficients of a one-variable polynomial, leading first."""
    coeffs = [Fraction(0)] * (p.total_degree() + 1) if p.terms else []
    for m, c in p.terms.items():
        (e,) = exponents(m, p.registry)
        coeffs[-1 - e] = Fraction(c, p.den)
    return coeffs


def _remainder(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """Remainder of ``a`` by nonzero ``b``, both dense and leading first."""
    while len(a) >= len(b):
        q = a[0] / b[0]
        a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    return list(dropwhile(lambda c: c == 0, a))


def _cauchy_index(p: Polynomial, q: Polynomial) -> int:
    """Ind(q/p) over the real line, ``p`` nonzero: the jumps of ``q/p`` from
    -inf to +inf minus those from +inf to -inf.  By the Sturm-Sylvester
    theorem it is the number of sign changes at -inf minus that at +inf of
    the signed remainder sequence ``p, q, -rem(p, q), ...``.  Two neighbours
    with degrees of equal parity change sign at both ends or at neither; the
    others add +1 when their leading coefficients agree in sign, else -1."""
    a, b = _coefficients(p), _coefficients(q)
    index = 0
    while b:
        if (len(a) + len(b)) % 2:
            index += 1 if (a[0] > 0) == (b[0] > 0) else -1
        a, b = b, [-c for c in _remainder(a, b)]
    return index


def _real_roots(p: Polynomial) -> int:
    """Sturm's theorem: ``Ind(p'/p)`` is the number of distinct real roots."""
    return _cauchy_index(p, p.differentiate(0))


def winding(f: RationalMap) -> int:
    """Exact winding number of a circle self-map.

    ``compose(f, stereo_inv(1))`` is ``(P, Q) / E`` in ``t``, which runs
    counter-clockwise over the circle minus the pole ``(-1, 0)``.  Each
    counter-clockwise crossing of ``P = 0`` makes ``Q/P`` jump from +inf to
    -inf, so ``w`` turns give ``Ind(Q/P) = -2w``; ``Ind(P/Q) = 2w`` serves
    when ``P`` vanishes at the pole.  Raises ``ZeroDivisionError`` if the
    denominator vanishes on the circle, ``ValueError`` if the image meets 0.
    """
    circle = sphere(1)
    if f.domain != circle or f.codomain != circle:
        raise ValueError("winding numbers are defined for maps S1 -> S1")
    pole = (Fraction(-1), Fraction(0))
    if f.denominator.evaluate(pole) == 0:
        raise ZeroDivisionError("the denominator vanishes at (-1, 0) on the circle")
    at_pole = [n.evaluate(pole) for n in f.numerators]
    pulled = compose(f, stereo_inv(1))
    p, q = pulled.numerators
    if _real_roots(pulled.denominator):
        raise ZeroDivisionError("the denominator vanishes on the circle")
    if not any(at_pole) or _real_roots(p * p + q * q):
        raise ValueError("the image passes through the origin; no winding number")
    return -_cauchy_index(p, q) // 2 if at_pole[0] else _cauchy_index(q, p) // 2


# ---------------------------------------------------------------------------
# Monte Carlo mapping degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeEstimate:
    estimate: float
    rounded: int
    half_width: float
    samples: int
    seed: int
    resampled: int
    conclusive: bool

    def to_dict(self) -> dict:
        return asdict(self)


class _MapTerms(NamedTuple):
    num: List[TermData]
    den: TermData
    dnum: List[List[TermData]]  # dnum[i][j] = d num_i / d x_j
    dden: List[TermData]


def _map_terms(f: RationalMap) -> _MapTerms:
    dim = f.domain.ambient_dim
    return _MapTerms(
        num=[_term_data(p) for p in f.numerators],
        den=_term_data(f.denominator),
        dnum=[[_term_data(p.differentiate(j)) for j in range(dim)] for p in f.numerators],
        dden=[_term_data(f.denominator.differentiate(j)) for j in range(dim)],
    )


def _batch_det(rows: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Determinants of a batch-last stack: ``rows[i][j]`` holds entry
    ``(i, j)`` of every matrix.

    Up to ``LAPLACE_MAX_DIM`` rows, a Laplace expansion along each row in
    turn, bottom up: the minor of the bottom k rows on columns ``cols`` is
    the alternating sum over ``p`` of ``row[cols[p]]`` times the minor of the
    bottom k - 1 rows on ``cols`` without ``cols[p]``.  Each product after
    the first goes through one scratch buffer, so a minor allocates only its
    own array, and no entry is written.  Exact on integer entries whose
    products stay below 2**53.
    """
    dim = len(rows)
    if dim > LAPLACE_MAX_DIM:
        return np.linalg.det(np.moveaxis(np.asarray(rows), -1, 0))
    minors = {(j,): rows[-1][j] for j in range(dim)}
    term = np.empty_like(rows[-1][0])
    for top in range(dim - 2, -1, -1):
        row = rows[top]
        below = minors
        minors = {}
        for cols in combinations(range(dim), dim - top):
            acc = row[cols[0]] * below[cols[1:]]
            for p in range(1, len(cols)):
                np.multiply(row[cols[p]], below[cols[:p] + cols[p + 1:]], out=term)
                if p % 2:
                    acc -= term
                else:
                    acc += term
            minors[cols] = acc
    return minors[tuple(range(dim))]


def _degree_integrand(
    terms: _MapTerms, x: np.ndarray, den: Value, powers: dict
) -> np.ndarray:
    """``det(f x^T + J (I - x x^T))`` at each unit point of the batch-last
    ``x``.

    ``den`` is the denominator at the points and ``powers`` the power cache
    of ``_evaluate`` on ``x``.  Entry ``(i, j)`` is ``J_ij + c_i x_j`` with
    ``c_i = f_i - sum_j J_ij x_j`` and the quotient rule
    ``J_ij = (dn_ij den - n_i dden_j) (1 / den^2)``.  Each value is a scalar
    or a batch array, so a constant partial or denominator costs scalar
    arithmetic; the products with a partial that vanishes identically, and
    the ``J_ij`` that do, are left out.
    """
    nums = [_evaluate(t, x, powers) for t in terms.num]
    images = [n / den for n in nums]
    norm = np.sqrt(sum(f * f for f in images))
    dden = {j: _evaluate(t, x, powers) for j, t in enumerate(terms.dden) if t}
    inv_sq = 1 / (den * den)
    table = []
    for n, f, dnum in zip(nums, images, terms.dnum):
        jac = {}
        for j, t in enumerate(dnum):
            if t or j in dden:
                q = _evaluate(t, x, powers) * den
                jac[j] = (q - n * dden[j] if j in dden else q) * inv_sq
        c = f / norm - sum(v * x[j] for j, v in jac.items())
        row = [c * x_j for x_j in x]
        for j, v in jac.items():
            row[j] += v
        table.append(row)
    return _batch_det(table)


def _unit_columns(raw: np.ndarray) -> np.ndarray:
    """The rows of ``raw`` (points by coordinates) scaled to unit length, as
    the columns of a contiguous batch-last array.  The squares are added
    coordinate by coordinate, left to right: the order of numpy's reduction
    along a row shorter than 8, so below ambient dimension 8 the columns
    equal ``raw / np.linalg.norm(raw, axis=1, keepdims=True)`` bit for bit."""
    columns = np.ascontiguousarray(raw.T)
    squares = columns[0] * columns[0]
    for row in columns[1:]:
        squares += row * row
    return columns / np.sqrt(squares)


def degree_mc(f: RationalMap, samples: int = 10_000, seed: int = 0) -> DegreeEstimate:
    """Monte Carlo estimate of the mapping degree of a sphere self-map.

    Averages ``det(B_f^T J B_x) = det(f x^T + J (I - x x^T))`` over uniform
    points ``x`` (``f`` the normalized image, ``J`` the float Jacobian; the
    identity holds because the right-hand matrix is block upper-triangular
    with corner 1 in the oriented frames ``[x | B_x]``, ``[f | B_f]``).
    The determinants of each chunk come from ``_batch_det``: a shared-minor
    Laplace expansion up to ``LAPLACE_MAX_DIM`` (ambient dimension), else
    ``np.linalg.det``.
    Reports a three-sigma half-width; the estimate is conclusive when
    the half-width is below one half.  Points where the denominator is
    numerically zero are redrawn from the same stream (and counted).
    ``seed`` keys the stream and must lie in ``[0, 2**64)``.
    """
    n = f.domain.ambient_dim - 1
    if f.domain != sphere(n) or f.codomain != f.domain:
        raise ValueError("mapping degree needs a sphere self-map")
    if samples < 2:
        raise ValueError("need at least two samples")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    dim = n + 1
    terms = _map_terms(f)

    total = 0.0
    total_sq = 0.0
    produced = 0
    resampled = 0
    chunk_index = 0
    while produced < samples:
        want = min(CHUNK_SIZE, samples - produced)
        key = np.array([seed, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        raw = rng.standard_normal((CHUNK_SIZE, dim))[:want]
        x = _unit_columns(raw)
        powers: Dict[Tuple[int, int], np.ndarray] = {}
        den = _evaluate(terms.den, x, powers)
        guard = 0
        while True:
            bad = (np.abs(den) < 1e-12) | ~np.isfinite(den)
            count_bad = int(np.sum(bad))
            if count_bad == 0:
                break
            guard += 1
            if guard > 100:
                raise NonConvergenceError(
                    "sampling keeps landing on the excluded locus"
                )
            resampled += count_bad
            redraw = rng.standard_normal((count_bad, dim))
            x[:, bad] = _unit_columns(redraw)
            powers = {}
            den = _evaluate(terms.den, x, powers)

        dets = _degree_integrand(terms, x, den, powers)
        total += float(np.sum(dets))
        total_sq += float(np.sum(dets * dets))
        produced += want
        chunk_index += 1

    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    half_width = 3.0 * math.sqrt(variance / samples)
    rounded = int(round(mean))
    return DegreeEstimate(
        estimate=mean,
        rounded=rounded,
        half_width=half_width,
        samples=samples,
        seed=seed,
        resampled=resampled,
        conclusive=half_width < 0.5,
    )


# ---------------------------------------------------------------------------
# Exact regularity probe at fiber points
# ---------------------------------------------------------------------------


def regular_value_probe(
    f: RationalMap,
    points: Sequence[PointOnVariety],
    value: Optional[PointOnVariety] = None,
) -> Verdict:
    """Exact regularity of ``f`` along a fiber, at the given sample points.

    Checks that every given point maps exactly to the common value (the
    image of the first point unless ``value`` is supplied), and computes
    at each point the rank of the differential restricted to the domain's
    tangent space and projected to the codomain's tangent space at the
    value.  Regular means that rank equals the codomain dimension.

    All ranks are exact (:func:`~regmaps.linalg.rank`).  With ``J`` the
    Jacobian, ``N_d`` the domain's normal rows at the point and ``N_c`` the
    codomain's at the value (:meth:`~regmaps.varieties.Variety.normals`;
    none on a Euclidean side), the projected rank is
    ``rank [[J, N_c^T], [N_d, 0]] - rank N_d - rank N_c``: the kernel of
    ``(x, y) -> (J x + N_c^T y, N_d x)`` is the tangent ``x`` with ``J x``
    normal to the codomain, each with a coset of ``ker N_c^T``.  The top
    rows hold ``d * J``, ``d`` the denominator's value: that is the top rows
    times ``d`` and the last columns times ``1 / d``, and nonzero row and
    column scalings keep the rank.
    """
    if not points:
        raise ValueError("need at least one fiber point")
    if value is None:
        value = f.evaluate(points[0])
    if value.variety != f.codomain:
        raise ValueError("value must lie on the codomain")
    value_coords = value.coords

    codomain_normals = f.codomain.normals(value_coords)
    normal_rank = linalg.rank(codomain_normals)
    required = f.codomain.ambient_dim - normal_rank
    border = [0] * len(codomain_normals)

    dim = f.domain.ambient_dim
    num_partials = [[p.differentiate(j) for j in range(dim)] for p in f.numerators]
    den_partials = [f.denominator.differentiate(j) for j in range(dim)]

    all_on_fiber = True
    ranks: List[int] = []
    for point in points:
        if point.variety != f.domain:
            raise ValueError("probe points must lie on the domain")
        coords = point.coords
        image = f.evaluate_raw(coords)
        if tuple(image) != value_coords:
            all_on_fiber = False
        # Row i of d * J, by the quotient rule with n / d = image:
        # d * d(n_i / d) = dn_i - image_i * dd.
        dden = [d.evaluate(coords) for d in den_partials]
        bordered = [
            [dn.evaluate(coords) - y * dd for dn, dd in zip(row, dden)]
            + [normal[i] for normal in codomain_normals]
            for i, (row, y) in enumerate(zip(num_partials, image))
        ]
        normals = f.domain.normals(coords)
        bordered += [list(normal) + border for normal in normals]
        ranks.append(linalg.rank(bordered) - linalg.rank(normals) - normal_rank)

    all_regular = all(r == required for r in ranks)
    evidence = {
        "all_on_fiber": all_on_fiber,
        "all_regular": all_regular,
        "required_rank": required,
        "ranks": tuple(ranks),
        "value": [str(c) for c in value_coords],
    }
    return Verdict("sampling", all_on_fiber and all_regular, evidence)


# ---------------------------------------------------------------------------
# Radon-Hurwitz counting function and the codimension congruence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadonHurwitzValue:
    p: int
    exponent: int
    value: int

    def to_dict(self) -> dict:
        return {"p": self.p, "exponent": self.exponent, "a_p": self.value}


def radon_hurwitz(p: int) -> RadonHurwitzValue:
    """The counting function a_p = 2^#{0 < i <= p-1 : i mod 8 in {0,1,2,4}}."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    exponent = sum(1 for i in range(1, p) if i % 8 in (0, 1, 2, 4))
    return RadonHurwitzValue(p=p, exponent=exponent, value=1 << exponent)


@dataclass(frozen=True)
class CodimPairReport:
    m: int
    k: int
    modulus: int
    admissible: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_codim_pair(m: int, k: int) -> CodimPairReport:
    """Congruence test for the pair (m, k): is k = -1 modulo a_{m+2}?"""
    if m < 1:
        raise ValueError("m must be positive")
    if k <= m + 1:
        raise ValueError("need k > m + 1")
    modulus = radon_hurwitz(m + 2).value
    return CodimPairReport(
        m=m, k=k, modulus=modulus, admissible=((k + 1) % modulus == 0)
    )
