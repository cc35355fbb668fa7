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
  Each chunk's matrices are held batch-last, one ``(dim, batch)`` array per
  row, and up to ``LAPLACE_MAX_DIM`` their determinants come from a Laplace
  expansion that builds the minors of the bottom k rows from those of the
  bottom k - 1 (dim * 2^(dim-1) vector products, no call per matrix);
  larger dimensions go to LAPACK through ``np.linalg.det``.
* :func:`regular_value_probe` -- exact-arithmetic check that given fiber
  points map to a common value and that the differential, restricted to
  the domain tangent space and projected to the codomain tangent space,
  has full rank there.
* :func:`radon_hurwitz` / :func:`check_codim_pair` -- the classical
  power-of-two counting function and the congruence test it feeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, dropwhile
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .polynomial import Polynomial
from .ratmap import RationalMap, Verdict, compose
from .spheres import stereo_inv
from .varieties import PointOnVariety, sphere

CHUNK_SIZE = 1 << 14

# Largest dimension whose Monte Carlo determinants come from the shared-minor
# expansion; above it, np.linalg.det.  One chunk of 16,384 matrices, best of
# 15 on a 2-vCPU x86-64 machine with OpenBLAS 0.3.31 (expansion vs LAPACK):
# d = 4 0.5 vs 7.4 ms, d = 5 1.5 vs 9.7 ms, d = 6 3.8 vs 13.1 ms,
# d = 7 6.9 vs 12.6 ms, d = 8 16.4 vs 14.0 ms, d = 9 52 vs 26 ms.  The
# expansion's cost doubles with each dimension; LAPACK's is polynomial.
LAPLACE_MAX_DIM = 7


class NonConvergenceError(RuntimeError):
    """Raised when a numeric invariant fails to stabilize."""


# ---------------------------------------------------------------------------
# Batched float evaluation of polynomials
# ---------------------------------------------------------------------------


TermData = List[Tuple[float, Tuple[Tuple[int, int], ...]]]


def _term_data(p: Polynomial) -> TermData:
    out = []
    for exps, coeff in p.terms.items():
        factors = tuple((i, e) for i, e in enumerate(exps) if e)
        out.append((float(coeff), factors))
    return out


def _batch_eval(
    term_data: TermData,
    points: np.ndarray,
    power_cache: Dict[Tuple[int, int], np.ndarray],
) -> np.ndarray:
    total = np.zeros(points.shape[0])
    for coeff, factors in term_data:
        acc = np.full(points.shape[0], coeff)
        for var, exp in factors:
            key = (var, exp)
            arr = power_cache.get(key)
            if arr is None:
                arr = points[:, var] ** exp
                power_cache[key] = arr
            acc = acc * arr
        total += acc
    return total


# ---------------------------------------------------------------------------
# Winding number of circle maps
# ---------------------------------------------------------------------------


def _coefficients(p: Polynomial) -> List[Fraction]:
    """Dense coefficients of a one-variable polynomial, leading first."""
    coeffs = [Fraction(0)] * (p.total_degree() + 1) if p.terms else []
    for (e,), c in p.terms.items():
        coeffs[-1 - e] = c
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


def _batch_det(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Determinants of a batch-last stack: ``rows[i][j]`` holds entry
    ``(i, j)`` of every matrix.

    Up to ``LAPLACE_MAX_DIM`` rows, a Laplace expansion along each row in
    turn, bottom up: the minor of the bottom k rows on columns ``cols`` is
    the alternating sum over ``p`` of ``row[cols[p]]`` times the minor of the
    bottom k - 1 rows on ``cols`` without ``cols[p]``.  Exact on integer
    entries whose products stay below 2**53.
    """
    dim = len(rows)
    if dim > LAPLACE_MAX_DIM:
        return np.linalg.det(np.moveaxis(np.asarray(rows), -1, 0))
    minors = {(j,): rows[-1][j] for j in range(dim)}
    for top in range(dim - 2, -1, -1):
        row = rows[top]
        below = minors
        minors = {}
        for cols in combinations(range(dim), dim - top):
            acc = row[cols[0]] * below[cols[1:]]
            for p in range(1, len(cols)):
                term = row[cols[p]] * below[cols[:p] + cols[p + 1:]]
                if p % 2:
                    acc -= term
                else:
                    acc += term
            minors[cols] = acc
    return minors[tuple(range(dim))]


def _degree_integrand(
    terms: _MapTerms, points: np.ndarray, den: np.ndarray, cache: dict
) -> np.ndarray:
    """``det(f x^T + J (I - x x^T))`` for each unit row ``x`` of ``points``.

    ``den`` is the denominator at the points and ``cache`` its power cache.
    Row i of the matrix is ``J_i + (f_i - J_i . x) x^T``, with the quotient
    rule ``J_i = (dn_i den - n_i dden) / den^2``; it is built as one
    ``(dim, batch)`` array, skipping partials that are identically zero.
    """
    dim = points.shape[1]
    x = np.ascontiguousarray(points.T)
    nums = np.stack([_batch_eval(d, points, cache) for d in terms.num])
    images = nums / den
    images /= np.linalg.norm(images, axis=0)
    dden = [_batch_eval(d, points, cache) if d else None for d in terms.dden]
    den_sq = den * den
    rows = []
    for i in range(dim):
        row = np.zeros_like(x)
        for j in range(dim):
            if terms.dnum[i][j]:
                row[j] = _batch_eval(terms.dnum[i][j], points, cache) * den
            if dden[j] is not None:
                row[j] -= nums[i] * dden[j]
        row /= den_sq  # row is now J_i; add (f_i - J_i . x) x^T
        row += (images[i] - np.sum(row * x, axis=0)) * x
        rows.append(row)
    return _batch_det(rows)


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
        points = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        cache: Dict[Tuple[int, int], np.ndarray] = {}
        den = _batch_eval(terms.den, points, cache)
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
            redraw = redraw / np.linalg.norm(redraw, axis=1, keepdims=True)
            points[bad] = redraw
            cache = {}
            den = _batch_eval(terms.den, points, cache)

        dets = _degree_integrand(terms, points, den, cache)
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

    All ranks are exact: domain tangent spaces are nullspaces of relation
    Jacobians over the rationals, and the projected rank is obtained as
    ``rank([W | N]) - rank(N)`` where ``W`` is the image of the tangent
    space under the differential and ``N`` spans the codomain's normal
    space (the two subspace ranks split because tangent and normal parts
    are complementary).
    """
    if not points:
        raise ValueError("need at least one fiber point")
    if value is None:
        value = f.evaluate(points[0])
    if value.variety != f.codomain:
        raise ValueError("value must lie on the codomain")
    value_coords = value.coords

    codomain_normals = [
        [relation.differentiate(j).evaluate(value_coords) for j in range(f.codomain.ambient_dim)]
        for relation in f.codomain.relations
    ]
    normal_rank = linalg.rank(codomain_normals) if codomain_normals else 0
    required = f.codomain.ambient_dim - normal_rank

    dim = f.domain.ambient_dim
    num_partials = [[p.differentiate(j) for j in range(dim)] for p in f.numerators]
    den_partials = [f.denominator.differentiate(j) for j in range(dim)]
    relation_partials = [[r.differentiate(j) for j in range(dim)] for r in f.domain.relations]

    all_on_fiber = True
    ranks: List[int] = []
    for point in points:
        if point.variety != f.domain:
            raise ValueError("probe points must lie on the domain")
        coords = point.coords
        image = f.evaluate_raw(coords)
        if tuple(image) != value_coords:
            all_on_fiber = False
        # quotient rule with n / d = image: d(n / d) = (dn - image * dd) / d
        den_value = f.denominator.evaluate(coords)
        dden = [d.evaluate(coords) for d in den_partials]
        jacobian = [
            [(dn.evaluate(coords) - y * dd) / den_value for dn, dd in zip(row, dden)]
            for row, y in zip(num_partials, image)
        ]
        relation_rows = [[d.evaluate(coords) for d in row] for row in relation_partials]
        tangent = linalg.nullspace_basis(relation_rows) if relation_rows else linalg.identity(dim)
        pushed = [[sum(a * t for a, t in zip(row, vec)) for row in jacobian] for vec in tangent]
        ranks.append(linalg.rank(pushed + codomain_normals) - normal_rank)

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
