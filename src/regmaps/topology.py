"""Topological invariants of rational maps, measured numerically or exactly.

* :func:`winding` -- exact degree of a circle self-map: a Cauchy index over
  the rationals, counted by signed remainder (Sturm) sequences.
* :func:`degree_mc` -- Monte Carlo mapping degree of a sphere self-map:
  the tangent Jacobian determinant det(B_f^T J B_x) in oriented orthonormal
  frames ([x | B_x], [f | B_f] positive), averaged over uniform points x,
  estimates the degree.  It equals det(f x^T + J (I - x x^T)), since in
  those frames that matrix is [[1, f^T J B_x], [0, B_f^T J B_x]]; so no
  frame is built, and that determinant is -det B / den^dim for the
  (dim + 1)-square bordered matrix B with top rows
  (dn_ij - y_i dden_j | n_i / |y|), y = n / den, and bottom row (x^T | 0).
  Deterministic for a fixed seed: points are drawn in fixed-size chunks
  from counter-based streams keyed by (seed, chunk).  Each chunk is held
  batch-last: ``x[var]`` is one coordinate at every point, and each entry
  of B is a ``float`` where it is constant, else one batch array; each
  polynomial runs its own evaluation plan, the one exact evaluation runs.
  Which entries can be nonzero follows from the variables each numerator
  and the denominator contain; from that pattern an expansion plan is compiled
  once per map, listing only the minors that can be nonzero (bitmask keys),
  and run on every chunk.  Where the plan would take more products than
  LAPACK's fitted cost (``LAPACK_COST`` (dim + 1)^3), the dense stack goes
  to ``np.linalg.det``; where both would pass ``CHUNK_COST_CEILING`` per
  chunk, the map is refused before any point is drawn.  The variance merges
  each chunk's count, mean and squared deviations.
* :func:`regular_value_probe` -- exact-arithmetic check that given fiber
  points map to a common value and that the differential, restricted to
  the domain tangent space and projected to the codomain tangent space,
  has full rank there.  That rank is one bordered rank,
  rank [[J, N_c^T], [N_d, 0]] - rank N_d - rank N_c with ``N_d`` and ``N_c``
  the domain's and codomain's normal rows, so no tangent basis is built.
  Its rows of d * J are B's top rows, by the same quotient-rule row from
  each polynomial's nonzero partials (``Polynomial.gradient``), in ``Fraction``s.
* :func:`radon_hurwitz` / :func:`check_codim_pair` -- the classical
  power-of-two counting function and the congruence test it feeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import dropwhile
from operator import methodcaller
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg
from .polynomial import Polynomial, exponents
from .ratmap import RationalMap, Verdict, compose
from .spheres import stereo_inv
from .varieties import PointOnVariety, sphere

CHUNK_SIZE = 1 << 14

# np.linalg.det of one chunk's dense m-square stack, filling it included, in
# products of the expansion plan: LAPACK_COST * m**3.  Fitted as the
# geometric mean of time / m**3 over m = 3..24, about the stacks the ceiling
# below admits (three runs gave 1.74, 1.75 and 1.76), a plan product costing
# 19-20 us on the dense plans of m = 4..10; best of 7 on a 2-vCPU x86-64
# machine with OpenBLAS 0.3.31 on one thread.  LAPACK there: m = 5 6.2 ms,
# m = 7 13 ms, m = 8 17-21 ms, m = 10 32-35 ms, m = 16 81 ms, m = 24
# 188-193 ms; dense plans: m = 6 3.1 ms (192 products), m = 7 8.3 ms (448),
# m = 8 21 ms (1,024).  The fit underrates LAPACK below m = 10, where its
# fixed cost per matrix dominates, and overrates it above m = 11.
LAPACK_COST = 1.75
# The most one chunk's determinants may cost, in plan products.  The largest
# id:k admitted is id:196 (19,897 products); `degree id:196 --samples
# 1000000` took 32.5 s at 191 MB peak RSS on that machine.
CHUNK_COST_CEILING = 20_000


class NonConvergenceError(RuntimeError):
    """Raised when a numeric invariant fails to stabilize."""


# ---------------------------------------------------------------------------
# Batched float evaluation of polynomials
# ---------------------------------------------------------------------------


Value = Union[float, np.ndarray]  # a scalar where constant over the batch


def _evaluate(p: Polynomial, x: np.ndarray, powers: Dict[Tuple[int, int], np.ndarray]) -> Value:
    """``p`` at a batch of points held batch-last (``x[var]`` is variable
    ``var`` at every point), by the evaluation plan exact evaluation runs
    (``Polynomial._scalars``): a ``float`` when ``p`` is constant, else an
    array.  ``powers`` caches each ``x[var] ** exp`` for later calls on the
    same ``x``; a first power is the row itself.  A unit coefficient costs
    no product and a lone term no sum, so the result may be a cached power
    or a row of ``x``: callers must not write into it."""
    used, den, _, factors, terms = p._scalars()
    keys = [(used[k], e) for k, e in factors]
    total = None
    for coeff, mono, _ in terms:
        coeff /= den  # correctly rounded; the factors come by increasing id
        value = None if coeff == 1.0 else coeff
        for key in map(keys.__getitem__, mono):
            power = powers.get(key)
            if power is None:
                var, exp = key
                power = powers[key] = x[var] ** exp if exp > 1 else x[var]
            value = power if value is None else value * power
        if value is None:
            value = 1.0
        total = value if total is None else total + value
    return 0.0 if total is None else total


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


# One level of an expansion plan: per minor key, its (odd, column, below) terms.
_Plan = List[List[Tuple[int, List[Tuple[int, int, int]]]]]
_Pattern = List[Tuple[int, ...]]  # per row, the columns that can be nonzero


def _bordered_pattern(f: RationalMap) -> _Pattern:
    """The columns of each row of the bordered matrix ``B`` (see
    :func:`_degree_integrand`) that can be nonzero, read from the variables
    each polynomial contains, before any derivative is taken.  Entry
    ``(i, j)`` of the top block is ``dn_ij - y_i dden_j``: it can be nonzero
    where ``num_i`` holds ``x_j``, or where the denominator does and
    ``num_i`` is not zero.  The last column, ``dim``, holds ``n_i / |y|`` and
    comes last in each top row that has entries.  The bottom row is ``x``
    and 0.  The top rows but their last column are the rows of ``d * J``
    (:func:`_quotient_row`), which the regularity probe reads too."""
    dim = f.domain.ambient_dim
    den_vars = set(f.denominator.variables_used())
    rows = [
        () if n.is_zero() else tuple(sorted(den_vars.union(n.variables_used()))) + (dim,)
        for n in f.numerators
    ]
    return rows + [tuple(range(dim))]


def _expansion_plan(pattern: Sequence[Sequence[int]], limit: float) -> Optional[_Plan]:
    """The Laplace expansion of a determinant whose row ``r`` can be nonzero
    only in the columns ``pattern[r]``, or ``None`` once it would take more
    than ``limit`` products.

    Level ``k`` lists the minors of the first ``k + 1`` rows that can be
    nonzero, each keyed by its column set as a bitmask: expanding along its
    last row, the minor on ``S`` is the sum over ``c`` in ``S`` of
    ``(-1)^(#columns of S above c) * row[c] * (minor on S - c)``.  The last
    level holds the whole determinant, or nothing when no term survives.
    """
    level: Dict[int, list] = {0: []}
    plan: _Plan = []
    count = 0
    for cols in pattern:
        built: Dict[int, list] = {}
        for below in level:
            for c in cols:
                bit = 1 << c
                if below & bit:
                    continue
                count += 1
                if count > limit:
                    return None
                key = below | bit
                built.setdefault(key, []).append(((key >> c + 1).bit_count() & 1, c, below))
        plan.append(list(built.items()))
        level = built
    return plan


def _determinant_plan(pattern: _Pattern) -> Optional[_Plan]:
    """The expansion plan of ``B``, or ``None`` where LAPACK is cheaper.
    Raises ``ValueError`` when both would cost more than
    ``CHUNK_COST_CEILING`` per chunk."""
    size = len(pattern)
    lapack = LAPACK_COST * size**3
    plan = _expansion_plan(pattern, min(lapack, CHUNK_COST_CEILING))
    if plan is None and lapack > CHUNK_COST_CEILING:
        raise ValueError(
            f"a Monte Carlo degree in ambient dimension {size - 1} would cost more "
            f"than {CHUNK_COST_CEILING} vector products per chunk of {CHUNK_SIZE} points"
        )
    return plan


def _quotient_row(num: Polynomial, dden: dict, cols: Sequence[int], value: Callable, y) -> dict:
    """Row ``i`` of ``d * J`` for ``num = n_i`` and ``y = y_i = n_i / d``:
    ``{j: dn_ij - y_i dd_j}`` by the quotient rule, over the columns
    ``cols[:-1]`` of row ``i`` of :func:`_bordered_pattern`.  ``value``
    evaluates a polynomial (on floats or exactly) and ``dden`` holds the
    denominator's nonzero partials evaluated by it; a zero partial of
    ``num`` enters as ``0``."""
    dnum = num.gradient()
    row = {}
    for j in cols[:-1]:
        entry = value(dnum[j]) if j in dnum else 0
        row[j] = entry - y * dden[j] if j in dden else entry
    return row


def _run_plan(plan: _Plan, rows: Sequence[Dict[int, Value]]) -> Value:
    """The determinant by an expansion plan, ``rows[r][c]`` holding entry
    ``(r, c)`` (a ``float`` where constant); 0.0 when the plan has no full
    minor.  No entry is written: each minor after the first level starts
    from a fresh product and accumulates in place."""
    minors: Dict[int, Value] = {0: 1.0}
    for level, row in zip(plan, rows):
        below = minors
        minors = {}
        for key, terms in level:
            (odd, c, sub), *rest = terms
            acc = row[c] * below[sub] if sub else row[c]  # the first level: entries
            if odd:
                acc = -acc
            for odd, c, sub in rest:
                if odd:
                    acc -= row[c] * below[sub]
                else:
                    acc += row[c] * below[sub]
            minors[key] = acc
    return minors.get((1 << len(rows)) - 1, 0.0)


def _lapack_det(rows: Sequence[Dict[int, Value]], points: int) -> np.ndarray:
    """The determinant of every matrix from its dense stack, by LAPACK."""
    size = len(rows)
    stack = np.zeros((size, size, points))
    for r, row in enumerate(rows):
        for c, value in row.items():
            stack[r, c] = value
    return np.linalg.det(np.moveaxis(stack, -1, 0))


def _degree_integrand(
    f: RationalMap, pattern: _Pattern, plan: Optional[_Plan], x: np.ndarray, den: Value,
    powers: dict,
) -> Value:
    """``det(f x^T + J (I - x x^T))`` at each unit point of the batch-last
    ``x``, as ``-det B / den^dim``.

    ``den`` is the denominator at the points and ``powers`` the power cache
    of ``_evaluate`` on ``x``.  ``B`` is the ``(dim + 1)``-square bordered
    matrix with top rows ``(dn_ij - y_i dden_j | n_i / |y|)``, ``y = n / den``,
    and bottom row ``(x^T | 0)``: the matrix ``[[J, f], [x^T, 0]]``, ``J``
    the Jacobian and ``f = y / |y|``, with its top rows times ``den``, which
    multiplies the determinant by ``den^dim``.  With ``|x| = 1``,
    subtracting ``(J x)_i`` times the bottom row from top row ``i``, adding
    ``x_j`` times the last column to column ``j`` and then subtracting the
    first ``dim`` columns weighted by ``x`` from the last turns
    ``[[J, f], [x^T, 0]]`` into ``[[M, 0], [x^T, -1]]``, ``M`` the matrix
    above.  Entries are scalars where constant and only those in
    ``pattern`` are formed, the top rows by :func:`_quotient_row`; the
    determinant comes from ``plan``, or from LAPACK where the plan is
    ``None``.  A pattern with no full minor gives 0.0.
    """
    dim = len(f.numerators)
    value = partial(_evaluate, x=x, powers=powers)
    nums = [value(p) for p in f.numerators]
    scale = abs(den) / np.sqrt(sum(n * n for n in nums))  # n_i / |y| = n_i * scale
    dden = {j: value(d) for j, d in f.denominator.gradient().items()}
    rows = []
    for p, n, cols in zip(f.numerators, nums, pattern):
        row = _quotient_row(p, dden, cols, value, n / den if dden else 0.0)
        if cols:
            row[dim] = n * scale
        rows.append(row)
    rows.append(dict(enumerate(x)))
    det = _lapack_det(rows, x.shape[1]) if plan is None else _run_plan(plan, rows)
    return det * (-1.0 / den**dim)


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


def _integrand_chunks(
    f: RationalMap, pattern: _Pattern, plan: Optional[_Plan], samples: int, seed: int
) -> Iterator[Tuple[np.ndarray, int]]:
    """The integrand at ``samples`` points, one chunk at a time, each with
    the number of its points redrawn off the excluded locus.  Chunk ``i``
    is drawn from the Philox stream keyed by ``(seed, i)``; a point where
    the denominator is numerically zero is redrawn from the same stream."""
    dim = f.domain.ambient_dim
    for chunk_index, start in enumerate(range(0, samples, CHUNK_SIZE)):
        want = min(CHUNK_SIZE, samples - start)
        key = np.array([seed, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        raw = rng.standard_normal((CHUNK_SIZE, dim))[:want]
        x = _unit_columns(raw)
        powers: Dict[Tuple[int, int], np.ndarray] = {}
        den = _evaluate(f.denominator, x, powers)
        resampled = 0
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
            den = _evaluate(f.denominator, x, powers)
        dets = _degree_integrand(f, pattern, plan, x, den, powers)
        yield np.broadcast_to(dets, (want,)), resampled


def degree_mc(f: RationalMap, samples: int = 10_000, seed: int = 0) -> DegreeEstimate:
    """Monte Carlo estimate of the mapping degree of a sphere self-map.

    Averages ``det(B_f^T J B_x) = det(f x^T + J (I - x x^T))`` over uniform
    points ``x`` (``f`` the normalized image, ``J`` the float Jacobian; the
    identity holds because the right-hand matrix is block upper-triangular
    with corner 1 in the oriented frames ``[x | B_x]``, ``[f | B_f]``).
    Each determinant is ``-det B / den^dim`` for the bordered matrix ``B``
    of :func:`_degree_integrand`.  The expansion plan of ``B`` is compiled
    once per map from the variables each numerator and the denominator
    contain; it lists only the minors that can be nonzero, and runs on each
    chunk with constant entries as floats.  Where the plan would take more
    products than LAPACK's fitted cost (``LAPACK_COST``), the dense stack
    goes to ``np.linalg.det``.  When the cheaper of the two would cost more
    than ``CHUNK_COST_CEILING`` per chunk, ``ValueError`` is raised before
    any point is drawn.
    Reports a three-sigma half-width; the estimate is conclusive when
    the half-width is below one half.  The variance merges each chunk's
    count, mean and sum of squared deviations (Chan et al.), so integrands
    that agree to rounding give a half-width of rounding size.  Points
    where the denominator is numerically zero are redrawn from the same
    stream (and counted).  ``seed`` keys the stream and must lie in
    ``[0, 2**64)``.
    """
    n = f.domain.ambient_dim - 1
    if f.domain != sphere(n) or f.codomain != f.domain:
        raise ValueError("mapping degree needs a sphere self-map")
    if samples < 2:
        raise ValueError("need at least two samples")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    pattern = _bordered_pattern(f)
    plan = _determinant_plan(pattern)

    total = 0.0
    merged = 0
    merged_mean = 0.0
    squares = 0.0  # sum of squared deviations from merged_mean
    resampled = 0
    for dets, redrawn in _integrand_chunks(f, pattern, plan, samples, seed):
        chunk_sum = float(np.sum(dets))
        chunk_mean = chunk_sum / len(dets)
        delta = chunk_mean - merged_mean
        count = merged + len(dets)
        merged_mean += delta * len(dets) / count
        squares += float(np.sum(np.square(dets - chunk_mean)))
        squares += delta * delta * merged * len(dets) / count
        merged = count
        total += chunk_sum
        resampled += redrawn

    mean = total / samples
    half_width = 3.0 * math.sqrt(squares / (samples - 1) / samples)
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
    rows hold ``d * J``, ``d`` the denominator's value, row by row from
    :func:`_quotient_row` and zero outside :func:`_bordered_pattern`: that
    is the top rows times ``d`` and the last columns times ``1 / d``, and
    nonzero row and column scalings keep the rank.
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
    pattern = _bordered_pattern(f)

    all_on_fiber = True
    ranks: List[int] = []
    for point in points:
        if point.variety != f.domain:
            raise ValueError("probe points must lie on the domain")
        coords = point.coords
        image = f.evaluate_raw(coords)
        if tuple(image) != value_coords:
            all_on_fiber = False
        exact = methodcaller("evaluate", coords)
        dden = {j: exact(d) for j, d in f.denominator.gradient().items()}
        bordered = []
        for i, (num, y, cols) in enumerate(zip(f.numerators, image, pattern)):
            row = _quotient_row(num, dden if y else {}, cols, exact, y)  # y_i = 0: dn_i
            bordered.append(
                [row.get(j, 0) for j in range(dim)] + [normal[i] for normal in codomain_normals]
            )
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
