"""Real algebraic varieties: carriers for the domains and codomains of maps.

A :class:`Variety` bundles a variable registry, the defining relations,
any sphere blocks (groups of variables summing-of-squares to one, which
admit canonical normal forms), and an exact rational-point sampler.

Built-in families
-----------------
* ``sphere(n)``           unit sphere in R^{n+1}, variables ``x1..x{n+1}``
* ``euclidean(n)``        affine n-space, variables ``X1..Xn``
* ``sphere_product(n)``   two sphere blocks ``x*`` and ``y*``
* ``special_orthogonal(n)``  n x n real matrices, entries ``g11..gnn``
  row-major, with orthonormal rows and columns and determinant one.  The
  relations are the n(n+1) upper-triangle entries of ``M^T M - I`` and
  ``M M^T - I``, each of degree two.  Determinant one is no relation but
  the recorded ``unit_determinant``: points are checked by an exact
  integer determinant (:meth:`Variety.first_violation`), and symbolic
  proofs as :func:`regmaps.ratmap.maps_into` describes
* ``unitary(k)``          k x k complex matrices; each entry ``z_ij``
  is stored as the interleaved real pair ``a_ij, b_ij`` (row-major), and
  the unitarity relations are the real and imaginary parts of
  ``Z* Z - I`` and ``Z Z* - I``, built over
  :class:`~regmaps.polynomial.ComplexPair` entries
* ``special_unitary(k)``  additionally determinant one (realified)

Samplers produce exact rational points: spheres through the rational
parametrization by inverse stereographic projection, matrix groups
through the Cayley transform of a random skew-symmetric (respectively
skew-Hermitian) rational matrix, with a determinant correction for the
special unitary group.  All samplers are deterministic functions of the
seed.  Every rational parameter is drawn by :func:`_bounded_pairs` straight
from ``getrandbits``, with the rejection rule of ``randint``: the stream is
the one ``randint`` draws, without its per-call overhead and without
relying on CPython's private ``randrange``.  A sampler returns its point
scaled to integers, ``(q, nums)`` with ``q > 0`` and coordinate ``i``
equal to ``nums[i] / q``.  Every sampler works on integers: SO(n), U(k)
and SU(k) share one Cayley transform, one fraction-free solve on the
realified matrix (:func:`_cayley`), and the determinant correction of
SU(k) takes one fraction-free determinant over the Gaussian integers
(``ComplexPair`` entries with ``int`` parts).  :func:`sample_point`
validates that form against every relation
(:meth:`Variety.first_violation_scaled`) and keeps it as the only stored
form of the :class:`PointOnVariety`, whose ``Fraction`` coordinates are
built on first read; the denominator audit of ``verify`` and the
evaluation of maps read only the scaled form.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterator, List, Optional, Sequence, Tuple, TypeVar

from . import linalg
from .polynomial import ComplexPair, Polynomial, SphereBlock, VarRegistry, scale_point

DEFAULT_HEIGHT = 1000


class NoSamplerError(RuntimeError):
    """Raised when a variety provides no point sampler."""


class PointValidationError(ValueError):
    """Raised when coordinates do not satisfy a variety's relations."""


class Variety:
    """An embedded real variety with named coordinates.

    ``relations`` are the polynomials that vanish on it.  A matrix group
    may also carry ``unit_determinant``: the size ``n`` when its
    coordinates, read row-major, form an ``n x n`` real matrix of
    determinant one, a condition checked at points by an exact integer
    determinant instead of a polynomial with ``n!`` terms; it is 0
    otherwise.  Only ``special_orthogonal`` sets it.

    Instances are immutable; equality is by name and registry, which the
    built-in constructors keep unique (they are cached and return the
    same object for the same parameters).
    """

    __slots__ = (
        "name", "registry", "relations", "blocks", "sampler", "factors",
        "unit_determinant", "_hash",
    )

    def __init__(
        self,
        name: str,
        registry: VarRegistry,
        relations: Sequence[Polynomial],
        blocks: Sequence[SphereBlock] = (),
        sampler: Optional[str] = None,
        factors: Sequence["Variety"] = (),
        unit_determinant: int = 0,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "sampler", sampler)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "unit_determinant", unit_determinant)
        object.__setattr__(self, "_hash", hash((name, registry)))

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Variety is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.registry.size

    def block_reducible(self) -> bool:
        """True when every relation is a sphere-block relation, so that
        membership in the relation ideal is decidable by normal forms."""
        if not self.blocks and not self.relations:
            return True
        block_relations = {b.relation(self.registry) for b in self.blocks}
        return set(self.relations) == block_relations

    def first_violation(self, coords: Sequence[Fraction]) -> Optional[Tuple[int, Fraction]]:
        """``(index, residual)`` of the first relation that does not vanish
        at ``coords``, or ``None`` when they all do: the point is scaled to
        integers once and checked by :meth:`first_violation_scaled`."""
        return self.first_violation_scaled(*scale_point(coords))

    def first_violation_scaled(
        self, q: int, nums: Sequence[int]
    ) -> Optional[Tuple[int, Fraction]]:
        """:meth:`first_violation` at the point ``nums[i] / q``, ``q > 0``.

        Each relation is tested by its integer numerator at that form
        (:meth:`~regmaps.polynomial.Polynomial.scaled_numerator`) being
        zero; only the relation that fails has its residual built, by
        :meth:`~regmaps.polynomial.Polynomial.evaluate` at the ``Fraction``
        coordinates.  With ``unit_determinant`` set, the determinant comes
        last, as if it were one more relation: ``det(q M) == q**n`` on
        integers, and a failure reports ``(len(relations), det(M) - 1)``.
        """
        for index, relation in enumerate(self.relations):
            if relation.scaled_numerator(nums, q):
                return index, relation.evaluate([Fraction(n, q) for n in nums])
        n = self.unit_determinant
        if n:
            det = linalg.integer_determinant([nums[i * n : (i + 1) * n] for i in range(n)])
            scale = q**n
            if det != scale:
                return len(self.relations), Fraction(det - scale, scale)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variety):
            return NotImplemented
        return self.name == other.name and self.registry == other.registry

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variety({self.name!r}, dim ambient {self.ambient_dim})"


class PointOnVariety:
    """Exact rational coordinates validated against the variety relations.

    A point stores one form: ``scaled``, one positive integer ``q`` and one
    integer per coordinate, coordinate ``i`` being ``nums[i] / q`` (not
    necessarily in lowest terms), on which the relations are checked
    (:meth:`Variety.first_violation_scaled`).  Coordinates given to the
    constructor (read through ``Fraction`` unless ``int``) are scaled once;
    :meth:`from_scaled`, which builds every sampled point and every image
    of a map, takes the form as given.  ``coords``, a tuple of
    ``Fraction``, is built on first read; the denominator audit of
    ``verify`` never reads it.
    """

    __slots__ = ("variety", "scaled", "_coords")

    def __init__(self, variety: Variety, coords: Sequence[Fraction]):
        values = [c if isinstance(c, (Fraction, int)) else Fraction(c) for c in coords]
        self._init(variety, *scale_point(values))

    @classmethod
    def from_scaled(cls, variety: Variety, q: int, nums: Sequence[int]) -> "PointOnVariety":
        """The point with coordinates ``nums[i] / q``, for ``q > 0``."""
        point = cls.__new__(cls)
        point._init(variety, q, nums)
        return point

    def _init(self, variety: Variety, q: int, nums: Sequence[int]) -> None:
        # The one place a point is stored and its relations are checked.
        if q <= 0:
            raise PointValidationError(f"a scaled point needs q > 0, got {q}")
        if len(nums) != variety.ambient_dim:
            raise PointValidationError(
                f"{variety.name} needs {variety.ambient_dim} coordinates, got {len(nums)}"
            )
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "scaled", (q, tuple(nums)))
        object.__setattr__(self, "_coords", None)
        violation = variety.first_violation_scaled(q, nums)
        if violation is not None:
            raise PointValidationError(
                f"coordinates violate a relation of {variety.name}: residual {violation[1]}"
            )

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        coords = self._coords
        if coords is None:
            q, nums = self.scaled
            coords = tuple([Fraction(n, q) for n in nums])
            object.__setattr__(self, "_coords", coords)
        return coords

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("PointOnVariety is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointOnVariety):
            return NotImplemented
        return self.variety == other.variety and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.variety, self.coords))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coords[:6])
        if len(self.coords) > 6:
            shown += ", ..."
        return f"PointOnVariety({self.variety.name}: {shown})"


# ---------------------------------------------------------------------------
# Helpers for matrix varieties
# ---------------------------------------------------------------------------


def matrix_entry_polys(variety_registry: VarRegistry, n: int) -> List[List[Polynomial]]:
    """Real n x n entry polynomials g_ij over a row-major registry."""
    return [
        [Polynomial.variable(variety_registry, i * n + j) for j in range(n)]
        for i in range(n)
    ]


def complex_entry_polys(variety_registry: VarRegistry, k: int) -> List[List[ComplexPair]]:
    """Complex k x k entries z_ij = a_ij + i b_ij over the interleaved
    row-major registry (a11, b11, a12, b12, ...)."""
    return [
        [
            ComplexPair(
                Polynomial.variable(variety_registry, 2 * (i * k + j)),
                Polynomial.variable(variety_registry, 2 * (i * k + j) + 1),
            )
            for j in range(k)
        ]
        for i in range(k)
    ]


_Entry = TypeVar("_Entry", Polynomial, ComplexPair)


def poly_matrix_determinant(entries: Sequence[Sequence[_Entry]]) -> _Entry:
    """Leibniz-formula determinant of a small matrix of polynomials, real
    or :class:`~regmaps.polynomial.ComplexPair` pairs alike."""
    n = len(entries)

    def signed_product(perm: tuple) -> _Entry:
        term = entries[0][perm[0]]
        for i in range(1, n):
            term = term * entries[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        return -term if inversions % 2 else term

    first = entries[0][0]
    terms = map(signed_product, itertools.permutations(range(n)))
    # Polynomial.sum or ComplexPair.sum, as the entries are.
    return type(first).sum(first.registry, terms)


def _gram_relations(entries: Sequence[Sequence[_Entry]], conjugate: bool) -> List[Polynomial]:
    """Entries of M* M - I and M M* - I (upper triangle, realified)."""
    n = len(entries)
    summed = ComplexPair.sum if conjugate else Polynomial.sum
    out: List[Polynomial] = []
    for left_conj in (True, False):
        for i in range(n):
            for j in range(i, n):
                if left_conj:
                    pairs = ((entries[m][i], entries[m][j]) for m in range(n))
                else:
                    pairs = ((entries[i][m], entries[j][m]) for m in range(n))
                products = ((a.conjugate() if conjugate else a) * b for a, b in pairs)
                acc = summed(entries[0][0].registry, products)
                if not conjugate:
                    out.append(acc - 1 if i == j else acc)
                    continue
                re, im = acc
                if i == j:
                    re = re - 1
                if not re.is_zero() or i == j:
                    out.append(re)
                if not im.is_zero():
                    out.append(im)
    return out


# ---------------------------------------------------------------------------
# Built-in varieties
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def sphere(n: int) -> Variety:
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    registry = VarRegistry([f"x{i}" for i in range(1, n + 2)])
    block = SphereBlock(tuple(range(n + 1)))
    return Variety(
        name=f"S{n}",
        registry=registry,
        relations=[block.relation(registry)],
        blocks=[block],
        sampler="sphere",
    )


@lru_cache(maxsize=None)
def euclidean(n: int) -> Variety:
    if n < 1:
        raise ValueError("euclidean dimension must be positive")
    registry = VarRegistry([f"X{i}" for i in range(1, n + 1)])
    return Variety(name=f"R{n}", registry=registry, relations=[], sampler="euclidean")


@lru_cache(maxsize=None)
def sphere_product(n: int) -> Variety:
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    m = n + 1
    names = [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(1, m + 1)]
    registry = VarRegistry(names)
    block_x = SphereBlock(tuple(range(m)))
    block_y = SphereBlock(tuple(range(m, 2 * m)))
    return Variety(
        name=f"S{n}xS{n}",
        registry=registry,
        relations=[block_x.relation(registry), block_y.relation(registry)],
        blocks=[block_x, block_y],
        sampler="product",
        factors=(sphere(n), sphere(n)),
    )


@lru_cache(maxsize=None)
def special_orthogonal(n: int) -> Variety:
    if n < 1:
        raise ValueError("matrix size must be positive")
    names = [f"g{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    registry = VarRegistry(names)
    entries = matrix_entry_polys(registry, n)
    return Variety(
        name=f"SO{n}",
        registry=registry,
        relations=_gram_relations(entries, conjugate=False),
        sampler="cayley-so",
        unit_determinant=n,
    )


@lru_cache(maxsize=None)
def unitary(k: int) -> Variety:
    if k < 1:
        raise ValueError("matrix size must be positive")
    names = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            names.append(f"a{i}{j}")
            names.append(f"b{i}{j}")
    registry = VarRegistry(names)
    entries = complex_entry_polys(registry, k)
    relations = _gram_relations(entries, conjugate=True)
    return Variety(
        name=f"U{k}", registry=registry, relations=relations, sampler="cayley-u"
    )


@lru_cache(maxsize=None)
def special_unitary(k: int) -> Variety:
    base = unitary(k)
    registry = base.registry
    entries = complex_entry_polys(registry, k)
    det_re, det_im = poly_matrix_determinant(entries)
    relations = list(base.relations) + [det_re - 1, det_im]
    return Variety(
        name=f"SU{k}", registry=registry, relations=relations, sampler="cayley-su"
    )


# ---------------------------------------------------------------------------
# Exact point samplers
# ---------------------------------------------------------------------------


def _bounded_pairs(rng: random.Random, height: int, count: int) -> List[Tuple[int, int]]:
    """``count`` random rationals ``p / d`` of height ``height``, as pairs
    ``(p, d)`` with ``-height <= p <= height`` and ``1 <= d <= height``.

    Each draw takes ``getrandbits(n.bit_length())`` until the result is
    below ``n`` (``n = 2 * height + 1`` for ``p``, ``n = height`` for ``d``):
    the rejection rule of ``randint``, so the stream and the generator's
    final state are those of ``randint(-height, height), randint(1,
    height)`` per pair.  The bit lengths are taken once per call."""
    if height < 1:
        raise ValueError(f"sample height must be at least 1, got {height}")
    span = 2 * height + 1
    span_bits, height_bits = span.bit_length(), height.bit_length()
    getrandbits = rng.getrandbits
    pairs = []
    for _ in range(count):
        p = getrandbits(span_bits)
        while p >= span:
            p = getrandbits(span_bits)
        d = getrandbits(height_bits)
        while d >= height:
            d = getrandbits(height_bits)
        pairs.append((p - height, d + 1))
    return pairs


def _over_common_denominator(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """``(L, [p * L / d, ...])``: rationals given as integer pairs ``(p, d)``
    with ``d > 0``, written over their least common denominator ``L``."""
    common = lcm(*[d for _, d in pairs])
    return common, [p * (common // d) for p, d in pairs]


def _sphere_scaled(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """Rational point on the sphere in scaled form, by the inverse
    stereographic parametrization (never the pole (-1, 0, ..., 0)), from
    parameters given as integer pairs ``(p, d)`` meaning ``p / d`` with
    ``d > 0``.  Over one common denominator ``L`` the parameters are
    ``T_i / L``; with ``S = sum T_i^2`` the coordinates are
    ``(L^2 - S) / (L^2 + S)`` and ``2 T_i L / (L^2 + S)``, so
    ``q = L^2 + S``."""
    common, scaled = _over_common_denominator(pairs)
    square = common * common
    s = sum(t * t for t in scaled)
    return square + s, [square - s] + [2 * t * common for t in scaled]


def _cayley(
    pairs: Sequence[Tuple[int, int]], k: int, complex_entries: bool
) -> Tuple[int, List[int]]:
    """``(I - H)(I + H)^{-1}`` in scaled form, row-major, for a k x k
    skew-symmetric ``H`` (SO) or skew-Hermitian one (U, ``complex_entries``)
    whose rows hold, in order, the parameters ``p / d`` given as integer
    pairs ``(p, d)``: each entry right of the diagonal, for U as (re, im)
    after the imaginary part of the diagonal entry.  U points interleave
    (re, im) too.

    A complex ``H`` is realified entrywise by ``x + iy -> [[x, -y], [y, x]]``
    as in :func:`regmaps.groups.embed_u_in_so`; realification commutes with
    the transform, and column ``2j`` of the result holds column ``j`` of the
    complex one.  Over one common denominator ``L`` the real ``H`` is
    ``B / L``, ``B`` an integer skew matrix, and ``G = (L I - B)(L I +
    B)^{-1}``.  The factors commute, so ``(L I + B) G = L I - B``: one
    fraction-free solve (:func:`~regmaps.linalg.integer_solve`) for the
    columns read, over ``q = det(L I + B)``, positive for a skew ``B``; the
    point is returned in lowest terms."""
    common, scaled = _over_common_denominator(pairs)
    step = 2 if complex_entries else 1
    size = step * k
    upper = []  # (row, column, entry) of B above its diagonal
    it = iter(scaled)
    for i in range(k):
        if complex_entries:  # the block [[0, -y], [y, 0]] of the diagonal entry iy
            upper.append((2 * i, 2 * i + 1, -next(it)))
        for j in range(i + 1, k):
            if complex_entries:
                x, y, r, c = next(it), next(it), 2 * i, 2 * j
                upper.extend([(r, c, x), (r, c + 1, -y), (r + 1, c, y), (r + 1, c + 1, x)])
            else:
                upper.append((i, j, next(it)))
    plus = [[common if r == c else 0 for c in range(size)] for r in range(size)]  # L I + B
    minus = [list(row) for row in plus]  # L I - B
    for r, c, t in upper:
        plus[r][c], plus[c][r] = t, -t
        minus[r][c], minus[c][r] = -t, t
    q, g = linalg.integer_solve(plus, [row[::step] for row in minus])
    nums = [g[step * i + s][j] for i in range(k) for j in range(k) for s in range(step)]
    common = gcd(q, *nums)
    return q // common, [x // common for x in nums]


def _sample_scaled(variety: Variety, rng: random.Random, height: int) -> Tuple[int, List[int]]:
    """A random point of ``variety`` in scaled form ``(q, nums)``."""
    kind = variety.sampler
    if kind is None:
        raise NoSamplerError(f"{variety.name} has no sampler")
    if kind == "euclidean":
        return _over_common_denominator(_bounded_pairs(rng, height, variety.ambient_dim))
    if kind == "sphere":
        n = variety.ambient_dim - 1
        return _sphere_scaled(_bounded_pairs(rng, height, n))
    if kind == "product":
        parts = [
            _sample_scaled(factor, random.Random(rng.getrandbits(64)), height)
            for factor in variety.factors
        ]
        q = lcm(*[part_q for part_q, _ in parts])
        return q, [x * (q // part_q) for part_q, part in parts for x in part]
    if kind not in ("cayley-so", "cayley-u", "cayley-su"):
        raise NoSamplerError(f"unknown sampler kind {kind!r}")
    complex_entries = kind != "cayley-so"
    k = isqrt(variety.ambient_dim // 2 if complex_entries else variety.ambient_dim)
    count = k * k if complex_entries else k * (k - 1) // 2
    q, nums = _cayley(_bounded_pairs(rng, height, count), k, complex_entries)
    if kind == "cayley-su":
        # det(q U) = q**k det(U) has modulus q**k, so column 0 times its
        # conjugate w over q**k has determinant one.  Over q**(k + 1) that is
        # column 0 times w and the rest times q**k, then in lowest terms.
        z = [ComplexPair(a, b) for a, b in zip(nums[::2], nums[1::2])]
        w = linalg.integer_determinant([z[i * k : (i + 1) * k] for i in range(k)]).conjugate()
        scale = q**k
        nums = [x for i, e in enumerate(z) for x in e * (scale if i % k else w)]
        common = gcd(q * scale, *nums)
        return q * scale // common, [x // common for x in nums]
    return q, nums


def sample_point(
    variety: Variety, seed: int = 0, *, height: int = DEFAULT_HEIGHT
) -> PointOnVariety:
    """Deterministic exact rational point on the variety, drawn in scaled
    form and validated against every relation."""
    rng = random.Random(f"regmaps:{variety.name}:{seed}")
    return PointOnVariety.from_scaled(variety, *_sample_scaled(variety, rng, height))


def sample_stream(
    variety: Variety, seed: int = 0, *, height: int = DEFAULT_HEIGHT
) -> Iterator[PointOnVariety]:
    """Lazy endless stream of samples; sample ``i`` depends only on ``(seed, i)``."""
    for i in itertools.count():
        yield sample_point(variety, seed * 1_000_003 + i, height=height)


def sample_points(
    variety: Variety, count: int, seed: int = 0, *, height: int = DEFAULT_HEIGHT
) -> List[PointOnVariety]:
    """The first ``count`` samples of :func:`sample_stream`."""
    return list(itertools.islice(sample_stream(variety, seed, height=height), count))
