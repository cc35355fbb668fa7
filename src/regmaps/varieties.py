"""Real algebraic varieties: carriers for the domains and codomains of maps.

A :class:`Variety` is declared by a variable registry, at most one
record -- sphere blocks (groups of variables summing-of-squares to one,
which admit canonical normal forms) or a :class:`MatrixGroup`, the one
statement of a matrix group's shape, through which other modules read and
write its row-major layout -- and an exact rational-point sampler, a
function of ``(rng, height)`` that each constructor binds.  The relations
follow from the record.

Built-in families
-----------------
* ``sphere(n)``           unit sphere in R^{n+1}, variables ``x1..x{n+1}``
* ``euclidean(n)``        affine n-space, variables ``X1..Xn``
* ``sphere_product(n)``   two sphere blocks ``x*`` and ``y*``
* ``special_orthogonal(n)``  n x n real matrices, entries ``g1_1..gn_n``
  row-major, with orthonormal rows and columns and determinant one.  The
  relations are the n(n+1) upper-triangle entries of ``M^T M - I`` and
  ``M M^T - I``, each of degree two.  Determinant one is no relation but
  recorded in ``matrix`` (:class:`MatrixGroup`): points are checked by an
  exact integer determinant (:meth:`Variety.first_violation`), and
  symbolic proofs as :func:`regmaps.ratmap.maps_into` describes
* ``unitary(k)``          k x k complex matrices; each entry ``z_ij``
  is stored as the interleaved real pair ``ai_j, bi_j`` (row-major), and
  the unitarity relations are the real and imaginary parts of
  ``Z* Z - I`` and ``Z Z* - I``, built over
  :class:`~regmaps.polynomial.ComplexPair` entries
* ``special_unitary(k)``  the relations of ``unitary(k)``; determinant
  one is recorded in ``matrix`` as for SO(n), and points are checked by an
  exact determinant over the Gaussian integers

:func:`variety_by_name` reads each back from its ``name`` (``S2xS2``, ``SO4``).

Samplers produce exact rational points on integers: spheres by inverse
stereographic projection; SO(n), U(k) and SU(k) by one Cayley transform
of a random skew-symmetric (skew-Hermitian) matrix, a fraction-free solve
on the realified matrix (:func:`_cayley`), and for SU(k) a determinant
correction by one fraction-free determinant over the Gaussian integers.
Every random integer is drawn straight from ``getrandbits`` with the
rejection rule of ``randint``, so the stream is the one ``randint`` draws.

A sphere, Euclidean or sphere-product point is drawn on a grid
(:func:`_grid_draws`): one denominator ``L = randint(1, H)`` and one
numerator ``T_i = randint(-H, H)`` per parameter, ``H`` the height.
Given ``L``, each parameter ``T_i / L`` is uniform on the set
``{T / L : |T| <= H}`` of ``2H + 1`` values, independently of the others.
A point of R^n is those parameters; a point of S^n their inverse
stereographic image, ``q = L^2 + sum T_i^2``; a point of S^n x S^n one
such image of the first n parameters and one of the last n.  The Cayley
samplers draw each parameter as ``p / d`` with its own denominator
(:func:`_bounded_pairs`) and put them over their lcm.

A sampler is a function of ``(rng, height)`` that each constructor binds;
it returns an endless iterator of points in scaled form, ``(q, nums)``
with ``q > 0`` and coordinate ``i`` equal to ``nums[i] / q``, all drawn in
turn from ``rng``.  :func:`sample_stream` is the one source of sampled
points: it seeds one ``random.Random`` from the text
``regmaps:{name}:{seed}`` and builds each point of the sampler's stream,
so the points are deterministic functions of the variety, the seed and
the index, and no point pays for a seeding of its own.
:func:`sample_point` is the first point of that stream and
:func:`sample_points` a prefix of it.  Each point is validated in scaled
form by :meth:`PointOnVariety.from_scaled`
(:meth:`Variety.first_violation_scaled`: one integer kernel per kind of
relation, sphere block, Gram block or unit determinant), which is kept as
the only stored form of the :class:`PointOnVariety`; ``Fraction``
coordinates are built on first read.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from typing import (
    Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

from . import linalg
from .polynomial import ComplexPair, Polynomial, SphereBlock, VarRegistry, scale_point

DEFAULT_HEIGHT = 1000

# A point sampler: ``(rng, height)`` -> an endless iterator of points in
# scaled form ``(q, nums)``, drawn in turn from ``rng``.
Sampler = Callable[[random.Random, int], Iterator[Tuple[int, List[int]]]]


class PointValidationError(ValueError):
    """Raised when coordinates do not satisfy a variety's relations."""


class MatrixGroup(NamedTuple):
    """What a matrix group's constructor knows of its coordinates: read
    row-major, they are the entries of a ``size x size`` matrix, complex
    ones (``complex_entries``) as interleaved (re, im) pairs, whose rows are
    orthonormal; ``special`` when its determinant is one."""

    size: int
    complex_entries: bool
    special: bool

    def entries(self, coords: Sequence) -> list:
        """The entries that ``coords`` (polynomials, values or picks) hold,
        in order; a complex entry is the :class:`ComplexPair` of two
        consecutive coordinates.  Any number of entries: a realified vector,
        as the sphere S^{2k-1} read as k complex numbers, too."""
        if self.complex_entries:
            return list(map(ComplexPair, coords[::2], coords[1::2]))
        return list(coords)

    def rows(self, coords: Sequence) -> list:
        """The row-major ``coords`` as the rows of the ``size x size``
        matrix of their :meth:`entries`."""
        n, entries = self.size, self.entries(coords)
        return [entries[i * n : (i + 1) * n] for i in range(n)]

    def coordinates(self, rows: Iterable[Sequence]) -> list:
        """The row-major coordinates of the matrix ``rows``, of any shape,
        undoing :meth:`rows`: a complex entry gives its (re, im) parts in
        turn.  Other modules read and write the layout only through these."""
        entries = [e for row in rows for e in row]
        return [x for pair in entries for x in pair] if self.complex_entries else entries


class Variety:
    """An embedded real variety with named coordinates.

    Two records declare it: ``blocks``, its sphere blocks, and ``matrix``,
    a :class:`MatrixGroup` or ``None``; a variety has at most one of them.
    ``relations``, the polynomials that vanish on it, follow: each block's
    relation, then the Gram relations of ``matrix`` (:func:`_gram_relations`).
    They are built on first read; det = 1 of SO(n) and SU(k) is no
    relation, only ``matrix.special``.  ``sampler`` is a :data:`Sampler`
    that its constructor binds to its size: ``unitary(k)`` binds
    ``partial(_cayley_points, k, True)``.

    The records say what kind of identities the relations are, so that a
    point is checked by one integer kernel per kind instead of one
    polynomial at a time (:meth:`first_violation_scaled`).

    Instances are immutable; equality is by name and registry, which the
    built-in constructors keep unique (they are cached and return the
    same object for the same parameters).
    """

    __slots__ = (
        "name", "registry", "blocks", "sampler", "matrix",
        "_relations", "_kernel", "_gradients", "_hash",
    )

    def __init__(
        self,
        name: str,
        registry: VarRegistry,
        blocks: Sequence[SphereBlock] = (),
        matrix: Optional[MatrixGroup] = None,
        *,
        sampler: Sampler,
    ):
        blocks = tuple(blocks)
        if blocks and matrix is not None:
            raise ValueError(f"{name}: a variety has sphere blocks or a matrix group, not both")
        if matrix is not None:
            kernel = partial(_matrix_holds, matrix)
        else:
            kernel = partial(_blocks_hold, tuple(b.variable_ids for b in blocks))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "sampler", sampler)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_relations", None)
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_gradients", None)
        object.__setattr__(self, "_hash", hash((name, registry)))

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Variety is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.registry.size

    @property
    def relations(self) -> Tuple[Polynomial, ...]:
        relations = self._relations
        if relations is None:
            relations = [b.relation(self.registry) for b in self.blocks]
            if self.matrix is not None:
                relations += _gram_relations(self.registry, self.matrix)
            relations = tuple(relations)
            object.__setattr__(self, "_relations", relations)
        return relations

    def block_reducible(self) -> bool:
        """True when every relation is a sphere-block relation (no matrix
        group), so that membership in the relation ideal is decidable by
        normal forms."""
        return self.matrix is None

    def first_violation(self, coords: Sequence[Fraction]) -> Optional[Tuple[int, Fraction]]:
        """``(index, residual)`` of the first relation that does not vanish
        at ``coords``, or ``None`` when they all do: the point is scaled to
        integers once and checked by :meth:`first_violation_scaled`."""
        return self.first_violation_scaled(*scale_point(coords))

    def first_violation_scaled(
        self, q: int, nums: Sequence[int]
    ) -> Optional[Tuple[int, Fraction]]:
        """:meth:`first_violation` at the point ``nums[i] / q``, ``q > 0``.

        One exact integer kernel per kind of relation runs on ``nums``
        first: ``sum nums[i]**2 == q**2`` per sphere block, or for a matrix
        group ``N N* == q**2 I`` and, if special, ``det N == q**n`` over Z
        or Z[i].  When they hold, the answer is ``None``.

        Otherwise each relation is tested by its integer numerator at that
        form (:meth:`~regmaps.polynomial.Polynomial.scaled_numerator`), then
        a special group's ``det M - 1`` as one more relation (SO(n)) or its
        real and imaginary parts as two (SU(k)); only the first that fails
        has its residual built.  This loop is the one place a failure is
        reported."""
        if self._kernel(q, nums):
            return None
        for index, relation in enumerate(self.relations):
            if relation.scaled_numerator(nums, q):
                return index, relation.evaluate([Fraction(n, q) for n in nums])
        for part, miss in enumerate(_determinant_misses(self.matrix, q, nums)):
            if miss:
                return len(self.relations) + part, Fraction(miss, q**self.matrix.size)
        return None

    def normals(self, coords: Sequence[Fraction]) -> List[List[Fraction]]:
        """Rows spanning the normal space at the point ``coords``: each
        relation's gradient (the relations are differentiated once), then
        for SU(k) the point and the point turned, ``(a, b)`` as ``(-b, a)``,
        which are the gradients of Re det and Im det since ``adj g = g*``.
        det is locally constant on O(n), so SO(n) adds no row."""
        if self._gradients is None:
            dim = self.ambient_dim
            gradients = [[r.differentiate(j) for j in range(dim)] for r in self.relations]
            object.__setattr__(self, "_gradients", gradients)
        rows = [[d.evaluate(coords) for d in row] for row in self._gradients]
        group = self.matrix
        if group is not None and group.special and group.complex_entries:
            turned = [x for a, b in zip(coords[::2], coords[1::2]) for x in (-b, a)]
            rows += [list(coords), turned]
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variety):
            return NotImplemented
        return self.name == other.name and self.registry == other.registry

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variety({self.name!r}, dim ambient {self.ambient_dim})"


def _blocks_hold(blocks: Tuple[Tuple[int, ...], ...], q: int, nums: Sequence[int]) -> bool:
    """Whether ``sum nums[i]**2 == q**2`` over the variable ids of each block."""
    square = q * q
    for ids in blocks:
        if sum([nums[i] * nums[i] for i in ids]) != square:
            return False
    return True


def _matrix_holds(group: MatrixGroup, q: int, nums: Sequence[int]) -> bool:
    """Whether ``nums / q`` is a point of ``group``: the rows of the integer
    matrix ``N`` are orthogonal with squared norm ``q**2`` for the
    Hermitian product (``N N* == q**2 I``), and ``det N == q**n`` when the
    group is special.  ``N`` is square, so ``N N* == q**2 I`` makes
    ``N* / q**2`` its inverse and ``N* N == q**2 I`` follows.

    A complex row is its interleaved (re, im) integers.  For rows ``u``,
    ``v`` the real part of ``sum u_m conj(v_m)`` is their dot product and
    minus its imaginary part the dot product of ``u`` turned, each pair
    ``(a, b)`` as ``(-b, a)``, with ``v``."""
    n, complex_entries, _ = group
    width = 2 * n if complex_entries else n
    rows = [nums[start : start + width] for start in range(0, n * width, width)]
    square = q * q
    for i, row in enumerate(rows):
        if sum([x * x for x in row]) != square:
            return False
        turned = None
        if complex_entries:
            turned = [x for a, b in zip(row[::2], row[1::2]) for x in (-b, a)]
        for other in rows[i + 1 :]:
            if sum([x * y for x, y in zip(row, other)]):
                return False
            if complex_entries and sum([x * y for x, y in zip(turned, other)]):
                return False
    return not any(_determinant_misses(group, q, nums))


def _determinant_misses(group: Optional[MatrixGroup], q: int, nums: Sequence[int]) -> list:
    """``det N - q**n`` on the integer matrix ``N`` of ``nums``: ``[miss]``
    over Z, ``[re, im]`` over Z[i], ``[]`` unless ``group`` is special."""
    if group is None or not group.special:
        return []
    miss = linalg.integer_determinant(group.rows(nums)) - q**group.size
    return list(miss) if group.complex_entries else [miss]


class PointOnVariety:
    """Exact rational coordinates validated against the variety relations.

    A point stores one form: ``scaled``, one positive integer ``q`` and one
    integer per coordinate, coordinate ``i`` being ``nums[i] / q`` (not
    necessarily in lowest terms), on which the relations are checked
    (:meth:`Variety.first_violation_scaled`).  Coordinates given to the
    constructor (read through ``Fraction`` unless ``int``) are scaled once
    and handed to :meth:`from_scaled`, which builds every point, sampled
    points and images of maps included.  ``coords``, a tuple of
    ``Fraction``, is built on first read; the denominator audit of
    ``verify`` never reads it.
    """

    __slots__ = ("variety", "scaled", "_coords")

    def __new__(cls, variety: Variety, coords: Sequence[Fraction]) -> "PointOnVariety":
        return cls.from_scaled(variety, *scale_point(coords))

    @classmethod
    def from_scaled(cls, variety: Variety, q: int, nums: Sequence[int]) -> "PointOnVariety":
        """The point with coordinates ``nums[i] / q``, for ``q > 0``: the one
        place a point is stored and its relations are checked."""
        if q <= 0:
            raise PointValidationError(f"a scaled point needs q > 0, got {q}")
        if len(nums) != variety.ambient_dim:
            raise PointValidationError(
                f"{variety.name} needs {variety.ambient_dim} coordinates, got {len(nums)}"
            )
        violation = variety.first_violation_scaled(q, nums)
        if violation is not None:
            raise PointValidationError(
                f"coordinates violate a relation of {variety.name}: residual {violation[1]}"
            )
        point = object.__new__(cls)
        object.__setattr__(point, "variety", variety)
        object.__setattr__(point, "scaled", (q, tuple(nums)))
        object.__setattr__(point, "_coords", None)
        return point

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


def _gram_relations(registry: VarRegistry, group: MatrixGroup) -> List[Polynomial]:
    """Entries of M* M - I and M M* - I (upper triangle, realified) for the
    matrix M of ``group`` over ``registry``."""
    n, conjugate = group.size, group.complex_entries
    entries = group.rows([Polynomial.variable(registry, i) for i in range(registry.size)])
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
                acc = summed(registry, products)
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
    return Variety(f"S{n}", registry, [block], sampler=partial(_sphere_points, n))


@lru_cache(maxsize=None)
def euclidean(n: int) -> Variety:
    if n < 1:
        raise ValueError("euclidean dimension must be positive")
    registry = VarRegistry([f"X{i}" for i in range(1, n + 1)])
    return Variety(f"R{n}", registry, sampler=partial(_grid_draws, n))


@lru_cache(maxsize=None)
def sphere_product(n: int) -> Variety:
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    m = n + 1
    names = [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(1, m + 1)]
    registry = VarRegistry(names)
    blocks = [SphereBlock(tuple(range(m))), SphereBlock(tuple(range(m, 2 * m)))]
    return Variety(f"S{n}xS{n}", registry, blocks, sampler=partial(_sphere_pair_points, n))


@lru_cache(maxsize=None)
def special_orthogonal(n: int) -> Variety:
    if n < 1:
        raise ValueError("matrix size must be positive")
    registry = VarRegistry([f"g{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)])
    sampler = partial(_cayley_points, n, False)
    return Variety(f"SO{n}", registry, matrix=MatrixGroup(n, False, True), sampler=sampler)


@lru_cache(maxsize=None)
def unitary(k: int) -> Variety:
    if k < 1:
        raise ValueError("matrix size must be positive")
    pairs = [(f"a{i}_{j}", f"b{i}_{j}") for i in range(1, k + 1) for j in range(1, k + 1)]
    registry = VarRegistry([x for pair in pairs for x in pair])
    sampler = partial(_cayley_points, k, True)
    return Variety(f"U{k}", registry, matrix=MatrixGroup(k, True, False), sampler=sampler)


@lru_cache(maxsize=None)
def special_unitary(k: int) -> Variety:
    registry, sampler = unitary(k).registry, partial(_special_unitary_points, k)
    return Variety(f"SU{k}", registry, matrix=MatrixGroup(k, True, True), sampler=sampler)


# The constructor of each family by the prefix of its names, as in ``SO4``.
_BY_PREFIX = {
    "S": sphere, "R": euclidean, "SO": special_orthogonal, "U": unitary, "SU": special_unitary
}


def variety_by_name(name: str) -> Variety:
    """The built-in variety whose ``name`` is ``name``: a prefix of
    :data:`_BY_PREFIX` and a size, or ``S{n}xS{n}``."""
    match = re.fullmatch(rf"({'|'.join(_BY_PREFIX)})(\d+)|S(\d+)xS(\d+)", name)
    variety = None
    if match and match[1]:
        variety = _BY_PREFIX[match[1]](int(match[2]))
    elif match:
        if int(match[3]) != int(match[4]):
            raise ValueError(f"unsupported product variety {name!r}")
        variety = sphere_product(int(match[3]))
    if variety is None or variety.name != name:  # not canonical, as ``S01``
        raise ValueError(f"unknown variety name {name!r}")
    return variety


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


def _grid_draws(
    count: int, rng: random.Random, height: int
) -> Iterator[Tuple[int, List[int]]]:
    """Endless grid draws ``(L, [T_1, ..., T_count])`` of height ``height``,
    with ``1 <= L <= height`` and ``-height <= T_i <= height``: the
    parameters ``T_i / L`` of one point over one denominator.

    Each integer takes ``getrandbits(n.bit_length())`` until the result is
    below ``n`` (``n = height`` for ``L``, ``n = 2 * height + 1`` for each
    ``T_i``), as :func:`_bounded_pairs` does, so each draw is the stream,
    and leaves the generator state, of ``randint(1, height)`` and then
    ``count`` times ``randint(-height, height)``."""
    if height < 1:
        raise ValueError(f"sample height must be at least 1, got {height}")
    span = 2 * height + 1
    span_bits, height_bits = span.bit_length(), height.bit_length()
    getrandbits = rng.getrandbits
    draws = range(count)
    while True:
        common = getrandbits(height_bits)
        while common >= height:
            common = getrandbits(height_bits)
        ts = []
        for _ in draws:
            t = getrandbits(span_bits)
            while t >= span:
                t = getrandbits(span_bits)
            ts.append(t - height)
        yield common + 1, ts


def _over_common_denominator(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """``(L, [p * L / d, ...])``: rationals given as integer pairs ``(p, d)``
    with ``d > 0``, written over their least common denominator ``L``."""
    common = lcm(*[d for _, d in pairs])
    return common, [p * (common // d) for p, d in pairs]


def scaled_image(nums: Sequence[int], den: int) -> Tuple[int, List[int]]:
    """The point ``nums[i] / den``, integers with ``den != 0``, in scaled form
    ``(q, ints)`` with ``q > 0``: all divided by their gcd, carrying the sign
    of ``den``.  The Cayley and SU(k) samplers reduce their points by it, and
    :class:`~regmaps.ratmap.RationalMap` the image of a map."""
    g = gcd(den, *nums) * (-1 if den < 0 else 1)
    return den // g, [n // g for n in nums]


def _stereographic(common: int, ts: Sequence[int]) -> Tuple[int, List[int]]:
    """The point of the sphere with parameters ``T_i / L`` (``common`` is
    ``L > 0``, ``ts`` the ``T_i``) by the inverse stereographic
    parametrization, which never gives the pole (-1, 0, ..., 0), in scaled
    form: with ``S = sum T_i^2`` the coordinates are
    ``(L^2 - S) / (L^2 + S)`` and ``2 T_i L / (L^2 + S)``, so
    ``q = L^2 + S``."""
    square = common * common
    s = sum([t * t for t in ts])
    twice = 2 * common
    return square + s, [square - s] + [twice * t for t in ts]


def _sphere_points(
    n: int, rng: random.Random, height: int
) -> Iterator[Tuple[int, List[int]]]:
    """Points of S^n: the image of each grid draw of n parameters."""
    return itertools.starmap(_stereographic, _grid_draws(n, rng, height))


def _sphere_pair_points(
    n: int, rng: random.Random, height: int
) -> Iterator[Tuple[int, List[int]]]:
    """Points of S^n x S^n: of each grid draw of 2n parameters, the image
    of the first n and of the last n, side by side over the lcm of their
    denominators."""
    for common, ts in _grid_draws(2 * n, rng, height):
        q, x = _stereographic(common, ts[:n])
        r, y = _stereographic(common, ts[n:])
        both = lcm(q, r)
        yield both, [v * (both // q) for v in x] + [v * (both // r) for v in y]


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
    return scaled_image(nums, q)


def _cayley_points(
    k: int, complex_entries: bool, rng: random.Random, height: int
) -> Iterator[Tuple[int, List[int]]]:
    """Points of SO(k), or of U(k): :func:`_cayley` of each draw of random
    parameters."""
    count = k * k if complex_entries else k * (k - 1) // 2
    while True:
        yield _cayley(_bounded_pairs(rng, height, count), k, complex_entries)


def _special_unitary_points(
    k: int, rng: random.Random, height: int
) -> Iterator[Tuple[int, List[int]]]:
    """Points of U(k) with the determinant corrected in column 0."""
    group = unitary(k).matrix
    for q, nums in _cayley_points(k, True, rng, height):
        # det(q U) = q**k det(U) has modulus q**k, so column 0 times its
        # conjugate w over q**k has determinant one.  Over q**(k + 1) that
        # is column 0 times w and the rest times q**k, then in lowest terms.
        rows = group.rows(nums)
        w = linalg.integer_determinant(rows).conjugate()
        scale = q**k
        rows = [[e * (scale if j else w) for j, e in enumerate(row)] for row in rows]
        yield scaled_image(group.coordinates(rows), q * scale)


def sample_point(
    variety: Variety, seed: int = 0, *, height: int = DEFAULT_HEIGHT
) -> PointOnVariety:
    """The first point of :func:`sample_stream` at ``seed``: a
    deterministic exact rational point on the variety."""
    return next(sample_stream(variety, seed, height=height))


def sample_stream(
    variety: Variety, seed: int = 0, *, height: int = DEFAULT_HEIGHT
) -> Iterator[PointOnVariety]:
    """Lazy endless stream of exact rational points on the variety: the
    points of its sampler's stream, each validated against every relation
    by :meth:`PointOnVariety.from_scaled`.  One generator, seeded once from
    the text ``regmaps:{name}:{seed}``, draws them all in turn, so a point
    depends on the seed and on its index."""
    rng = random.Random(f"regmaps:{variety.name}:{seed}")
    from_scaled = PointOnVariety.from_scaled
    for q, nums in variety.sampler(rng, height):
        yield from_scaled(variety, q, nums)


def sample_points(
    variety: Variety, count: int, seed: int = 0, *, height: int = DEFAULT_HEIGHT
) -> List[PointOnVariety]:
    """The first ``count`` samples of :func:`sample_stream`."""
    return list(itertools.islice(sample_stream(variety, seed, height=height), count))
