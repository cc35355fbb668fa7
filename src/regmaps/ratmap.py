"""Rational maps between varieties, with exact verification operations.

A :class:`RationalMap` holds one numerator polynomial per codomain
coordinate and a single shared denominator, all over the domain's
variable registry.  Maps are normalized on construction:

* every polynomial is reduced to its normal form modulo the domain's
  sphere blocks (when the domain has any),
* the tuple is scaled by the positive reciprocal of its rational
  content, so the coefficients are coprime integers overall.  The sign
  is kept: a denominator built positive stays positive, though its
  leading coefficient may be negative (``oplus:2`` leads with -1).

Together with the canonical term order this makes structural equality
(`same numerators, same denominator`) meaningful: two maps constructed
along different routes that agree coefficient-by-coefficient compare
equal.  Semantic equality as functions is checked either symbolically
(cross-multiplied differences reduce to zero modulo the domain blocks)
or by exact evaluation at sampled rational points.

A map is a matrix map exactly when its codomain is a matrix group: the
codomain's :class:`~regmaps.varieties.MatrixGroup` is the only statement
of its shape.  Entries may be complex, in which case consecutive
coordinate pairs hold the real and imaginary parts of each entry
(row-major).  :meth:`MatrixGroup.rows <regmaps.varieties.MatrixGroup.rows>`
turns such coordinates (polynomials or values) into rows of entries,
:class:`~regmaps.polynomial.ComplexPair` when complex, and
:meth:`MatrixGroup.coordinates <regmaps.varieties.MatrixGroup.coordinates>`
writes rows back; evaluation, transpose and product all go through the
pair.

A *coordinate map*, built by :func:`coordinate_map`, has each coordinate
a constant multiple of one domain coordinate, or a constant, over the
denominator 1: identities, constants, projections, reflections and
subgroup inclusions are all of this kind.

Composition is exact: substituting ``g = (M_1/E, ..., M_m/E)`` into a
coordinate ``N/D`` of ``f`` clears denominators by homogenizing with
``E`` up to the maximal degree ``d`` appearing in ``f``, producing
numerators ``N(M/E) * E^d`` and denominator ``D(M/E) * E^d`` --
polynomials again, no division needed.

Staged maps.  :func:`compose`, :func:`matrix_multiply` and
:func:`matrix_transpose` return a *staged* map, on every domain: it keeps
its inputs and a rule for their values, a straight-line program in the
sense of Kaltofen (JACM 1988); :func:`relabel` of a staged map shares its
stage.  :meth:`RationalMap.values` evaluates it as it stands, each shared
stage once per point, on integers: from the point in scaled form
``(q, nums)`` every node returns integer numerator and denominator values,
and ``Fraction`` coordinates are built only where a caller reads them
(:meth:`RationalMap.evaluate_raw`, :meth:`RationalMap.evaluate`).
Invariant: at every point of the domain the values are a *positive
multiple* of the expanded map's numerator and denominator values, so
every ratio, zero test and sign -- hence every verdict built on them --
is the expanded map's.  On a domain with sphere blocks the expansion is
a normal form, which agrees with the polynomials it reduces only on the
domain, so :meth:`RationalMap.values` and :meth:`RationalMap.evaluate_raw`
refuse coordinates off the domain (:class:`PointValidationError`).  A
composite keeps the invariant by evaluating the outer map at the inner
image, in scaled form reduced by one gcd, and restores the sign of the
factor ``E^d`` that this drops, ``E`` the inner denominator and ``d`` the
outer map's largest degree: it negates the values where ``E < 0`` and
``d`` is odd.  Only where ``E = 0``, where that factor vanishes, does it
evaluate its own expansion.  Reading
``numerators``, ``denominator``, ``max_degree``, ``==``, ``hash`` or
:func:`map_to_json` expands the map once, by the same polynomial code an
expanded map is built with, and releases its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, product
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .polynomial import (
    ComplexPair,
    Polynomial,
    _ordered,
    exponents,
    normal_form,
    polynomial_from_obj,
    polynomial_to_json,
)
from .varieties import (
    DEFAULT_HEIGHT,
    MatrixGroup,
    PointOnVariety,
    PointValidationError,
    Variety,
    poly_matrix_determinant,
    sample_stream,
    scaled_image,
    sphere,
    sphere_product,
    variety_by_name,
)


class VarietyMismatchError(ValueError):
    """Raised when domains/codomains of an operation do not line up."""


class ZeroDenominatorError(ValueError):
    """Raised when a map's denominator is identically zero on the domain."""


class ExcludedLocusError(ArithmeticError):
    """Raised when a map is evaluated at a point where its denominator vanishes."""


class CodomainViolationError(ValueError):
    """Raised when an evaluated image fails the codomain's relations."""


class RationalMap:
    """Tuple of numerators over one shared denominator, typed by varieties.

    A staged map (see the module docstring) holds ``_stage`` until its
    polynomials are first read; then it holds ``_polys``, as an expanded
    map does from construction.  ``codomain_proof`` is the symbolic
    :func:`maps_into` verdict that :func:`verified` proved when it checked
    the map, else ``None``: a proof, whatever the seed, which a suite can
    report without proving it again."""

    __slots__ = (
        "domain", "codomain", "excluded", "label", "codomain_proof", "_polys", "_stage"
    )

    def __init__(
        self,
        domain: Variety,
        codomain: Variety,
        numerators: Sequence[Polynomial],
        denominator: Polynomial,
        excluded: str = "",
        label: str = "",
    ):
        self._set(domain=domain, codomain=codomain, excluded=excluded, label=label, _stage=None)
        self._set(_polys=self._normalized(numerators, denominator), codomain_proof=None)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("RationalMap is immutable")

    def _set(self, **fields) -> None:
        for key, value in fields.items():
            object.__setattr__(self, key, value)

    def _normalized(
        self, numerators: Sequence[Polynomial], denominator: Polynomial
    ) -> Tuple[Tuple[Polynomial, ...], Polynomial]:
        if len(numerators) != self.codomain.ambient_dim:
            raise VarietyMismatchError(
                f"{self.codomain.name} needs {self.codomain.ambient_dim} coordinates, "
                f"got {len(numerators)} numerators"
            )
        for p in list(numerators) + [denominator]:
            if p.registry != self.domain.registry:
                raise VarietyMismatchError(
                    "map polynomials must live over the domain registry"
                )
        nums = [normal_form(p, self.domain.blocks) for p in numerators]
        den = normal_form(denominator, self.domain.blocks)
        if den.is_zero():
            raise ZeroDenominatorError(
                "denominator is zero modulo the domain relations"
            )
        nums, den = _normalize_content(nums, den)
        return tuple(nums), den

    # -- staged maps --------------------------------------------------------

    def _expanded(self) -> Tuple[Tuple[Polynomial, ...], Polynomial]:
        """The normalized polynomials, expanding a staged map once (its
        inputs are released afterwards)."""
        stage = self._stage
        if stage is not None:
            polys = self._normalized(*stage.expand(*stage.inputs))
            self._set(_polys=polys, _stage=None)
        return self._polys

    @property
    def numerators(self) -> Tuple[Polynomial, ...]:
        return self._expanded()[0]

    @property
    def denominator(self) -> Polynomial:
        return self._expanded()[1]

    @property
    def staged(self) -> bool:
        """True until the polynomials of a staged map are first read."""
        return self._stage is not None

    # -- evaluation -------------------------------------------------------

    def values(self, coords: Sequence[Fraction]) -> Tuple[List[int], int]:
        """Integer numerator values and denominator value at ``coords``, a
        point of the domain (else :class:`PointValidationError`): a positive
        multiple of the expanded map's, so ratios, zeros and signs are its."""
        return self._values(self._scaled(coords), {})

    def _scaled(self, coords: Sequence) -> tuple:
        """``coords`` in scaled form (see
        :func:`~regmaps.polynomial.scale_point`), refused with
        :class:`PointValidationError` off the domain, where a staged map and
        its expansion may disagree."""
        if len(coords) != self.domain.ambient_dim:
            raise VarietyMismatchError(
                f"{self.domain.name} needs {self.domain.ambient_dim} coordinates, "
                f"got {len(coords)}"
            )
        return PointOnVariety(self.domain, coords).scaled

    def _values(self, scaled: tuple, memo: dict):
        # ``scaled`` is the point as ``(q, nums)``, ``coords[i] = nums[i] / q``
        # with ``q > 0``: every polynomial of every stage is evaluated from
        # that one form.  ``memo`` maps id(node) -> (node, values) at this
        # one point, so a stage that feeds several others is evaluated once;
        # keeping the node alive keeps its id from being reused meanwhile.
        hit = memo.get(id(self))
        if hit is None:
            stage = self._stage
            found = (
                self._polynomial_values(scaled)
                if stage is None
                else stage.values(self, scaled, memo)
            )
            hit = memo[id(self)] = (self, found)
        return hit[1]

    def _polynomial_values(self, scaled: tuple):
        # ``q**top`` times the values, ``top`` the largest degree: content
        # normalization makes every coefficient an integer, so the integer
        # numerator of a polynomial of degree D is ``q**D`` times its value.
        q, nums = scaled
        polys = [*self.numerators, self.denominator]
        top = max(p.total_degree() for p in polys)
        *values, den = [p.scaled_numerator(nums, q) * q ** (top - p.total_degree()) for p in polys]
        return values, den

    def _denominator_values(self, qs: tuple, columns: List[tuple]) -> List[int]:
        # Positive multiples of the denominator's values at a block of
        # points given as columns (``SampleStream.columns``).  An expanded
        # map reads the integer numerators of its denominator alone, over
        # the columns; a staged map evaluates its stages point by point.
        if self._stage is None:
            return self._polys[1].scaled_numerators(columns, qs)
        return [self._values((q, nums), {})[1] for q, nums in zip(qs, zip(*columns))]

    def _image(self, scaled: tuple) -> Tuple[int, List[int]]:
        """The image of the point ``scaled`` in scaled form (see
        :func:`~regmaps.varieties.scaled_image`), raising
        :class:`ExcludedLocusError` where the denominator vanishes."""
        nums, den = self._values(scaled, {})
        if den == 0:
            raise ExcludedLocusError(
                f"denominator of {self._describe()} vanishes at the given point"
                + (f" (excluded locus: {self.excluded})" if self.excluded else "")
            )
        return scaled_image(nums, den)

    def evaluate_raw(self, coords: Sequence[Fraction]) -> List[Fraction]:
        """Exact image coordinates of ``coords``, a point of the domain
        (else :class:`PointValidationError`); the image is not checked
        against the codomain."""
        q, nums = self._image(self._scaled(coords))
        return [Fraction(n, q) for n in nums]

    def evaluate(self, point: PointOnVariety) -> PointOnVariety:
        """The image of ``point``, built in scaled form and validated
        against the codomain's relations."""
        if point.variety != self.domain:
            raise VarietyMismatchError(
                f"point lives on {point.variety.name}, map expects {self.domain.name}"
            )
        try:
            return PointOnVariety.from_scaled(self.codomain, *self._image(point.scaled))
        except PointValidationError as exc:
            raise CodomainViolationError(
                f"image of {self._describe()} left {self.codomain.name}: {exc}"
            ) from exc

    def evaluate_matrix(self, point: PointOnVariety) -> list:
        """The image of ``point`` as rows of exact scalars, pairs when
        complex; the codomain must be a matrix group."""
        return _group(self).rows(self.evaluate(point).coords)

    # -- structure ----------------------------------------------------------

    def max_degree(self) -> int:
        return max(
            [n.total_degree() for n in self.numerators] + [self.denominator.total_degree()]
        )

    def _describe(self) -> str:
        return self.label or f"map {self.domain.name} -> {self.codomain.name}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.numerators == other.numerators
            and self.denominator == other.denominator
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.numerators, self.denominator))

    def __repr__(self) -> str:
        size = "staged" if self.staged else f"degree {self.max_degree()}"
        return f"RationalMap({self._describe()}, {size})"


def _group(m: RationalMap) -> MatrixGroup:
    """The :class:`~regmaps.varieties.MatrixGroup` of ``m``'s codomain."""
    group = m.codomain.matrix
    if group is None:
        raise VarietyMismatchError(f"{m.codomain.name} is not a matrix group")
    return group


def _normalize_content(
    nums: List[Polynomial], den: Polynomial
) -> Tuple[List[Polynomial], Polynomial]:
    # Scale by the positive reciprocal of the rational content, so the
    # coefficients become integers with overall gcd one; the sign is kept.
    # Over the lcm ``L`` of the denominators, polynomial ``p`` has the
    # integer coefficients ``c * (L // p.den)``; ``g`` is their gcd.
    polys = nums + [den]
    common = lcm(*[p.den for p in polys])
    g = gcd(*[gcd(*p.terms.values()) * (common // p.den) for p in polys])
    if common == 1 and g == 1:
        return nums, den
    *nums, den = [
        _ordered(p.registry, {m: c * (common // p.den) // g for m, c in p.terms.items()}, 1)
        for p in polys
    ]
    return nums, den


# ---------------------------------------------------------------------------
# Substitution and composition
# ---------------------------------------------------------------------------


def substitute_cleared(
    source: Polynomial,
    images: Sequence[Polynomial],
    denominator: Polynomial,
    degree: Optional[int] = None,
) -> Polynomial:
    """Expand ``source(images / denominator) * denominator**degree`` exactly.

    ``degree`` defaults to the total degree of ``source``; passing a larger
    value homogenizes further (used to give every coordinate of a composite
    the same cleared denominator).
    """
    if degree is None:
        degree = source.total_degree()
    if degree < source.total_degree():
        raise ValueError("clearing degree is smaller than the source degree")
    target = denominator.registry
    image_powers: dict = {}
    den_powers = [None, denominator]  # den_powers[k] is denominator ** k, k >= 1

    def cleared_term(m: int, coeff: int) -> tuple:
        # ``coeff`` times the image of the monomial ``m`` times
        # ``denominator ** (degree - deg m)``, as one term of the
        # accumulator: all factors but the largest are multiplied out,
        # smallest first, and the largest is left to the accumulator.
        exps = exponents(m, source.registry)
        factors = []
        for i, e in enumerate(exps):
            if e:
                p = image_powers.get((i, e))
                if p is None:
                    p = image_powers[(i, e)] = images[i] ** e
                factors.append(p)
        k = degree - sum(exps)
        if k:
            while len(den_powers) <= k:
                den_powers.append(den_powers[-1] * denominator)
            factors.append(den_powers[k])
        if not factors:
            return coeff, Polynomial.one(target), None
        factors.sort(key=len)
        *rest, largest = factors
        return (coeff, reduce(mul, rest), largest) if rest else (coeff, largest, None)

    # Each integer coefficient of ``source`` is cleared with its monomial;
    # the sum is then put over ``source``'s denominator.
    cleared = [cleared_term(m, c) for m, c in source.terms.items()]
    total = Polynomial.sum_of_products(target, cleared)
    return total if source.den == 1 else _ordered(target, total.terms, total.den * source.den)


@dataclass(frozen=True)
class _Stage:
    """How a staged map follows from its ``inputs``.  ``values(node, scaled,
    memo)`` gives a positive multiple of the expanded map's values at the
    point ``scaled = (q, nums)`` (see :meth:`RationalMap._values`);
    ``expand(*inputs)`` gives its polynomials before normalization, by the
    same code that builds an expanded map."""

    inputs: tuple
    values: Callable
    expand: Callable


def _derived(
    domain: Variety, codomain: Variety, stage: _Stage, excluded: str, label: str
) -> RationalMap:
    """The staged map ``stage`` computes."""
    m = object.__new__(RationalMap)
    m._set(domain=domain, codomain=codomain, excluded=excluded, label=label)
    m._set(_polys=None, _stage=stage, codomain_proof=None)
    return m


def relabel(m: RationalMap, label: str, excluded: str) -> RationalMap:
    """A copy of ``m`` under a new label and excluded-locus text.  The copy
    keeps ``m``'s polynomials, or shares its stage while ``m`` is staged;
    expanding the copy does not expand ``m``."""
    copy = _derived(m.domain, m.codomain, m._stage, excluded, label)
    copy._set(_polys=m._polys)
    return copy


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """Exact composite ``outer after inner``."""
    if inner.codomain != outer.domain:
        raise VarietyMismatchError(
            f"cannot compose: inner lands in {inner.codomain.name}, "
            f"outer starts from {outer.domain.name}"
        )
    excluded = "; ".join(s for s in (inner.excluded, outer.excluded) if s)
    label = f"{outer._describe()} . {inner._describe()}"
    stage = _Stage((outer, inner), _composite_values, _composite_polynomials)
    return _derived(inner.domain, outer.codomain, stage, excluded, label)


def _composite_polynomials(outer: RationalMap, inner: RationalMap):
    degree = outer.max_degree()
    nums = [
        substitute_cleared(n, inner.numerators, inner.denominator, degree)
        for n in outer.numerators
    ]
    den = substitute_cleared(outer.denominator, inner.numerators, inner.denominator, degree)
    return nums, den


def _composite_values(node, scaled, memo):
    outer, inner = node._stage.inputs
    image, den = inner._values(scaled, memo)
    # The expansion carries the factor den ** d, d = outer.max_degree(),
    # which the outer values at the image drop: where den = 0 it vanishes,
    # so only the expansion has the values; where den < 0 it is negative
    # for an odd d (reading d expands a staged outer map, not this one).
    if den == 0:
        return node._polynomial_values(scaled)
    values, outer_den = outer._values(scaled_image(image, den), {})
    if den < 0 and outer.max_degree() % 2:
        return [-v for v in values], -outer_den
    return values, outer_den


def pair_map(first: RationalMap, second: RationalMap) -> RationalMap:
    """Combine two maps with a common domain into one map to the product."""
    if first.domain != second.domain:
        raise VarietyMismatchError("pair components must share a domain")
    n = first.codomain.ambient_dim - 1
    if first.codomain != second.codomain or first.codomain != sphere(n):
        raise VarietyMismatchError("pair components must map to a common sphere")
    target = sphere_product(n)
    nums = [p * second.denominator for p in first.numerators]
    nums += [p * first.denominator for p in second.numerators]
    den = first.denominator * second.denominator
    excluded = "; ".join(s for s in (first.excluded, second.excluded) if s)
    label = f"({first._describe()}, {second._describe()})"
    return RationalMap(first.domain, target, nums, den, excluded, label)


def coordinate_map(
    domain: Variety,
    codomain: Variety,
    picks: Sequence[Tuple[Optional[int], Union[int, Fraction]]],
    label: str,
) -> RationalMap:
    """The map over the denominator 1 whose coordinate k is ``c * x_i`` when
    ``picks[k] == (i, c)`` and the constant ``c`` when ``picks[k] == (None, c)``."""
    reg = domain.registry
    nums = [
        Polynomial.constant(reg, c) if i is None else c * Polynomial.variable(reg, i)
        for i, c in picks
    ]
    return RationalMap(domain, codomain, nums, Polynomial.one(reg), label=label)


def identity_map(variety: Variety) -> RationalMap:
    picks = [(i, 1) for i in range(variety.ambient_dim)]
    return coordinate_map(variety, variety, picks, f"id_{variety.name}")


def constant_map(domain: Variety, value: PointOnVariety) -> RationalMap:
    picks = [(None, c) for c in value.coords]
    return coordinate_map(domain, value.variety, picks, f"const_{value.variety.name}")


# ---------------------------------------------------------------------------
# Verification operations and their verdicts
# ---------------------------------------------------------------------------


METHODS = ("symbolic", "exact-evaluation", "sampling")

# Points per block of the denominator audit: a fixed size, so that the
# audit's memory does not grow with its sample count.
AUDIT_BLOCK = 256


@dataclass(frozen=True)
class Verdict:
    """A pass/fail check and the kind of evidence behind it.

    ``method`` is one of :data:`METHODS`: ``symbolic`` is a complete proof
    by normal forms, structural equality or a Sturm count,
    ``exact-evaluation`` an exact evaluation at fixed points and
    ``sampling`` exact evaluation at sampled points.
    ``evidence`` holds the JSON-ready counts and findings; ``witness`` is
    the exact point that failed, if any.
    """

    method: str
    passed: bool
    evidence: dict
    witness: Optional[tuple] = None
    name: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown verdict method {self.method!r}")

    @property
    def info(self) -> dict:
        out = {"method": self.method, **self.evidence}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        return out

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "info": self.info}


def _check_same_signature(f: RationalMap, g: RationalMap) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise VarietyMismatchError(
            f"maps have different signatures: {f.domain.name}->{f.codomain.name} "
            f"vs {g.domain.name}->{g.codomain.name}"
        )


def _sampled_off_locus(
    domain: Variety, maps: Sequence[RationalMap], count: int, seed: int, height: int
):
    """Lazily yield ``(point, values of each map)`` at the first ``count``
    sampled points of ``domain`` where no map's denominator vanishes; every
    map is evaluated from the point's one scaled form.  Raises
    :class:`ExcludedLocusError` if ``8 * count`` draws do not find them, and
    ``ValueError`` for a ``count`` below one: no verdict rests on no point."""
    if count < 1:
        raise ValueError("need at least one sample point")
    found = 0
    for point in islice(sample_stream(domain, seed, height=height), 8 * count):
        values = [m._values(point.scaled, {}) for m in maps]
        if all(den != 0 for _, den in values):
            yield point, values
            found += 1
            if found == count:
                return
    raise ExcludedLocusError(
        "sampling kept hitting vanishing denominators; cannot collect enough sample points"
    )


def equal_mod(
    f: RationalMap,
    g: RationalMap,
    trials: int = 20,
    seed: int = 0,
    *,
    height: int = DEFAULT_HEIGHT,
) -> Verdict:
    """Exact-sampling equality: cross-multiplied coordinate differences must
    vanish at ``trials`` sampled rational points of the common domain."""
    _check_same_signature(f, g)
    points = _sampled_off_locus(f.domain, (f, g), trials, seed, height)
    for done, (point, ((nf, df), (ng, dg))) in enumerate(points):
        if any(a * dg != b * df for a, b in zip(nf, ng)):
            return Verdict("sampling", False, {"trials": done + 1}, point.coords)
    return Verdict("sampling", True, {"trials": trials})


def equal_symbolic(f: RationalMap, g: RationalMap) -> Verdict:
    """Symbolic equality: each cross-multiplied difference reduces to the
    zero normal form modulo the domain's sphere blocks.  Only available
    when the domain's relations are exactly its sphere blocks, which is
    what makes the normal form a complete membership test."""
    _check_same_signature(f, g)
    if not f.domain.block_reducible():
        raise ValueError(
            f"symbolic equality needs a sphere-block domain; "
            f"{f.domain.name} is a matrix group"
        )
    equal = all(
        normal_form(nf * g.denominator - ng * f.denominator, f.domain.blocks).is_zero()
        for nf, ng in zip(f.numerators, g.numerators)
    )
    return Verdict("symbolic", equal, {"trials": 0})


def maps_into(
    f: RationalMap,
    samples: int = 32,
    seed: int = 0,
    *,
    height: int = DEFAULT_HEIGHT,
) -> Verdict:
    """Check that the image satisfies every codomain relation, and det = 1
    on a special codomain.

    Symbolic route (complete proof) when the domain is reducible to sphere
    blocks: each polynomial of :func:`_cleared_relations` must have zero
    normal form, and SO(n) then gets one more step,
    :func:`_unit_determinant_holds`.  Otherwise falls back to exact
    evaluation at sampled points of the domain, where
    :meth:`~regmaps.varieties.Variety.first_violation` checks the
    determinant too.  ``checked`` counts relations, the determinant steps
    included (symbolic), or sample points (sampling); a failed determinant
    is ``failed_relation`` ``len(relations)``, or one more for Im det.
    """
    if f.domain.block_reducible():
        checked = 0
        for checked, lifted in enumerate(_cleared_relations(f), 1):
            if not normal_form(lifted, f.domain.blocks).is_zero():
                evidence = {"checked": checked, "failed_relation": checked - 1}
                return Verdict("symbolic", False, evidence)
        group = f.codomain.matrix
        if group is not None and group.special and not group.complex_entries:
            if not _unit_determinant_holds(f, seed, height):
                evidence = {"checked": checked + 1, "failed_relation": checked}
                return Verdict("symbolic", False, evidence)
            checked += 1
        return Verdict("symbolic", True, {"checked": checked})
    points = _sampled_off_locus(f.domain, (f,), samples, seed, height)
    for done, (point, ((nums, den),)) in enumerate(points):
        violation = f.codomain.first_violation_scaled(*scaled_image(nums, den))
        if violation is not None:
            evidence = {"checked": done + 1, "failed_relation": violation[0]}
            return Verdict("sampling", False, evidence, point.coords)
    return Verdict("sampling", True, {"checked": samples})


def _cleared_relations(f: RationalMap) -> Iterable[Polynomial]:
    """Lazily, each codomain relation of ``f = N / E`` cleared of
    denominators, then for SU(k) Re and Im of ``det N - E^k`` (Leibniz)."""
    for relation in f.codomain.relations:
        yield substitute_cleared(relation, f.numerators, f.denominator)
    group = f.codomain.matrix
    if group is not None and group.special and group.complex_entries:
        det = poly_matrix_determinant(group.rows(f.numerators))
        yield from det - ComplexPair(f.denominator**group.size, 0)


def _unit_determinant_holds(f: RationalMap, seed: int, height: int) -> bool:
    """Whether det = 1 holds on the image of ``f``, a map from a
    sphere-block domain whose cleared Gram relations reduce to zero.

    Write ``f = N / E`` with ``N`` an ``n x n`` matrix.  Then
    ``N^T N = E^2 I`` on the domain, so ``det(N)^2 = E^(2n)``: the product
    ``(det N - E^n)(det N + E^n)`` vanishes identically.  Once its S^0
    coordinates are fixed to signs, the domain (spheres S^k with k >= 1 and
    free coordinates) is irreducible, so one factor vanishes identically
    there, and one exact determinant at one point with ``E != 0`` says
    which.  An S^0 block is two points, so each sign pattern of the S^0
    coordinates is checked on its own; the sampler alone would only ever
    give them the value 1.  Where the pattern fixes every coordinate and
    ``E = 0``, the Gram relations force ``N = 0``, so ``det N = E^n``
    holds with nothing to check.
    """
    domain = f.domain
    signed = [b.variable_ids[0] for b in domain.blocks if len(b.variable_ids) == 1]
    lone_point = len(signed) == domain.ambient_dim
    for signs in product((1, -1), repeat=len(signed)):
        for point in islice(sample_stream(domain, seed, height=height), 8):
            q, coords = point.scaled
            coords = list(coords)
            for i, sign in zip(signed, signs):
                coords[i] = sign * q
            nums, den = f._values((q, coords), {})
            if den:
                if f.codomain.first_violation_scaled(*scaled_image(nums, den)) is not None:
                    return False
                break
            if lone_point:
                break
        else:
            raise ExcludedLocusError(
                "sampling kept hitting vanishing denominators; "
                "cannot check the determinant"
            )
    return True


def denominator_check(
    f: RationalMap,
    samples: int = 100,
    seed: int = 0,
    *,
    height: int = DEFAULT_HEIGHT,
) -> Verdict:
    """Evaluate the denominator at sampled points and report any value
    that is zero or negative.  The points are the first ``samples`` of
    :func:`~regmaps.varieties.sample_stream`, read :data:`AUDIT_BLOCK` at a
    time as validated integer columns
    (:meth:`~regmaps.varieties.SampleStream.columns`), so no
    :class:`PointOnVariety` is built and memory does not grow with
    ``samples``.  Only the sign is read: on an expanded map it is the sign
    of the denominator's integer numerator, evaluated over the columns
    (:meth:`~regmaps.polynomial.Polynomial.scaled_numerators`), and no
    ``Fraction`` is built but for the first point reported, the witness.
    Raises ``ValueError`` for ``samples`` below one."""
    if samples < 1:
        raise ValueError("need at least one sample point")
    stream = sample_stream(f.domain, seed, height=height)
    zeros = 0
    negatives = 0
    witness = None
    for start in range(0, samples, AUDIT_BLOCK):
        qs, columns = stream.columns(min(AUDIT_BLOCK, samples - start))
        values = f._denominator_values(qs, columns)
        zeros += values.count(0)
        negatives += len([v for v in values if v < 0])
        if witness is None and (zeros or negatives):
            j = next(j for j, v in enumerate(values) if v <= 0)
            witness = tuple([Fraction(column[j], qs[j]) for column in columns])
    evidence = {"samples": samples, "zeros": zeros, "negatives": negatives}
    return Verdict("sampling", zeros == negatives == 0, evidence, witness)


def verified(m: RationalMap, samples: int, seed: int, height: int) -> RationalMap:
    """One-time construction check of a catalog map: codomain membership
    (a symbolic proof on sphere-block domains, sampled otherwise), then
    denominator signs at sampled points.  Returns ``m``, which keeps a
    symbolic membership verdict as ``codomain_proof``, or raises
    ``AssertionError`` with the failing report."""
    report = maps_into(m, samples=samples, seed=seed, height=height)
    if not report.passed:
        raise AssertionError(
            f"catalog map {m._describe()} failed codomain check: {report.info}"
        )
    if report.method == "symbolic":
        m._set(codomain_proof=report)
    sign_report = denominator_check(m, samples=samples, seed=seed, height=height)
    if not sign_report.passed:
        raise AssertionError(
            f"catalog map {m._describe()} has sign-indefinite denominator: "
            f"{sign_report.info}"
        )
    return m


# ---------------------------------------------------------------------------
# Matrix-map algebra: maps into a matrix group, whose record is the shape
# ---------------------------------------------------------------------------


def matrix_transpose(m: RationalMap) -> RationalMap:
    """Transpose of a map into a matrix group, into that group too;
    conjugate-transpose when complex.

    For complex entries the conjugate transpose is the natural involution
    (entries swap indices, imaginary parts flip sign).
    """
    stage = _Stage((m,), _transposed_values, _transposed_polynomials)
    label = f"({m._describe()})^{'*' if _group(m).complex_entries else 'T'}"
    return _derived(m.domain, m.codomain, stage, m.excluded, label)


def _transposed(m: RationalMap, coords: Sequence) -> list:
    """Row-major coordinates (polynomials or values) of the transpose of the
    matrix ``coords`` of ``m``'s group; conjugated when complex."""
    group = m.codomain.matrix
    rows = group.rows(coords)
    if group.complex_entries:
        rows = [[z.conjugate() for z in row] for row in rows]
    return group.coordinates(zip(*rows))


def _transposed_polynomials(m: RationalMap):
    return _transposed(m, m.numerators), m.denominator


def _transposed_values(node, scaled, memo):
    (m,) = node._stage.inputs
    nums, den = m._values(scaled, memo)
    return _transposed(m, nums), den


def matrix_multiply(a: RationalMap, b: RationalMap) -> RationalMap:
    """Entrywise-exact product of two maps over a common domain into a
    common matrix group, which the product lands in too."""
    if a.domain != b.domain:
        raise VarietyMismatchError("matrix factors must share a domain")
    _group(a)  # the factors are matrices
    if a.codomain != b.codomain:
        raise VarietyMismatchError(
            f"matrix factors must land in a common group ({a.codomain.name}, {b.codomain.name})"
        )
    stage = _Stage((a, b), _product_values, _product_polynomials)
    return _derived(
        a.domain,
        a.codomain,
        stage,
        "; ".join(s for s in (a.excluded, b.excluded) if s),
        f"{a._describe()} * {b._describe()}",
    )


def _product(a: RationalMap, x: Sequence, y: Sequence, dot: Callable) -> list:
    """Row-major coordinates of the product of the matrices ``x`` and ``y``
    of ``a``'s group, polynomials or values; ``dot(row, column)`` is one
    entry."""
    group = a.codomain.matrix
    columns = list(zip(*group.rows(y)))
    product_rows = [[dot(row, column) for column in columns] for row in group.rows(x)]
    return group.coordinates(product_rows)


def _product_polynomials(a: RationalMap, b: RationalMap):
    # Each entry is one sum of products of the accumulator, two for a
    # complex entry: no product of two entries is built on its own.
    entry_type = ComplexPair if a.codomain.matrix.complex_entries else Polynomial
    dot = partial(entry_type.dot, a.domain.registry)
    return _product(a, a.numerators, b.numerators, dot), a.denominator * b.denominator


def _product_values(node, scaled, memo):
    a, b = node._stage.inputs
    (x, x_den), (y, y_den) = a._values(scaled, memo), b._values(scaled, memo)
    return _product(a, x, y, _scalar_dot), x_den * y_den


def _scalar_dot(row: Sequence, column: Sequence):
    """The sum of the products of ``row`` and ``column``, scalars or pairs of
    scalars."""
    return sum(map(mul, row, column))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def map_to_obj(m: RationalMap) -> dict:
    """The parsed canonical text :func:`map_to_json`."""
    return json.loads(map_to_json(m))


def _matrix_block(codomain: Variety) -> Optional[dict]:
    """The ``"matrix"`` block of a map into ``codomain``: its group's shape."""
    group = codomain.matrix
    if group is None:
        return None
    return {"rows": group.size, "cols": group.size, "complex_entries": group.complex_entries}


def map_from_obj(obj: dict) -> RationalMap:
    domain = variety_by_name(obj["domain"])
    codomain = variety_by_name(obj["codomain"])
    nums = [polynomial_from_obj(p, domain.registry) for p in obj["numerators"]]
    den = polynomial_from_obj(obj["denominator"], domain.registry)
    if "matrix" in obj:
        # exactly the codomain's block: ``3.0`` is not ``3``, nor ``1`` ``true``
        block, given = _matrix_block(codomain), json.dumps(obj["matrix"], sort_keys=True)
        if block is None or given != json.dumps(block, sort_keys=True):
            raise ValueError(f"matrix block {obj['matrix']!r} is not that of {codomain.name}")
    excluded, label = obj.get("excluded", ""), obj.get("label", "")
    for key, text in (("excluded", excluded), ("label", label)):
        if type(text) is not str:
            raise ValueError(f"{key} must be a string, got {text!r}")
    return RationalMap(domain, codomain, nums, den, excluded, label)


def map_to_json(m: RationalMap) -> str:
    """The canonical text of ``m``, one line with no whitespace: its keys
    in sorted order, ``"label"`` only when set and ``"matrix"`` only into a
    matrix group.  Polynomials are written by :func:`polynomial_to_json`,
    all from one cache of monomial text; strings and the matrix block go
    through ``json.dumps``, which escapes them as ASCII."""
    cache: dict = {}  # the monomial text of every polynomial of the map
    fields = [
        ("codomain", json.dumps(m.codomain.name)),
        ("denominator", polynomial_to_json(m.denominator, cache)),
        ("domain", json.dumps(m.domain.name)),
        ("excluded", json.dumps(m.excluded)),
    ]
    if m.label:
        fields.append(("label", json.dumps(m.label)))
    block = _matrix_block(m.codomain)
    if block is not None:
        fields.append(("matrix", json.dumps(block, separators=(",", ":"), sort_keys=True)))
    numerators = ",".join(polynomial_to_json(p, cache) for p in m.numerators)
    fields.append(("numerators", f"[{numerators}]"))
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields) + "}"


def map_from_json(text: str) -> RationalMap:
    return map_from_obj(json.loads(text))
