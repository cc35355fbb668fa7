"""Exact sparse multivariate polynomial arithmetic over the rationals.

Data model
----------
* Coefficients are exact rationals, stored as ``int`` numerators over one
  positive ``int`` denominator per polynomial, in lowest terms: the value
  is ``sum(c * x**e) / den`` with ``gcd(den, every c) == 1``.  Ring
  operations stay on integers; ``Fraction`` is built only at the edges
  (a constant or a scalar factor given as one, serialization, ``repr``
  and the value of :meth:`Polynomial.evaluate`).
* Variables live in a :class:`VarRegistry`, an immutable ordered list of
  names.  A variable is referred to by its integer id (its position).
* A monomial is one non-negative ``int``: the exponent of variable ``i``
  sits in bits ``[16 i, 16 i + 16)`` (``FIELD`` bits per variable) and the
  total degree above them, from bit ``registry.shift = 16 * size`` on.  A
  product of monomials is one integer addition, and the canonical order
  is one comparison of keys.  A monomial's degree stays below ``2**16``,
  so no exponent field carries into its neighbour: a product that would
  reach it raises ``OverflowError``.  :func:`exponents` and :func:`pack`
  convert between a key and its exponent tuple.
* A :class:`Polynomial` is a mapping monomial -> coefficient with no zero
  coefficients, kept in a canonical graded-reverse-lexicographic order
  (highest first) so that equal polynomials have identical iteration
  order and identical serialized bytes.
* The constructor takes a mapping or an iterable of ``(monomial,
  coefficient)`` pairs and a denominator, adds repeated monomials, drops
  zeros, reduces to lowest terms and sorts once.
  :meth:`Polynomial.sum_of_products` is the one accumulator of sums of
  products ``coeff * left * right``: it multiplies every product straight
  into one dict over the lcm of the denominators and settles the sum the
  same way, once, so no product is built, sorted or reduced on its own.
  ``+``, ``-``, :meth:`Polynomial.sum` and every product of two factors of
  more than one term go through it.
* A complex quantity is a :class:`ComplexPair`, the pair ``(re, im)`` of
  its real and imaginary parts: polynomials in real variables while maps
  into the circle and the unitary groups are built, integers when such
  maps are evaluated, exact rationals when SU(k) points are sampled.  The
  pair type is the one place that knows ``(a + bi)(c + di)``.

The module also implements reduction modulo "sphere blocks": for a block
of variables ``v1..vm`` subject to ``v1^2 + ... + vm^2 = 1`` every
polynomial has a unique normal form obtained by eliminating powers
``vm^2 -> 1 - v1^2 - ... - v(m-1)^2``.  The rewrite terminates because it
never reintroduces the eliminated variable, and the result is a canonical
representative: monomials in which the last block variable appears with
exponent at most one form a module basis for the quotient ring.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union


class RegistryMismatchError(ValueError):
    """Raised when operands were built over different variable registries."""


class UnknownVariableError(ValueError):
    """Raised when a variable id is not present in a registry."""


class MissingAssignmentError(ValueError):
    """Raised when evaluation is attempted without a value for some variable."""


class OverlappingBlocksError(ValueError):
    """Raised when sphere blocks given to a normal-form pass share variables."""


FIELD = 16  # bits per exponent in a monomial key
_MASK = (1 << FIELD) - 1
DEGREE_LIMIT = 1 << FIELD  # every monomial's degree stays below this
_WORD = 64  # bits of a monomial key whose text the writer keeps as one piece
_WORD_MASK = (1 << _WORD) - 1


class VarRegistry:
    """Immutable ordered collection of variable names.

    The id of a variable is its index in ``names``.  Registries compare by
    value so two independently built registries with the same names are
    interchangeable.  ``shift`` is the bit where a monomial key's degree
    starts and ``low`` masks the exponent fields below it.
    """

    __slots__ = ("names", "shift", "low")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            repeated = sorted(name for name, count in Counter(names).items() if count > 1)
            raise ValueError(f"duplicate variable names in registry: {repeated}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "shift", FIELD * len(names))
        object.__setattr__(self, "low", (1 << FIELD * len(names)) - 1)

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("VarRegistry is immutable")

    @property
    def size(self) -> int:
        return len(self.names)

    def name(self, var_id: int) -> str:
        if not 0 <= var_id < len(self.names):
            raise UnknownVariableError(f"no variable with id {var_id}")
        return self.names[var_id]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarRegistry({list(self.names)!r})"


def pack(exps: Sequence[int], registry: VarRegistry) -> int:
    """The monomial key of the exponent tuple ``exps`` (one non-negative
    ``int`` per variable of ``registry``).  A degree of ``DEGREE_LIMIT`` or
    more raises ``OverflowError``."""
    degree = sum(exps)
    if degree >= DEGREE_LIMIT:
        raise OverflowError(f"monomial degree {degree} reaches the limit {DEGREE_LIMIT}")
    key = degree << registry.shift
    for i, e in enumerate(exps):
        key |= e << FIELD * i
    return key


def exponents(m: int, registry: VarRegistry) -> tuple:
    """The exponent tuple of the monomial key ``m``, one entry per variable
    of ``registry``: the inverse of :func:`pack`."""
    # Each FIELD-bit exponent is one native unsigned short ("H") of the bytes.
    fields = (m & registry.low).to_bytes(2 * registry.size, sys.byteorder)
    return tuple(memoryview(fields).cast("H"))


def _factors(fields: int, var: int = 0) -> Iterator[tuple]:
    """Yield ``(variable id, exponent)`` for each nonzero exponent in
    ``fields``, a monomial key without its degree (``m & registry.low``), by
    increasing id: the order of the serialized form.  Only the nonzero
    fields are visited.  ``var`` is the id of the lowest field: nonzero when
    ``fields`` is a key shifted down past its first ``var`` fields."""
    while fields:
        skip = ((fields & -fields).bit_length() - 1) // FIELD  # zero fields below
        fields >>= FIELD * skip
        var += skip
        yield var, fields & _MASK
        fields >>= FIELD
        var += 1


class Polynomial:
    """Sparse polynomial with integer coefficients over one positive
    denominator ``den``, in lowest terms and canonical term order."""

    __slots__ = ("registry", "terms", "den", "_plan", "_gradient")

    def __init__(
        self, registry: VarRegistry, terms: Union[Mapping, Iterable[tuple]], den: int = 1
    ):
        """The polynomial ``sum(c * x**e) / den`` of ``terms``, a mapping or
        an iterable of ``(monomial key, coefficient)`` pairs with ``int``
        coefficients, and the positive ``int`` ``den``.  Repeated monomials
        are added, zero coefficients dropped, the coefficients and ``den``
        divided by their gcd and the result put in canonical order.  A
        coefficient that is no integer raises ``TypeError``."""
        if isinstance(terms, Mapping):
            combined = terms
        else:
            combined = {}
            for m, coeff in terms:
                prev = combined.get(m)
                combined[m] = coeff if prev is None else prev + coeff
        self._settle(registry, combined, den)

    def _settle(self, registry: VarRegistry, combined: Mapping, den: int) -> None:
        """Keep the nonzero terms of ``combined``, each monomial once, put in
        canonical order, over ``den``: one sort and one gcd."""
        # Graded reverse-lexicographic order, highest first, is the
        # descending order of the keys with their exponent fields flipped:
        # the higher degree first, then the smaller fields, the last
        # variable's compared first.
        ordered = sorted(
            (m for m, c in combined.items() if c), key=registry.low.__xor__, reverse=True
        )
        self._store(registry, {m: combined[m] for m in ordered}, den)

    def _store(self, registry: VarRegistry, terms: dict, den: int) -> None:
        """Keep ``terms``, nonzero ``int`` coefficients in canonical order,
        over ``den``, both divided by their gcd."""
        if den < 1:
            raise ValueError(f"a polynomial's denominator must be positive, got {den}")
        g = gcd(den, *terms.values())  # also refuses a coefficient that is no int
        if g > 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(registry: VarRegistry) -> "Polynomial":
        return Polynomial(registry, {})

    @staticmethod
    def constant(registry: VarRegistry, value: Union[int, Fraction]) -> "Polynomial":
        value = value if isinstance(value, int) else Fraction(value)
        return Polynomial(registry, {0: value.numerator}, value.denominator)

    @staticmethod
    def variable(registry: VarRegistry, var_id: int) -> "Polynomial":
        if not 0 <= var_id < registry.size:
            raise UnknownVariableError(f"no variable with id {var_id}")
        return Polynomial(registry, {(1 << registry.shift) | (1 << FIELD * var_id): 1})

    @staticmethod
    def one(registry: VarRegistry) -> "Polynomial":
        return Polynomial.constant(registry, 1)

    @staticmethod
    def sum(registry: VarRegistry, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``polys``, all over ``registry``: a
        :meth:`sum_of_products` of lone factors."""
        return Polynomial.sum_of_products(registry, [(1, p, None) for p in polys])

    @staticmethod
    def dot(
        registry: VarRegistry, lefts: Iterable["Polynomial"], rights: Iterable["Polynomial"]
    ) -> "Polynomial":
        """The sum of the products ``lefts[j] * rights[j]``, all over
        ``registry``: one :meth:`sum_of_products`."""
        return Polynomial.sum_of_products(registry, [(1, x, y) for x, y in zip(lefts, rights)])

    @staticmethod
    def sum_of_products(registry: VarRegistry, terms: Iterable[tuple]) -> "Polynomial":
        """The sum of ``coeff * left * right`` over ``terms``, triples of an
        ``int`` ``coeff`` and polynomials over ``registry``; ``right`` is
        ``None`` for the lone factor ``coeff * left``.

        This is the one accumulator of sums and products: every product is
        multiplied straight into one dict over the lcm of the terms'
        denominators, so no product is built as a polynomial of its own, and
        the sum is sorted and reduced once.  An operand over another
        registry raises :class:`RegistryMismatchError` and a product whose
        degree reaches ``DEGREE_LIMIT`` raises ``OverflowError``, as ``*``
        does."""
        shift = registry.shift
        checked = []
        for coeff, left, right in terms:
            den = _check_registry(registry, left).den
            if right is not None:
                den *= _check_registry(registry, right).den
                if left.terms and right.terms:
                    # The leading keys hold the largest degrees: their sum
                    # bounds the degree of every product of monomials.
                    degree = (next(iter(left.terms)) + next(iter(right.terms))) >> shift
                    if degree >= DEGREE_LIMIT:
                        raise OverflowError(
                            f"a product of degree {degree} reaches the limit {DEGREE_LIMIT}"
                        )
            checked.append((coeff, left, right, den))
        den = lcm(*[term_den for *_, term_den in checked])
        acc: dict = {}
        get = acc.get
        for coeff, left, right, term_den in checked:
            factor = coeff * (den // term_den)
            if right is None:
                for m, c in left.terms.items():
                    acc[m] = get(m, 0) + c * factor
                continue
            if len(left.terms) > len(right.terms):
                left, right = right, left
            inner = list(right.terms.items())
            for m1, c1 in left.terms.items():
                c1 *= factor
                for m2, c2 in inner:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        out = object.__new__(Polynomial)
        out._settle(registry, acc, den)
        return out

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest monomial degree; the zero polynomial has degree 0.  Terms
        are graded, highest first, so it is the degree of the first term."""
        return next(iter(self.terms), 0) >> self.registry.shift

    def variables_used(self) -> tuple:
        return self._scalars()[0]

    def _scalars(self) -> tuple:
        """The evaluation plan ``(variables_used, L, D, powers, terms)``,
        built in one pass over the terms on first use and kept.

        ``L`` is the denominator ``den`` and ``D`` the total degree.
        ``powers`` lists each distinct variable power ``x**e`` of the terms
        once, as ``(k, e)`` with ``k`` the position of ``x`` in
        ``variables_used``.  ``terms`` holds one ``(c, monomial, D - deg)``
        triple per term: its integer coefficient over ``L``, its monomial as
        the indices of its factors in ``powers`` and the power of the shared
        denominator that homogenizes it to degree ``D``.
        """
        try:
            return self._plan
        except AttributeError:
            pass
        degree, shift, low = self.total_degree(), self.registry.shift, self.registry.low
        index: dict = {}
        terms = []
        for m, coeff in self.terms.items():
            mono = tuple(index.setdefault(f, len(index)) for f in _factors(m & low))
            terms.append((coeff, mono, degree - (m >> shift)))
        used = tuple(sorted({i for i, _ in index}))
        position = {i: k for k, i in enumerate(used)}
        powers = tuple((position[i], e) for i, e in index)
        plan = (used, self.den, degree, powers, tuple(terms))
        object.__setattr__(self, "_plan", plan)
        return plan

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.terms.items())

    # -- ring operations --------------------------------------------------

    def __add__(self, other: object) -> "Polynomial":
        return Polynomial.sum(self.registry, (self, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Polynomial":
        terms = [(1, self, None), (-1, self._coerce(other), None)]
        return Polynomial.sum_of_products(self.registry, terms)

    def __rsub__(self, other: object) -> "Polynomial":
        return self._coerce(other) - self

    def __neg__(self) -> "Polynomial":
        return _ordered(self.registry, {m: -c for m, c in self.terms.items()}, self.den)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.registry)
            factor = other.numerator
            terms = {m: c * factor for m, c in self.terms.items()}
            return _ordered(self.registry, terms, self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_registry(self.registry, other)
        poly, mono = (self, other) if len(other.terms) == 1 else (other, self)
        if len(mono.terms) != 1 or not poly.terms:
            return Polynomial.sum_of_products(self.registry, [(1, self, other)])
        # A one-term factor keeps the order of the other factor's terms: the
        # order is a monomial order.
        ((m, cm),) = mono.terms.items()
        degree = (next(iter(poly.terms)) + m) >> self.registry.shift
        if degree >= DEGREE_LIMIT:
            raise OverflowError(f"a product of degree {degree} reaches the limit {DEGREE_LIMIT}")
        terms = {k + m: c * cm for k, c in poly.terms.items()}
        return _ordered(self.registry, terms, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        return _power(self, exponent, partial(Polynomial.one, self.registry))

    def _coerce(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.registry, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.registry == other.registry and self.den == other.den and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.registry, self.den, tuple(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var_id: int) -> "Polynomial":
        if not 0 <= var_id < self.registry.size:
            raise UnknownVariableError(f"no variable with id {var_id}")
        # Lowering one exponent and the degree by one keeps the terms that
        # hold the variable in canonical order.
        start = FIELD * var_id
        lowered = (1 << self.registry.shift) + (1 << start)
        derivatives = {}
        for m, coeff in self.terms.items():
            e = (m >> start) & _MASK
            if e:
                derivatives[m - lowered] = coeff * e
        return _ordered(self.registry, derivatives, self.den)

    def gradient(self) -> dict:
        """``{var_id: d self / d x_var}`` over :meth:`variables_used`: the
        nonzero partials, since lowering one exponent keeps distinct
        monomials distinct; every other partial is zero.  Built on first use
        and kept, as the evaluation plan is: callers must not write into it."""
        try:
            return self._gradient
        except AttributeError:
            pass
        gradient = {j: self.differentiate(j) for j in self.variables_used()}
        object.__setattr__(self, "_gradient", gradient)
        return gradient

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at rational coordinates.

        ``point`` is a sequence indexed by variable id whose values are
        ``Fraction`` or ``int`` (any other value is read through
        ``Fraction``).  Only the used variables are read; one that ``point``
        is too short to hold, or holds as ``None``, raises
        :class:`MissingAssignmentError`.  Their values are written over one
        shared denominator (see :func:`scale_point`) and the integer core of
        :meth:`scaled_numerator` does the rest, over its positive factor,
        reduced once.
        """
        used, size = self._scalars()[0], len(point)
        values = [point[i] if i < size else None for i in used]
        if any(v is None for v in values):
            missing = (i for i, value in zip(used, values) if value is None)
            names = ", ".join(self.registry.name(i) for i in missing)
            raise MissingAssignmentError(f"no value assigned to: {names}")
        q, nums = scale_point(values)
        return Fraction(*self._integer_value(nums, q))

    def scaled_numerator(self, nums: Sequence[int], q: int) -> int:
        """The integer ``L * q**D`` times the value at the point ``nums[i] / q``
        (``nums`` indexed by variable id, ``q > 0``, as a point is sampled and
        kept), with ``L`` the denominator ``den`` and ``D`` the total
        degree.  The factor is positive, so this integer is zero exactly
        where the value is and has its sign: a zero test or a sign test
        builds no ``Fraction``."""
        return self._integer_value([nums[i] for i in self._scalars()[0]], q)[0]

    def scaled_numerators(self, columns: Sequence[Sequence[int]], qs: Sequence[int]) -> list:
        """:meth:`scaled_numerator` at each point of a block given as integer
        columns: point ``j`` is ``columns[i][j] / qs[j]`` in coordinate ``i``
        (``columns`` indexed by variable id, every ``qs[j] > 0``).  The plan
        of :meth:`_scalars` runs once over the block, a column per power and
        per term, multiplied and summed by ``map``; the integers are those of
        :meth:`scaled_numerator`, point by point."""
        used, _, degree, powers, terms = self._scalars()
        pows = [
            columns[used[k]] if e == 1 else list(map(pow, columns[used[k]], repeat(e)))
            for k, e in powers
        ]
        qpow = [None, qs]  # qpow[r] is the column of q**r; q**0 is never read
        for _ in range(2, degree + 1):
            qpow.append(list(map(mul, qpow[-1], qs)))
        total = [0] * len(qs)
        for coeff, mono, rest in terms:
            column = repeat(coeff)
            for factor in [pows[k] for k in mono] + ([qpow[rest]] if rest else []):
                column = map(mul, column, factor)
            total = list(map(add, total, column))
        return total

    def _integer_value(self, nums: Sequence[int], q: int) -> tuple:
        # ``nums`` holds the scaled values of the used variables, in order.
        # The sum runs over the evaluation plan (see :meth:`_scalars`) on
        # integers: with the coefficients over ``L`` and every monomial
        # homogenized to degree ``D`` the value is ``total / (L * q**D)``,
        # returned as that pair of integers.
        _, coeff_lcm, degree, powers, terms = self._scalars()
        pows = [nums[k] ** e for k, e in powers]
        qpow = [1] * (degree + 1)
        for k in range(1, degree + 1):
            qpow[k] = qpow[k - 1] * q
        total = 0
        for term, mono, rest in terms:
            for k in mono:
                term *= pows[k]
            total += term * qpow[rest]
        return total, coeff_lcm * qpow[degree]

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for m, coeff in self.terms.items():
            coeff = Fraction(coeff, self.den)
            factors = [
                self.registry.name(i) + (f"^{e}" if e > 1 else "")
                for i, e in _factors(m & self.registry.low)
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{body}")
        return "Polynomial(" + " + ".join(parts) + ")"


def scale_point(values: Sequence) -> tuple:
    """``(q, nums)``: the point ``values`` written as ``nums[i] / q`` with
    ``q`` the lcm of the denominators and every ``nums[i]`` an integer.
    Values other than ``Fraction`` and ``int`` are read through ``Fraction``."""
    values = [v if isinstance(v, (Fraction, int)) else Fraction(v) for v in values]
    dens = [v.denominator for v in values]
    q = lcm(*dens)
    return q, [v.numerator * (q // d) for v, d in zip(values, dens)]


def _ordered(registry: VarRegistry, terms: dict, den: int) -> Polynomial:
    """The polynomial of ``terms``, nonzero ``int`` coefficients already in
    canonical order, over ``den``: no term is combined or sorted."""
    p = object.__new__(Polynomial)
    p._store(registry, terms, den)
    return p


def _check_registry(registry: VarRegistry, p: Polynomial) -> Polynomial:
    """``p``, after checking that it lives over ``registry``."""
    if p.registry != registry:
        raise RegistryMismatchError(
            f"operands use different registries: {registry.names} vs {p.registry.names}"
        )
    return p


def transport_polynomial(
    p: Polynomial, new_registry: VarRegistry, var_map: Sequence[int]
) -> Polynomial:
    """Rewrite ``p`` over ``new_registry``, sending old variable id ``i``
    to new id ``var_map[i]``."""

    def moved(m: int) -> int:
        out = [0] * new_registry.size
        for i, e in _factors(m & p.registry.low):
            out[var_map[i]] += e
        return pack(out, new_registry)

    return Polynomial(new_registry, ((moved(m), c) for m, c in p.terms.items()), p.den)


def _power(base, exponent: int, one: Callable):
    """``base ** exponent`` by repeated squaring.  ``one()`` builds the one
    of its ring, the power for the exponent 0: it is never multiplied in."""
    if exponent < 0:
        raise ValueError("negative powers are not polynomials")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one() if result is None else result


class ComplexPair(NamedTuple):
    """The complex quantity ``re + i*im`` as the pair of its real and
    imaginary parts, over any exact ring: polynomials in real variables
    (over one registry) or ``int``/``Fraction`` scalars.

    Pairs combine with pairs and with ``int`` or ``Fraction`` operands,
    which enter as ``(value, 0)``: on either side of ``+``, ``-`` and
    ``*``, and as the divisor of ``/``.  The product of two pairs of
    polynomials is a one-term :meth:`dot`, two sums of products of the
    accumulator.  A real polynomial ``p`` enters as
    ``ComplexPair(p, zero)``.  Being a tuple, a pair unpacks as
    ``re, im = z``; it is true when nonzero.  Division needs scalar parts
    and is exact: the quotient's parts are ``Fraction``.  Floor division
    ``//`` is exact division of Gaussian integers: it needs ``int`` parts
    and raises ``ValueError`` when the divisor does not divide.
    """

    re: Union[Polynomial, Fraction, int]
    im: Union[Polynomial, Fraction, int]

    @property
    def registry(self) -> VarRegistry:
        return self.re.registry

    @staticmethod
    def dot(
        registry: VarRegistry, lefts: Iterable["ComplexPair"], rights: Iterable["ComplexPair"]
    ) -> "ComplexPair":
        """The sum of the products ``lefts[j] * rights[j]``, pairs of
        polynomials over ``registry``: one
        :meth:`~Polynomial.sum_of_products` per part, with two products per
        pair in each."""
        pairs = list(zip(lefts, rights))
        re = [t for x, y in pairs for t in ((1, x.re, y.re), (-1, x.im, y.im))]
        im = [t for x, y in pairs for t in ((1, x.re, y.im), (1, x.im, y.re))]
        return ComplexPair(
            Polynomial.sum_of_products(registry, re), Polynomial.sum_of_products(registry, im)
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: object) -> "ComplexPair":
        other = _as_pair(other)
        if other is None:
            return NotImplemented
        return ComplexPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ComplexPair":
        other = _as_pair(other)
        if other is None:
            return NotImplemented
        return ComplexPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: object) -> "ComplexPair":
        other = _as_pair(other)
        return NotImplemented if other is None else other - self

    def __neg__(self) -> "ComplexPair":
        return ComplexPair(-self.re, -self.im)

    def __mul__(self, other: object) -> "ComplexPair":
        other = _as_pair(other)
        if other is None:
            return NotImplemented
        if all(isinstance(part, Polynomial) for part in (*self, *other)):
            return ComplexPair.dot(self.registry, [self], [other])
        return ComplexPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ComplexPair":
        other = _as_pair(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by a zero ComplexPair")
        return ComplexPair(
            Fraction(self.re * other.re + self.im * other.im, norm),
            Fraction(self.im * other.re - self.re * other.im, norm),
        )

    def __floordiv__(self, other: object) -> "ComplexPair":
        other = _as_pair(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by a zero ComplexPair")
        re, re_rest = divmod(self.re * other.re + self.im * other.im, norm)
        im, im_rest = divmod(self.im * other.re - self.re * other.im, norm)
        if re_rest or im_rest:
            raise ValueError(f"{other} does not divide {self} in the Gaussian integers")
        return ComplexPair(re, im)

    def __pow__(self, exponent: int) -> "ComplexPair":
        return _power(self, exponent, lambda: ComplexPair(self.re * 0 + 1, self.im * 0))

    def conjugate(self) -> "ComplexPair":
        """Complex conjugate; the variables are real, so only ``im`` flips."""
        return ComplexPair(self.re, -self.im)


def _as_pair(value: object) -> Optional[ComplexPair]:
    """``value`` as a pair: an ``int`` or ``Fraction`` enters as
    ``(value, 0)``; ``None`` for any other non-pair."""
    if isinstance(value, ComplexPair):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexPair(value, 0)
    return None


# ---------------------------------------------------------------------------
# Sphere blocks and normal forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereBlock:
    """A group of variables constrained by `sum of squares = 1`.

    ``variable_ids`` lists the member variables in registry order; the last
    one is the eliminated variable of the rewrite ``v_last^2 -> 1 - rest``.
    """

    variable_ids: tuple

    def __post_init__(self) -> None:
        if not self.variable_ids:
            raise ValueError("sphere block needs at least one variable")
        if len(set(self.variable_ids)) != len(self.variable_ids):
            raise ValueError("sphere block lists a variable twice")

    @property
    def eliminated(self) -> int:
        return self.variable_ids[-1]

    def relation(self, registry: VarRegistry) -> Polynomial:
        """The defining polynomial `v1^2 + ... + vm^2 - 1`."""
        return _sum_of_squares(registry, self.variable_ids) - 1

    def substitute_polynomial(self, registry: VarRegistry) -> Polynomial:
        """`1 - v1^2 - ... - v(m-1)^2`, the replacement for `v_last^2`."""
        return 1 - _sum_of_squares(registry, self.variable_ids[:-1])


def _sum_of_squares(registry: VarRegistry, variable_ids: Sequence[int]) -> Polynomial:
    """`v1^2 + ... + vk^2` over ``variable_ids``.  Each square is made, and
    its variable dropped, before the next: a block may span thousands of
    variables, and their keys as many kilobytes each."""
    squares = (Polynomial.variable(registry, v) ** 2 for v in variable_ids)
    return Polynomial.sum(registry, squares)


def check_blocks_disjoint(blocks: Sequence[SphereBlock]) -> None:
    seen: set = set()
    for block in blocks:
        overlap = seen.intersection(block.variable_ids)
        if overlap:
            raise OverlappingBlocksError(
                f"sphere blocks share variable ids {sorted(overlap)}"
            )
        seen.update(block.variable_ids)


def normal_form(p: Polynomial, blocks: Sequence[SphereBlock]) -> Polynomial:
    """Canonical representative of ``p`` modulo the block relations.

    Blocks must be pairwise variable-disjoint, so one elimination pass per
    block suffices: reducing one block never disturbs exponents of another.
    The result is zero iff ``p`` lies in the ideal generated by the block
    relations.
    """
    check_blocks_disjoint(blocks)
    out = p
    for block in blocks:
        out = _reduce_one_block(out, block)
    return out


def _reduce_one_block(p: Polynomial, block: SphereBlock) -> Polynomial:
    start = FIELD * block.eliminated
    if not any((m >> start) & _MASK >= 2 for m in p.terms):
        return p
    # The substitute and its powers have integer coefficients (``den`` 1),
    # so every rewritten term stays over ``p.den``.
    substitute = block.substitute_polynomial(p.registry)
    sub_powers = [Polynomial.one(p.registry)]
    # ``v_last**2`` as a key: two in the eliminated field and two in the degree.
    square = (2 << p.registry.shift) + (2 << start)

    def rewritten():
        for m, coeff in p.terms.items():
            half = ((m >> start) & _MASK) // 2
            if not half:
                yield m, coeff
                continue
            while len(sub_powers) <= half:
                sub_powers.append(sub_powers[-1] * substitute)
            base = m - half * square
            for sub_m, sub_coeff in sub_powers[half].terms.items():
                yield base + sub_m, coeff * sub_coeff

    return Polynomial(p.registry, rewritten(), p.den)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _coefficient_to_str(coeff: int, den: int) -> str:
    """The coefficient ``coeff / den`` as the string of its ``Fraction``."""
    g = gcd(coeff, den)
    return f"{coeff // g}/{den // g}"


def _fraction_from_str(text: str) -> Fraction:
    if type(text) is not str:  # a JSON number would enter as a float's binary value
        raise ValueError(f"serialized coefficients must be strings: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None


def polynomial_to_obj(p: Polynomial) -> list:
    """The parsed canonical text :func:`polynomial_to_json`: the term list,
    each term a coefficient string plus sparse ``[variable-id, exponent]``
    pairs sorted by variable id."""
    return json.loads(polynomial_to_json(p))


def polynomial_from_obj(obj: Sequence, registry: VarRegistry) -> Polynomial:
    """The inverse of :func:`polynomial_to_obj`.  A coefficient that is no
    string or has a zero denominator, an id or exponent that is no JSON
    integer, a monomial that lists a variable twice and one whose degree
    reaches ``DEGREE_LIMIT`` raise ``ValueError``."""

    def term(item: Mapping) -> tuple:
        coeff = _fraction_from_str(item["c"])
        exps = [0] * registry.size
        for var_id, e in item["m"]:
            if type(var_id) is not int or type(e) is not int:
                raise ValueError(f"serialized ids and exponents must be integers: {[var_id, e]}")
            if not 0 <= var_id < registry.size:
                raise UnknownVariableError(f"no variable with id {var_id}")
            if e <= 0:
                raise ValueError("serialized exponents must be positive")
            if exps[var_id]:
                raise ValueError(f"a monomial lists variable {var_id} twice")
            exps[var_id] = e
        if sum(exps) >= DEGREE_LIMIT:
            raise ValueError(f"a monomial's degree must be below {DEGREE_LIMIT} (2**{FIELD})")
        return pack(exps, registry), coeff

    pairs = [term(item) for item in obj]
    den = lcm(*[c.denominator for _, c in pairs])
    return Polynomial(registry, [(m, c.numerator * (den // c.denominator)) for m, c in pairs], den)


def polynomial_to_json(p: Polynomial, cache: Optional[dict] = None) -> str:
    """The canonical text of ``p``, the one encoder of the serialized form:
    ``[{"c":"n/d","m":[[i,e],...]},...]`` in canonical term order, with no
    whitespace, written straight from the monomial keys.

    A monomial's ``"m"`` list is joined from the text of each nonzero
    ``_WORD``-bit word of its key (``_WORD // FIELD`` exponent fields),
    kept in ``cache`` under the word's position and bits and written on a
    miss: pass one dict to the calls for several polynomials to share it
    (:func:`~regmaps.ratmap.map_to_json` does, for a map's).  Zero words are
    skipped a run at a time, by the lowest set bit as :func:`_factors` skips
    zero fields, so a long key costs the shifts of its nonzero words only."""
    cache = {} if cache is None else cache
    low, den = p.registry.low, p.den
    # Over the denominator 1 a coefficient's text is ``n/1``, with no gcd.
    coefficient = "%d/1".__mod__ if den == 1 else partial(_coefficient_to_str, den=den)
    terms = []
    for m, coeff in p.terms.items():
        fields = m & low
        text = ""
        word = 0
        while fields:
            bits = fields & _WORD_MASK
            if not bits:
                skip = ((fields & -fields).bit_length() - 1) // _WORD  # zero words below
                fields >>= _WORD * skip
                word += skip
                bits = fields & _WORD_MASK
            key = (word, bits)
            piece = cache.get(key)
            if piece is None:
                first = word * (_WORD // FIELD)  # the id of the word's lowest field
                piece = cache[key] = ",".join(map("[%d,%d]".__mod__, _factors(bits, first)))
            text = f"{text},{piece}" if text else piece
            fields >>= _WORD
            word += 1
        terms.append('{"c":"%s","m":[%s]}' % (coefficient(coeff), text))
    return "[" + ",".join(terms) + "]"


def polynomial_from_json(text: str, registry: VarRegistry) -> Polynomial:
    return polynomial_from_obj(json.loads(text), registry)
