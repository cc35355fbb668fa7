"""Exact sparse multivariate polynomial arithmetic over the rationals.

Data model
----------
* Coefficients are ``fractions.Fraction`` (exact rationals).
* Variables live in a :class:`VarRegistry`, an immutable ordered list of
  names.  A variable is referred to by its integer id (its position).
* A monomial is a dense exponent tuple, one entry per registry slot.
* A :class:`Polynomial` is a mapping monomial -> coefficient with no zero
  coefficients, kept in a canonical graded-reverse-lexicographic order
  (highest first) so that equal polynomials have identical iteration
  order and identical serialized bytes.
* The constructor is the one place where terms combine: it takes a mapping
  or an iterable of ``(exponents, coefficient)`` pairs, adds repeated
  monomials, drops zeros and sorts once.  :meth:`Polynomial.sum` adds many
  polynomials in one such pass instead of a quadratic chain of ``+``.
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
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, neg
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union


class RegistryMismatchError(ValueError):
    """Raised when operands were built over different variable registries."""


class UnknownVariableError(ValueError):
    """Raised when a variable id or name is not present in a registry."""


class MissingAssignmentError(ValueError):
    """Raised when evaluation is attempted without a value for some variable."""


class OverlappingBlocksError(ValueError):
    """Raised when sphere blocks given to a normal-form pass share variables."""


class VarRegistry:
    """Immutable ordered collection of variable names.

    The id of a variable is its index in ``names``.  Registries compare by
    value so two independently built registries with the same names are
    interchangeable.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            repeated = sorted(name for name, count in Counter(names).items() if count > 1)
            raise ValueError(f"duplicate variable names in registry: {repeated}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("VarRegistry is immutable")

    @property
    def size(self) -> int:
        return len(self.names)

    def name(self, var_id: int) -> str:
        if not 0 <= var_id < len(self.names):
            raise UnknownVariableError(f"no variable with id {var_id}")
        return self.names[var_id]

    def id(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"no variable named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarRegistry({list(self.names)!r})"


def _grevlex_key(exponents: tuple) -> tuple:
    # Sorting descending by this key yields graded reverse-lexicographic
    # order, highest term first.
    return (sum(exponents), tuple(map(neg, reversed(exponents))))


class Polynomial:
    """Sparse polynomial with exact coefficients in canonical term order."""

    __slots__ = ("registry", "terms", "_plan")

    def __init__(self, registry: VarRegistry, terms: Union[Mapping, Iterable[tuple]]):
        """``terms`` is a mapping or an iterable of ``(exponents, coefficient)``
        pairs.  Repeated monomials are added, zero coefficients dropped and
        the result put in canonical order: every sum of terms is made here."""
        combined: dict = {}
        for exps, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            prev = combined.get(exps)
            combined[exps] = coeff if prev is None else prev + coeff
        nonzero = (exps for exps, coeff in combined.items() if coeff != 0)
        ordered = sorted(nonzero, key=_grevlex_key, reverse=True)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "terms", {exps: combined[exps] for exps in ordered})

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(registry: VarRegistry) -> "Polynomial":
        return Polynomial(registry, {})

    @staticmethod
    def constant(registry: VarRegistry, value: Union[int, Fraction]) -> "Polynomial":
        return Polynomial(registry, {(0,) * registry.size: Fraction(value)})

    @staticmethod
    def variable(registry: VarRegistry, var: Union[int, str]) -> "Polynomial":
        var_id = registry.id(var) if isinstance(var, str) else var
        if not 0 <= var_id < registry.size:
            raise UnknownVariableError(f"no variable with id {var_id}")
        exps = tuple(1 if i == var_id else 0 for i in range(registry.size))
        return Polynomial(registry, {exps: Fraction(1)})

    @staticmethod
    def one(registry: VarRegistry) -> "Polynomial":
        return Polynomial.constant(registry, 1)

    @staticmethod
    def sum(registry: VarRegistry, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``polys``, all over ``registry``, built in one pass."""
        checked = (_check_registry(registry, p).terms.items() for p in polys)
        return Polynomial(registry, chain.from_iterable(checked))

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest monomial degree; the zero polynomial has degree 0.  Terms
        are graded, highest first, so it is the degree of the first term."""
        return sum(next(iter(self.terms), ()))

    def variables_used(self) -> tuple:
        return self._scalars()[0]

    def _scalars(self) -> tuple:
        """The evaluation plan ``(variables_used, L, D, powers, terms)``,
        built in one pass over the terms on first use and kept.

        ``L`` is the lcm of the coefficient denominators and ``D`` the total
        degree.  ``powers`` lists each distinct variable power ``x**e`` of
        the terms once, as ``(k, e)`` with ``k`` the position of ``x`` in
        ``variables_used``.  ``terms`` holds one ``(c * L / den, monomial,
        D - deg)`` triple per term: its coefficient scaled to an integer,
        its monomial as the indices of its factors in ``powers`` and the
        power of the shared denominator that homogenizes it to degree ``D``.
        """
        try:
            return self._plan
        except AttributeError:
            pass
        coeff_lcm = lcm(*[c.denominator for c in self.terms.values()])
        degree = self.total_degree()
        index: dict = {}
        terms = []
        for exps, coeff in self.terms.items():
            mono = tuple(index.setdefault(pair, len(index)) for pair in enumerate(exps) if pair[1])
            scaled = coeff.numerator * (coeff_lcm // coeff.denominator)
            terms.append((scaled, mono, degree - sum(exps)))
        used = tuple(sorted({i for i, _ in index}))
        position = {i: k for k, i in enumerate(used)}
        powers = tuple((position[i], e) for i, e in index)
        plan = (used, coeff_lcm, degree, powers, tuple(terms))
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
        other = _check_registry(self.registry, self._coerce(other))
        negated = ((e, -c) for e, c in other.terms.items())
        return Polynomial(self.registry, chain(self.terms.items(), negated))

    def __rsub__(self, other: object) -> "Polynomial":
        return self._coerce(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.registry, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.registry, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_registry(self.registry, other)
        products = (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return Polynomial(self.registry, products)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.one(self.registry)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _coerce(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.registry, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.registry, tuple(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: Union[int, str]) -> "Polynomial":
        var_id = self.registry.id(var) if isinstance(var, str) else var
        if not 0 <= var_id < self.registry.size:
            raise UnknownVariableError(f"no variable with id {var_id}")
        derivatives = (
            (exps[:var_id] + (exps[var_id] - 1,) + exps[var_id + 1 :], coeff * exps[var_id])
            for exps, coeff in self.terms.items()
            if exps[var_id]
        )
        return Polynomial(self.registry, derivatives)

    # -- evaluation ----------------------------------------------------------

    def _assignment_vector(self, point: object, used: tuple) -> list:
        """The values that ``point``, a mapping or a sequence, assigns to the
        ids in ``used``: ``None`` where it assigns none."""
        if isinstance(point, Mapping):
            return [point.get(i) for i in used]
        vals = list(point)
        return [vals[i] if i < len(vals) else None for i in used]

    def evaluate(self, point: object) -> Fraction:
        """Exact evaluation at rational coordinates.

        ``point`` is either a sequence indexed by variable id or a mapping
        from variable id to value; values are ``Fraction`` or ``int`` (any
        other value is read through ``Fraction``).  Only the used variables
        are read, straight from a list or tuple that covers them.  Their
        values are written over one shared denominator (see
        :func:`scale_point`) and the integer core of :meth:`scaled_numerator`
        does the rest, over its positive factor, reduced once.
        """
        used = self._scalars()[0]
        if isinstance(point, (list, tuple)) and (not used or len(point) > used[-1]):
            values = [point[i] for i in used]
        else:
            values = self._assignment_vector(point, used)
        for k, v in enumerate(values):
            if not isinstance(v, (Fraction, int)):
                if v is None:
                    missing = (i for i, value in zip(used, values) if value is None)
                    names = ", ".join(self.registry.name(i) for i in missing)
                    raise MissingAssignmentError(f"no value assigned to: {names}")
                values[k] = Fraction(v)
        q, nums = scale_point(values)
        return Fraction(*self._integer_value(nums, q))

    def scaled_numerator(self, nums: Sequence[int], q: int) -> int:
        """The integer ``L * q**D`` times the value at the point ``nums[i] / q``
        (``nums`` indexed by variable id, ``q > 0``, as a point is sampled and
        kept), with ``L`` the lcm of the coefficient denominators and ``D``
        the total degree.  The factor is positive, so this integer is zero
        exactly where the value is and has its sign: a zero test or a sign
        test builds no ``Fraction``."""
        return self._integer_value([nums[i] for i in self._scalars()[0]], q)[0]

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
        for exps, coeff in self.terms.items():
            factors = [
                self.registry.name(i) + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{body}")
        return "Polynomial(" + " + ".join(parts) + ")"


def scale_point(values: Sequence[Union[int, Fraction]]) -> tuple:
    """``(q, nums)``: the point ``values`` written as ``nums[i] / q`` with
    ``q`` the lcm of the denominators and every ``nums[i]`` an integer."""
    dens = [v.denominator for v in values]
    q = lcm(*dens)
    return q, [v.numerator * (q // d) for v, d in zip(values, dens)]


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

    def moved(exps: tuple) -> tuple:
        out = [0] * new_registry.size
        for i, e in enumerate(exps):
            if e:
                out[var_map[i]] += e
        return tuple(out)

    return Polynomial(new_registry, ((moved(e), c) for e, c in p.terms.items()))


class ComplexPair(NamedTuple):
    """The complex quantity ``re + i*im`` as the pair of its real and
    imaginary parts, over any exact ring: polynomials in real variables
    (over one registry) or ``int``/``Fraction`` scalars.

    Pairs combine with pairs and with ``int`` or ``Fraction`` operands,
    which enter as ``(value, 0)``: on either side of ``+``, ``-`` and
    ``*``, and as the divisor of ``/``.  A real polynomial ``p`` enters as
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
    def sum(registry: VarRegistry, pairs: Iterable["ComplexPair"]) -> "ComplexPair":
        """The sum of polynomial ``pairs``, all over ``registry``: one sum per part."""
        pairs = list(pairs)
        return ComplexPair(
            Polynomial.sum(registry, (z.re for z in pairs)),
            Polynomial.sum(registry, (z.im for z in pairs)),
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
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ComplexPair(self.re * 0 + 1, self.im * 0)  # one, in the parts' ring
        for _ in range(exponent):
            result = result * self
        return result

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
        squares = (Polynomial.variable(registry, v) ** 2 for v in self.variable_ids)
        return Polynomial.sum(registry, squares) - 1

    def substitute_polynomial(self, registry: VarRegistry) -> Polynomial:
        """`1 - v1^2 - ... - v(m-1)^2`, the replacement for `v_last^2`."""
        squares = (Polynomial.variable(registry, v) ** 2 for v in self.variable_ids[:-1])
        return 1 - Polynomial.sum(registry, squares)


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
    target = block.eliminated
    if not any(exps[target] >= 2 for exps in p.terms):
        return p
    substitute = block.substitute_polynomial(p.registry)
    sub_powers = [Polynomial.one(p.registry)]

    def rewritten():
        for exps, coeff in p.terms.items():
            e = exps[target]
            if e < 2:
                yield exps, coeff
                continue
            while len(sub_powers) <= e // 2:
                sub_powers.append(sub_powers[-1] * substitute)
            base = exps[:target] + (e % 2,) + exps[target + 1 :]
            for sub_exps, sub_coeff in sub_powers[e // 2].terms.items():
                yield tuple(map(add, base, sub_exps)), coeff * sub_coeff

    return Polynomial(p.registry, rewritten())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str) -> Fraction:
    if type(text) is not str:  # a JSON number would enter as a float's binary value
        raise ValueError(f"serialized coefficients must be strings: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None


def polynomial_to_obj(p: Polynomial) -> list:
    """JSON-ready form: canonical term list, each term a coefficient string
    plus sparse `[variable-id, exponent]` pairs sorted by variable id."""
    out = []
    for exps, coeff in p.terms.items():
        mono = [[i, e] for i, e in enumerate(exps) if e]
        out.append({"c": _fraction_to_str(coeff), "m": mono})
    return out


def polynomial_from_obj(obj: Sequence, registry: VarRegistry) -> Polynomial:
    """The inverse of :func:`polynomial_to_obj`.  A coefficient that is no
    string or has a zero denominator, an id or exponent that is no JSON
    integer, and a monomial that lists a variable twice raise ``ValueError``."""

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
        return tuple(exps), coeff

    return Polynomial(registry, (term(item) for item in obj))


def polynomial_to_json(p: Polynomial) -> str:
    return json.dumps(polynomial_to_obj(p), separators=(",", ":"))


def polynomial_from_json(text: str, registry: VarRegistry) -> Polynomial:
    return polynomial_from_obj(json.loads(text), registry)
