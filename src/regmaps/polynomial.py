"""Exact sparse multivariate polynomial arithmetic over the rationals.

Data model
----------
* Coefficients are ``fractions.Fraction`` (exact rationals) or
  :class:`GaussianRational` (exact complex rationals ``re + im*i``).
* Variables live in a :class:`VarRegistry`, an immutable ordered list of
  names.  A variable is referred to by its integer id (its position).
* A monomial is a dense exponent tuple, one entry per registry slot.
* A :class:`Polynomial` is a mapping monomial -> coefficient with no zero
  coefficients, kept in a canonical graded-reverse-lexicographic order
  (highest first) so that equal polynomials have identical iteration
  order and identical serialized bytes.

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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union


class RegistryMismatchError(ValueError):
    """Raised when operands were built over different variable registries."""


class UnknownVariableError(ValueError):
    """Raised when a variable id or name is not present in a registry."""


class MissingAssignmentError(ValueError):
    """Raised when evaluation is attempted without a value for some variable."""


class OverlappingBlocksError(ValueError):
    """Raised when sphere blocks given to a normal-form pass share variables."""


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

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


Scalar = Union[Fraction, GaussianRational]

GAUSSIAN_I = GaussianRational(Fraction(0), Fraction(1))


def _as_gaussian(value: object) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot interpret {value!r} as a GaussianRational")


def _scalar_is_zero(c: Scalar) -> bool:
    if isinstance(c, GaussianRational):
        return c.is_zero()
    return c == 0


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
            raise ValueError(f"duplicate variable names in registry: {names}")
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
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


class Polynomial:
    """Sparse polynomial with exact coefficients in canonical term order."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry, terms: Mapping[tuple, Scalar]):
        cleaned = {
            exps: coeff for exps, coeff in terms.items() if not _scalar_is_zero(coeff)
        }
        ordered = {
            exps: cleaned[exps]
            for exps in sorted(cleaned, key=_grevlex_key, reverse=True)
        }
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "terms", ordered)

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(registry: VarRegistry) -> "Polynomial":
        return Polynomial(registry, {})

    @staticmethod
    def constant(registry: VarRegistry, value: Union[int, Fraction, GaussianRational]) -> "Polynomial":
        if not isinstance(value, GaussianRational):
            value = Fraction(value)
        return Polynomial(registry, {(0,) * registry.size: value})

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

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Largest monomial degree; the zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def variables_used(self) -> tuple:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return tuple(sorted(used))

    def coefficient(self, exps: tuple) -> Scalar:
        return self.terms.get(tuple(exps), Fraction(0))

    def has_gaussian_coefficients(self) -> bool:
        return any(isinstance(c, GaussianRational) for c in self.terms.values())

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.terms.items())

    # -- ring operations --------------------------------------------------

    def _check_registry(self, other: "Polynomial") -> None:
        if self.registry != other.registry:
            raise RegistryMismatchError(
                f"operands use different registries: "
                f"{self.registry.names} vs {other.registry.names}"
            )

    def __add__(self, other: object) -> "Polynomial":
        other = self._coerce(other)
        self._check_registry(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + coeff
        return Polynomial(self.registry, acc)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: object) -> "Polynomial":
        return self._coerce(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.registry, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            if _scalar_is_zero(other if isinstance(other, GaussianRational) else Fraction(other)):
                return Polynomial.zero(self.registry)
            factor = other if isinstance(other, GaussianRational) else Fraction(other)
            return Polynomial(
                self.registry, {e: c * factor for e, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_registry(other)
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prev = acc.get(key)
                acc[key] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial(self.registry, acc)

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
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(self.registry, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.registry, tuple(self.terms.items())))

    def map_coefficients(self, fn: Callable[[Scalar], Scalar]) -> "Polynomial":
        return Polynomial(self.registry, {e: fn(c) for e, c in self.terms.items()})

    def conjugate_coefficients(self) -> "Polynomial":
        """Complex-conjugate every coefficient (variables stay untouched)."""
        return self.map_coefficients(
            lambda c: c.conjugate() if isinstance(c, GaussianRational) else c
        )

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: Union[int, str]) -> "Polynomial":
        var_id = self.registry.id(var) if isinstance(var, str) else var
        if not 0 <= var_id < self.registry.size:
            raise UnknownVariableError(f"no variable with id {var_id}")
        acc: dict = {}
        for exps, coeff in self.terms.items():
            e = exps[var_id]
            if e == 0:
                continue
            key = exps[:var_id] + (e - 1,) + exps[var_id + 1 :]
            acc[key] = acc.get(key, Fraction(0)) + coeff * e
        return Polynomial(self.registry, acc)

    # -- evaluation ----------------------------------------------------------

    def _assignment_vector(self, point: object) -> list:
        """Resolve ``point`` to a list indexed by var id, checking coverage."""
        n = self.registry.size
        used = self.variables_used()
        if isinstance(point, Mapping):
            vals = [None] * n
            for var_id, value in point.items():
                vals[var_id] = value
        else:
            vals = list(point)
            if len(vals) < n:
                vals = vals + [None] * (n - len(vals))
        missing = [i for i in used if i >= len(vals) or vals[i] is None]
        if missing:
            names = ", ".join(self.registry.name(i) for i in missing)
            raise MissingAssignmentError(f"no value assigned to: {names}")
        return vals

    def evaluate(self, point: object) -> Scalar:
        """Exact evaluation at rational (or Gaussian-rational) coordinates.

        ``point`` is either a sequence indexed by variable id or a mapping
        from variable id to value.  For all-rational input an integer
        common-denominator path avoids per-operation gcd work.
        """
        vals = self._assignment_vector(point)
        used = self.variables_used()
        if not self.terms:
            return Fraction(0)
        gaussian = self.has_gaussian_coefficients() or any(
            isinstance(vals[i], GaussianRational) for i in used
        )
        if gaussian:
            return self._evaluate_generic(vals, used)
        return self._evaluate_rational(vals, used)

    def _evaluate_generic(self, vals: list, used: tuple) -> Scalar:
        powers: dict = {}
        total: Scalar = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for i in used:
                e = exps[i]
                if e == 0:
                    continue
                key = (i, e)
                p = powers.get(key)
                if p is None:
                    p = vals[i] ** e if not isinstance(vals[i], GaussianRational) else _gaussian_pow(vals[i], e)
                    powers[key] = p
                if _scalar_is_zero(p):
                    term = None
                    break
                term = term * p
            if term is not None:
                total = total + term
        return total

    def _evaluate_rational(self, vals: list, used: tuple) -> Fraction:
        # Common-denominator integer evaluation: write each value as
        # p_i / q with one shared q, each coefficient as c*L with one
        # shared L, and homogenize monomials to the maximal degree D so
        # the whole sum is a single integer divided by L * q**D.
        fracs = {i: Fraction(vals[i]) for i in used}
        q = 1
        for f in fracs.values():
            q = q * f.denominator // gcd(q, f.denominator)
        nums = {i: f.numerator * (q // f.denominator) for i, f in fracs.items()}
        coeff_lcm = 1
        for c in self.terms.values():
            coeff_lcm = coeff_lcm * c.denominator // gcd(coeff_lcm, c.denominator)
        degree = max(sum(e) for e in self.terms)
        powers: dict = {}
        qpow = [1] * (degree + 1)
        for k in range(1, degree + 1):
            qpow[k] = qpow[k - 1] * q
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff.numerator * (coeff_lcm // coeff.denominator)
            mono_degree = 0
            for i in used:
                e = exps[i]
                if e == 0:
                    continue
                mono_degree += e
                key = (i, e)
                p = powers.get(key)
                if p is None:
                    p = nums[i] ** e
                    powers[key] = p
                if p == 0:
                    term = 0
                    break
                term *= p
            if term:
                total += term * qpow[degree - mono_degree]
        return Fraction(total, coeff_lcm * qpow[degree])

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Floating-point evaluation, traversing terms in canonical order."""
        vals = self._assignment_vector(point)
        used = self.variables_used()
        powers: dict = {}
        total = 0.0
        for exps, coeff in self.terms.items():
            term = float(coeff) if not isinstance(coeff, GaussianRational) else complex(coeff)
            for i in used:
                e = exps[i]
                if e == 0:
                    continue
                key = (i, e)
                p = powers.get(key)
                if p is None:
                    p = float(vals[i]) ** e
                    powers[key] = p
                term = term * p
            total += term
        return total

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


def _gaussian_pow(base: GaussianRational, exponent: int) -> GaussianRational:
    result = GaussianRational.of(1)
    b = base
    e = exponent
    while e:
        if e & 1:
            result = result * b
        b = b * b if e > 1 else b
        e >>= 1
    return result


def transport_polynomial(
    p: Polynomial, new_registry: VarRegistry, var_map: Sequence[int]
) -> Polynomial:
    """Rewrite ``p`` over ``new_registry``, sending old variable id ``i``
    to new id ``var_map[i]``."""
    terms: dict = {}
    for exps, coeff in p.terms.items():
        out = [0] * new_registry.size
        for i, e in enumerate(exps):
            if e:
                out[var_map[i]] += e
        key = tuple(out)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(new_registry, terms)


def real_imag_parts(p: Polynomial) -> tuple:
    """Split a Gaussian-coefficient polynomial over real variables into
    its real and imaginary parts (two rational-coefficient polynomials)."""
    re_terms: dict = {}
    im_terms: dict = {}
    for exps, coeff in p.terms.items():
        if isinstance(coeff, GaussianRational):
            if coeff.re:
                re_terms[exps] = coeff.re
            if coeff.im:
                im_terms[exps] = coeff.im
        else:
            re_terms[exps] = coeff
    return (
        Polynomial(p.registry, re_terms),
        Polynomial(p.registry, im_terms),
    )


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
        acc = Polynomial.constant(registry, -1)
        for v in self.variable_ids:
            acc = acc + Polynomial.variable(registry, v) ** 2
        return acc

    def substitute_polynomial(self, registry: VarRegistry) -> Polynomial:
        """`1 - v1^2 - ... - v(m-1)^2`, the replacement for `v_last^2`."""
        acc = Polynomial.one(registry)
        for v in self.variable_ids[:-1]:
            acc = acc - Polynomial.variable(registry, v) ** 2
        return acc


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
    needs_work = any(exps[target] >= 2 for exps in p.terms)
    if not needs_work:
        return p
    substitute = block.substitute_polynomial(p.registry)
    sub_powers: dict = {0: Polynomial.one(p.registry)}

    def sub_power(k: int) -> Polynomial:
        if k not in sub_powers:
            sub_powers[k] = sub_power(k - 1) * substitute
        return sub_powers[k]

    acc = Polynomial.zero(p.registry)
    plain: dict = {}
    for exps, coeff in p.terms.items():
        e = exps[target]
        if e < 2:
            plain[exps] = plain.get(exps, Fraction(0)) + coeff
            continue
        reduced_exps = exps[:target] + (e % 2,) + exps[target + 1 :]
        base = Polynomial(p.registry, {reduced_exps: coeff})
        acc = acc + base * sub_power(e // 2)
    return acc + Polynomial(p.registry, plain)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str) -> Fraction:
    return Fraction(text)


def polynomial_to_obj(p: Polynomial) -> list:
    """JSON-ready form: canonical term list, each term a coefficient string
    plus sparse `[variable-id, exponent]` pairs sorted by variable id."""
    if p.has_gaussian_coefficients():
        raise TypeError("serialize real and imaginary parts separately")
    out = []
    for exps, coeff in p.terms.items():
        mono = [[i, e] for i, e in enumerate(exps) if e]
        out.append({"c": _fraction_to_str(coeff), "m": mono})
    return out


def polynomial_from_obj(obj: Sequence, registry: VarRegistry) -> Polynomial:
    terms: dict = {}
    for item in obj:
        coeff = _fraction_from_str(item["c"])
        exps = [0] * registry.size
        for pair in item["m"]:
            var_id, e = int(pair[0]), int(pair[1])
            if not 0 <= var_id < registry.size:
                raise UnknownVariableError(f"no variable with id {var_id}")
            if e <= 0:
                raise ValueError("serialized exponents must be positive")
            exps[var_id] = e
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(registry, terms)


def polynomial_to_json(p: Polynomial) -> str:
    return json.dumps(polynomial_to_obj(p), separators=(",", ":"))


def polynomial_from_json(text: str, registry: VarRegistry) -> Polynomial:
    return polynomial_from_obj(json.loads(text), registry)
