"""Reference model of a polynomial for the tests: a dict from exponent tuple
to nonzero ``Fraction``, with the textbook operations on it.  The package
stores integer coefficients over one denominator per polynomial, keyed by
packed monomials that :func:`~regmaps.polynomial.exponents` reads; the tests
check its arithmetic, normal forms, values and serialized form against the
plain ``Fraction`` forms here."""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from regmaps.polynomial import Polynomial, VarRegistry, exponents

Reference = Dict[Tuple[int, ...], Fraction]


def from_polynomial(p: Polynomial) -> Reference:
    """The coefficients of ``p`` as ``Fraction``s."""
    return {exponents(m, p.registry): Fraction(c, p.den) for m, c in p.terms.items()}


def to_polynomial(registry: VarRegistry, ref: Reference) -> Polynomial:
    """``ref`` built through the ``Fraction`` edge of the package: each
    coefficient a ``Fraction`` scalar times its monomial."""
    monomials = (
        coeff * _monomial(registry, exps) for exps, coeff in ref.items()
    )
    return Polynomial.sum(registry, monomials)


def _monomial(registry: VarRegistry, exps: Tuple[int, ...]) -> Polynomial:
    out = Polynomial.one(registry)
    for var_id, e in enumerate(exps):
        out = out * Polynomial.variable(registry, var_id) ** e
    return out


def _cleaned(ref: Reference) -> Reference:
    return {e: c for e, c in ref.items() if c}


def add(a: Reference, b: Reference) -> Reference:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _cleaned(out)


def neg(a: Reference) -> Reference:
    return {e: -c for e, c in a.items()}


def sub(a: Reference, b: Reference) -> Reference:
    return add(a, neg(b))


def mul(a: Reference, b: Reference) -> Reference:
    out: Reference = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _cleaned(out)


def power(a: Reference, exponent: int, size: int) -> Reference:
    out: Reference = {(0,) * size: Fraction(1)}
    for _ in range(exponent):
        out = mul(out, a)
    return out


def differentiate(a: Reference, var_id: int) -> Reference:
    out: Reference = {}
    for e, c in a.items():
        if e[var_id]:
            lowered = e[:var_id] + (e[var_id] - 1,) + e[var_id + 1 :]
            out[lowered] = c * e[var_id]
    return out


def evaluate(a: Reference, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for value, k in zip(point, e):
            term *= Fraction(value) ** k
        total += term
    return total


def normal_form(a: Reference, blocks: Sequence[Sequence[int]]) -> Reference:
    """``a`` with ``v_last**2`` rewritten as ``1 - v_1**2 - ... - v_(m-1)**2``
    for each block ``(v_1, ..., v_last)``, one term at a time, until no term
    has ``v_last`` squared."""
    out = dict(a)
    for block in blocks:
        last = block[-1]
        while True:
            exps = next((e for e in out if e[last] >= 2), None)
            if exps is None:
                break
            coeff = out.pop(exps)
            lowered = exps[:last] + (exps[last] - 2,) + exps[last + 1 :]
            rewrite: Reference = {lowered: coeff}
            for v in block[:-1]:
                e = list(lowered)
                e[v] += 2
                rewrite[tuple(e)] = -coeff
            out = add(out, rewrite)
    return out


def to_obj(a: Reference) -> list:
    """The serialized form: terms highest first in graded reverse
    lexicographic order, each its ``numerator/denominator`` string and its
    sparse ``[variable id, exponent]`` pairs."""
    def grevlex(exps):
        return (sum(exps), [-x for x in reversed(exps)])

    return [
        {"c": f"{a[e].numerator}/{a[e].denominator}", "m": [[i, k] for i, k in enumerate(e) if k]}
        for e in sorted(a, key=grevlex, reverse=True)
    ]
