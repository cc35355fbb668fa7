"""The sphere-map catalog: stereographic charts, rational addition,
reflections, the angle-doubling family, and circle powers.

All constructors are cached and return canonically normalized
:class:`~regmaps.ratmap.RationalMap` objects.  Every cached constructor
verifies its output once on first use: the image must satisfy the
codomain relations (proved symbolically whenever the domain reduces to
sphere blocks) and the denominator is sign-checked at sampled points.

Conventions: on ``S^n`` the basepoint is ``e = (1, 0, ..., 0)`` and the
stereographic chart is taken from the antipode ``-e``, so ``stereo`` is
defined away from ``x1 = -1`` and sends ``e`` to the origin.

The rational addition ``oplus`` realizes, in coordinates, "add the
stereographic images and map back":

    first coordinate   (1+x1)(1+y1) - 2 + 2*x1*y1 - 2*sum_{j>=2} x_j y_j
    j-th (j >= 2)      2*x_j*(1+y1) + 2*y_j*(1+x1)
    denominator D      (1+x1)(1+y1) + 2 - 2*x1*y1 + 2*sum_{j>=2} x_j y_j

Writing ``rho`` for the reflection that negates every coordinate but the
first, ``D = (1+x1)(1+y1) + 2(1 - <x, rho(y)>)`` is a sum of two
nonnegative terms on the sphere product and vanishes only at
``x = y = -e``, the single excluded pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .polynomial import ComplexPair, Polynomial, normal_form
from .ratmap import RationalMap, compose, coordinate_map, identity_map, pair_map, verified
from .varieties import PointOnVariety, euclidean, sphere, sphere_product

# Construction-check sampling: (samples, seed, height).  Every domain here
# reduces to sphere blocks, where codomain membership is a symbolic proof,
# so only the denominator-sign check samples.
_CHECK = (12, 17, 20)


@lru_cache(maxsize=None)
def stereo(n: int) -> RationalMap:
    """Stereographic chart S^n -> R^n from the antipode of the basepoint."""
    if n < 1:
        raise ValueError("need n >= 1")
    dom = sphere(n)
    reg = dom.registry
    nums = [Polynomial.variable(reg, i) for i in range(1, n + 1)]
    den = Polynomial.one(reg) + Polynomial.variable(reg, 0)
    return verified(
        RationalMap(dom, euclidean(n), nums, den, excluded="x1 = -1", label=f"stereo_{n}"),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def stereo_inv(n: int) -> RationalMap:
    """Inverse stereographic parametrization R^n -> S^n (misses only -e)."""
    if n < 1:
        raise ValueError("need n >= 1")
    dom = euclidean(n)
    reg = dom.registry
    xs = [Polynomial.variable(reg, i) for i in range(n)]
    norm = Polynomial.dot(reg, xs, xs)
    den = Polynomial.one(reg) + norm
    nums = [Polynomial.one(reg) - norm]
    nums += [2 * Polynomial.variable(reg, i) for i in range(n)]
    return verified(
        RationalMap(dom, sphere(n), nums, den, excluded="", label=f"stereo_inv_{n}"),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def oplus(n: int) -> RationalMap:
    """Rational addition S^n x S^n -> S^n (closed form)."""
    if n < 1:
        raise ValueError("need n >= 1")
    dom = sphere_product(n)
    reg = dom.registry
    m = n + 1
    x = [Polynomial.variable(reg, i) for i in range(m)]
    y = [Polynomial.variable(reg, m + i) for i in range(m)]
    one = Polynomial.one(reg)
    cross = Polynomial.dot(reg, x[1:], y[1:])
    product_term = (one + x[0]) * (one + y[0])
    den = product_term + 2 * one - 2 * x[0] * y[0] + 2 * cross
    nums = [product_term - 2 * one + 2 * x[0] * y[0] - 2 * cross]
    for j in range(1, m):
        nums.append(2 * x[j] * (one + y[0]) + 2 * y[j] * (one + x[0]))
    return verified(
        RationalMap(
            dom,
            sphere(n),
            nums,
            den,
            excluded="x = y = -e (both antipodes of the basepoint)",
            label=f"oplus_{n}",
        ),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def factor_projection(n: int, which: int) -> RationalMap:
    """Projection S^n x S^n -> S^n onto factor 1 or 2."""
    if which not in (1, 2):
        raise ValueError("factor index must be 1 or 2")
    offset = 0 if which == 1 else n + 1
    picks = [(offset + i, 1) for i in range(n + 1)]
    return verified(
        coordinate_map(sphere_product(n), sphere(n), picks, f"proj{which}_{n}"), *_CHECK
    )


def _euclidean_sum(f: RationalMap, g: RationalMap) -> RationalMap:
    """Pointwise vector sum of two maps into the same euclidean space."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError("summands must share domain and codomain")
    nums = [
        nf * g.denominator + ng * f.denominator
        for nf, ng in zip(f.numerators, g.numerators)
    ]
    den = f.denominator * g.denominator
    excluded = "; ".join(s for s in (f.excluded, g.excluded) if s)
    return RationalMap(
        f.domain,
        f.codomain,
        nums,
        den,
        excluded,
        label=f"{f._describe()} + {g._describe()}",
    )


@lru_cache(maxsize=None)
def oplus_via_charts(n: int) -> RationalMap:
    """Rational addition assembled the long way: chart each factor, add the
    images in R^n, and map back through the inverse chart.  Used as the
    independent route for cross-checking the closed form."""
    left = compose(stereo(n), factor_projection(n, 1))
    right = compose(stereo(n), factor_projection(n, 2))
    return verified(compose(stereo_inv(n), _euclidean_sum(left, right)), *_CHECK)


def chart_sum_identity_residual(n: int) -> Polynomial:
    """Normal form of the defining identity behind the addition formula.

    With ``u_i = x_{i+1}(1+y1) + y_{i+1}(1+x1)`` (the numerators of the
    summed chart images over the common denominator ``(1+x1)(1+y1)``),
    the squared norm of the chart sum satisfies

        sum_i u_i^2 == (2 - 2*x1*y1 + 2*sum_{j>=2} x_j y_j) * (1+x1)(1+y1)

    on the sphere product.  Returns the normal form of LHS - RHS, which
    is the zero polynomial exactly when the identity holds.
    """
    dom = sphere_product(n)
    reg = dom.registry
    m = n + 1
    x = [Polynomial.variable(reg, i) for i in range(m)]
    y = [Polynomial.variable(reg, m + i) for i in range(m)]
    one = Polynomial.one(reg)
    u = [x[j] * (one + y[0]) + y[j] * (one + x[0]) for j in range(1, m)]
    lhs = Polynomial.dot(reg, u, u)
    cross = Polynomial.dot(reg, x[1:], y[1:])
    rhs = (2 * one - 2 * x[0] * y[0] + 2 * cross) * (one + x[0]) * (one + y[0])
    return normal_form(lhs - rhs, dom.blocks)


@lru_cache(maxsize=None)
def reflect(n: int, j: int) -> RationalMap:
    """Reflection of S^n negating the j-th coordinate (1-based).

    The first coordinate is off limits: reflecting it would move the base
    point e, and every use of these reflections needs e fixed.
    """
    if not 2 <= j <= n + 1:
        raise ValueError(f"coordinate index must be in 2..{n + 1}")
    picks = [(i, -1 if i == j - 1 else 1) for i in range(n + 1)]
    return verified(coordinate_map(sphere(n), sphere(n), picks, f"reflect_{n}_{j}"), *_CHECK)


@lru_cache(maxsize=None)
def antipodal(n: int) -> RationalMap:
    picks = [(i, -1) for i in range(n + 1)]
    return verified(coordinate_map(sphere(n), sphere(n), picks, f"antipodal_{n}"), *_CHECK)


@lru_cache(maxsize=None)
def sphere_identity(n: int) -> RationalMap:
    return verified(identity_map(sphere(n)), *_CHECK)


@lru_cache(maxsize=None)
def basepoint(n: int) -> PointOnVariety:
    """The basepoint e = (1, 0, ..., 0) of S^n."""
    coords = [Fraction(1)] + [Fraction(0)] * n
    return PointOnVariety(sphere(n), coords)


@lru_cache(maxsize=None)
def phi_double(k: int) -> RationalMap:
    """The polynomial self-map of S^k that doubles along meridians:

        (x1, ..., x_{k+1})  |->  (2*x1^2 - 1, 2*x1*x2, ..., 2*x1*x_{k+1})

    It fixes the basepoint, sends the whole equator ``x1 = 0`` to ``-e``,
    and restricts on every great circle through ``e`` to angle doubling;
    on S^1 it is exactly the square of the unit complex number."""
    if k < 1:
        raise ValueError("need k >= 1")
    dom = sphere(k)
    reg = dom.registry
    x1 = Polynomial.variable(reg, 0)
    nums = [2 * x1 * x1 - Polynomial.one(reg)]
    nums += [2 * x1 * Polynomial.variable(reg, i) for i in range(1, k + 1)]
    return verified(
        RationalMap(dom, dom, nums, Polynomial.one(reg), label=f"phi_double_{k}"),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def meridian_chart(k: int) -> RationalMap:
    """Affine chart S^k -> R^k given by ratios against the first coordinate."""
    dom = sphere(k)
    reg = dom.registry
    nums = [Polynomial.variable(reg, i) for i in range(1, k + 1)]
    den = Polynomial.variable(reg, 0)
    return RationalMap(
        dom, euclidean(k), nums, den, excluded="x1 = 0", label=f"meridian_chart_{k}"
    )


@lru_cache(maxsize=None)
def phi_double_via_chart(k: int) -> RationalMap:
    """Angle doubling assembled as inverse-chart-after-chart; reduces to the
    same canonical form as :func:`phi_double`."""
    return verified(compose(stereo_inv(k), meridian_chart(k)), *_CHECK)


@lru_cache(maxsize=None)
def circle_power(d: int) -> RationalMap:
    """The circle self-map z -> z^d (z = x1 + i*x2); negative d conjugates."""
    dom = sphere(1)
    reg = dom.registry
    z = ComplexPair(Polynomial.variable(reg, 0), Polynomial.variable(reg, 1))
    re, im = (z if d >= 0 else z.conjugate()) ** abs(d)
    return verified(
        RationalMap(dom, dom, [re, im], Polynomial.one(reg), label=f"circle_power_{d}"),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def circle_rotation(cos_value: Fraction, sin_value: Fraction) -> RationalMap:
    """Exact rotation of S^1 by a rational point (c, s) on the circle."""
    c, s = Fraction(cos_value), Fraction(sin_value)
    if c * c + s * s != 1:
        raise ValueError("rotation parameters must satisfy c^2 + s^2 = 1")
    dom = sphere(1)
    reg = dom.registry
    x1 = Polynomial.variable(reg, 0)
    x2 = Polynomial.variable(reg, 1)
    nums = [c * x1 - s * x2, s * x1 + c * x2]
    return verified(
        RationalMap(dom, dom, nums, Polynomial.one(reg), label=f"rotation_{c}_{s}"),
        *_CHECK,
    )


def pointwise_oplus(f: RationalMap, g: RationalMap) -> RationalMap:
    """The map x -> f(x) (+) g(x), for f, g into a common sphere."""
    paired = pair_map(f, g)
    n = f.codomain.ambient_dim - 1
    return compose(oplus(n), paired)
