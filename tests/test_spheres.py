"""The explicit sphere maps: charts, rational addition, doubling, powers."""

import math
from fractions import Fraction

import pytest

from regmaps.polynomial import Polynomial
from regmaps.ratmap import (
    RationalMap,
    compose,
    denominator_check,
    equal_mod,
    equal_symbolic,
    identity_map,
    maps_into,
    pair_map,
)
from regmaps.spheres import (
    antipodal,
    basepoint,
    chart_sum_identity_residual,
    circle_power,
    circle_rotation,
    meridian_chart,
    oplus,
    oplus_via_charts,
    phi_double,
    phi_double_via_chart,
    pointwise_oplus,
    reflect,
    sphere_identity,
    stereo,
    stereo_inv,
)
from regmaps.varieties import (
    PointOnVariety,
    euclidean,
    sample_point,
    sample_points,
    sphere,
    sphere_product,
)


def product_point(a, b):
    v = sphere_product(a.variety.ambient_dim - 1)
    return PointOnVariety(v, a.coords + b.coords)


def minus_e(n):
    return PointOnVariety(sphere(n), [-1] + [0] * n)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def test_stereo_chart_values():
    assert stereo(1).evaluate(PointOnVariety(sphere(1), [0, 1])).coords == (1,)
    one = PointOnVariety(euclidean(1), [1])
    assert stereo_inv(1).evaluate(one).coords == (0, 1)
    origin = PointOnVariety(euclidean(2), [0, 0])
    assert stereo_inv(2).evaluate(origin).coords == (1, 0, 0)


def test_stereo_inv_never_hits_the_antipode():
    for pt in sample_points(euclidean(2), 40, seed=9):
        img = stereo_inv(2).evaluate(pt)
        assert img.coords != minus_e(2).coords


def test_chart_denominators_and_exclusions():
    assert stereo(3).excluded
    assert denominator_check(stereo_inv(2), samples=50, seed=3).passed
    # 1 + x1 stays positive (if tiny) at exact points approaching the antipode
    t = Fraction(10 ** 6)  # chart parameter far out -> image near -e
    near = stereo_inv(1).evaluate(PointOnVariety(euclidean(1), [t]))
    value = stereo(1).denominator.evaluate(near.coords)
    assert 0 < value < Fraction(1, 10 ** 6)


# ---------------------------------------------------------------------------
# rational addition
# ---------------------------------------------------------------------------


def test_oplus_lands_on_the_sphere_symbolically():
    for n in (1, 2, 3):
        report = maps_into(oplus(n))
        assert report.passed and report.method == "symbolic", f"n={n}"


def test_chart_sum_identity_reduces_to_zero():
    for n in (1, 2, 3, 4):
        assert chart_sum_identity_residual(n).is_zero(), f"n={n}"


def test_oplus_denominator_closed_form():
    for n in (1, 2, 3):
        m = oplus(n)
        reg = m.domain.registry
        x = [Polynomial.variable(reg, i) for i in range(n + 1)]
        y = [Polynomial.variable(reg, n + 1 + i) for i in range(n + 1)]
        one = Polynomial.one(reg)
        inner = x[0] * y[0] - sum(
            (x[j] * y[j] for j in range(1, n + 1)), Polynomial.zero(reg)
        )
        expected = (one + x[0]) * (one + y[0]) + 2 * (one - inner)
        assert m.denominator == expected, f"n={n}"


def test_oplus_denominator_positive_on_ten_thousand_pairs():
    report = denominator_check(oplus(1), samples=10_000, seed=0)
    assert report.passed
    assert report.evidence["samples"] == 10_000


def test_oplus_closed_form_matches_chart_composition():
    for n in (1, 2):
        assert equal_mod(oplus(n), oplus_via_charts(n), trials=20, seed=1).passed
        assert equal_symbolic(oplus(n), oplus_via_charts(n)).passed


def test_oplus_hand_checked_value():
    north = PointOnVariety(sphere(1), [0, 1])
    out = oplus(1).evaluate(product_point(north, north))
    assert out.coords == (Fraction(-3, 5), Fraction(4, 5))


def test_oplus_commutative():
    n = 2
    m = oplus(n)
    reg = m.domain.registry
    k = n + 1
    swap_nums = [Polynomial.variable(reg, (i + k) % (2 * k)) for i in range(2 * k)]
    swap = RationalMap(m.domain, m.domain, swap_nums, Polynomial.one(reg))
    assert equal_symbolic(m, compose(m, swap)).passed


def test_oplus_neutral_element():
    e = basepoint(2)
    for b in sample_points(sphere(2), 50, seed=17):
        assert oplus(2).evaluate(product_point(e, b)).coords == b.coords
        assert oplus(2).evaluate(product_point(b, e)).coords == b.coords


def test_oplus_absorbing_antipode():
    bottom = minus_e(2)
    for a in sample_points(sphere(2), 50, seed=18):
        out = oplus(2).evaluate(product_point(a, bottom))
        assert out.coords == bottom.coords
        out = oplus(2).evaluate(product_point(bottom, a))
        assert out.coords == bottom.coords


def test_oplus_excluded_only_at_the_double_antipode():
    from regmaps.ratmap import ExcludedLocusError

    both = product_point(minus_e(1), minus_e(1))
    with pytest.raises(ExcludedLocusError):
        oplus(1).evaluate(both)


# ---------------------------------------------------------------------------
# reflections and the antipodal map
# ---------------------------------------------------------------------------


def test_reflect_fixes_base_point_and_involutes():
    for n, j in [(1, 2), (2, 2), (2, 3)]:
        r = reflect(n, j)
        assert r.evaluate(basepoint(n)).coords == basepoint(n).coords
        assert equal_symbolic(compose(r, r), sphere_identity(n)).passed


def test_reflect_rejects_the_axis_through_e():
    with pytest.raises(ValueError):
        reflect(2, 1)
    with pytest.raises(ValueError):
        reflect(2, 4)


def test_antipodal_negates():
    pt = sample_point(sphere(3), seed=2)
    img = antipodal(3).evaluate(pt)
    assert img.coords == tuple(-c for c in pt.coords)


# ---------------------------------------------------------------------------
# the doubling map
# ---------------------------------------------------------------------------


def test_phi_double_fixed_points_and_equator():
    for k in (1, 2, 3):
        phi = phi_double(k)
        assert phi.evaluate(basepoint(k)).coords == basepoint(k).coords
        assert phi.evaluate(minus_e(k)).coords == basepoint(k).coords
    equator = PointOnVariety(sphere(2), [0, Fraction(3, 5), Fraction(4, 5)])
    assert phi_double(2).evaluate(equator).coords == minus_e(2).coords


def test_phi_double_factors_through_antipodes():
    for k in (1, 2, 3):
        phi = phi_double(k)
        assert equal_symbolic(phi, compose(phi, antipodal(k))).passed


def test_phi_double_agrees_with_its_chart_route():
    for k in (1, 2):
        assert phi_double_via_chart(k) == phi_double(k)
    # the meridian chart itself has a sign-indefinite denominator by design
    assert not denominator_check(meridian_chart(2), samples=40, seed=5).passed


def test_phi_double_is_angle_doubling_on_the_circle():
    phi = phi_double(1)
    for i in range(100):
        theta = 2 * math.pi * i / 100 + 0.01
        # the rational point of the circle at the angle 2 atan(t), t the
        # float nearest tan(theta / 2): theta up to rounding
        t = Fraction(math.tan(theta / 2))
        point = [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]
        out = [float(v) for v in phi.evaluate_raw(point)]
        assert abs(out[0] - math.cos(2 * theta)) < 1e-12
        assert abs(out[1] - math.sin(2 * theta)) < 1e-12


# ---------------------------------------------------------------------------
# circle powers and rotations
# ---------------------------------------------------------------------------


def test_circle_power_small_cases():
    assert circle_power(1) == sphere_identity(1)
    assert equal_mod(circle_power(2), phi_double(1), trials=20).passed
    z = PointOnVariety(sphere(1), [Fraction(3, 5), Fraction(4, 5)])
    assert circle_power(3).evaluate(z).coords == (
        Fraction(-117, 125),
        Fraction(44, 125),
    )


def test_circle_power_negative_is_conjugate_power():
    z = PointOnVariety(sphere(1), [Fraction(3, 5), Fraction(4, 5)])
    plus = circle_power(2).evaluate(z).coords
    minus = circle_power(-2).evaluate(z).coords
    assert minus == (plus[0], -plus[1])
    assert circle_power(0).evaluate(z).coords == (1, 0)


def test_circle_rotation_is_exact_multiplication():
    rot = circle_rotation(Fraction(3, 5), Fraction(4, 5))
    out = rot.evaluate(PointOnVariety(sphere(1), [1, 0]))
    assert out.coords == (Fraction(3, 5), Fraction(4, 5))
    with pytest.raises(ValueError):
        circle_rotation(Fraction(1), Fraction(1))


def test_pointwise_oplus_matches_two_step_evaluation():
    f = circle_power(2)
    g = compose(circle_rotation(Fraction(3, 5), Fraction(4, 5)), circle_power(3))
    added = pointwise_oplus(f, g)
    for pt in sample_points(sphere(1), 30, seed=20):
        expected = oplus(1).evaluate(product_point(f.evaluate(pt), g.evaluate(pt)))
        assert added.evaluate(pt).coords == expected.coords


def test_dimension_guards():
    with pytest.raises(ValueError):
        stereo(0)
    with pytest.raises(ValueError):
        oplus(0)
    with pytest.raises(ValueError):
        phi_double(0)
