"""Rational maps: composition, evaluation, verification, serialization."""

import random
from fractions import Fraction

import pytest

from regmaps.polynomial import Polynomial, VarRegistry
from regmaps.ratmap import (
    CodomainViolationError,
    ExcludedLocusError,
    MatrixMap,
    RationalMap,
    VarietyMismatchError,
    Verdict,
    ZeroDenominatorError,
    _scaled_image,
    compose,
    constant_map,
    coordinate_map,
    denominator_check,
    equal_mod,
    equal_symbolic,
    identity_map,
    identity_matrix_map,
    map_from_json,
    map_to_json,
    maps_into,
    matrix_multiply,
    matrix_transpose,
    pair_map,
    variety_by_name,
    verified,
)
from regmaps.spheres import (
    antipodal,
    basepoint,
    circle_power,
    phi_double,
    reflect,
    stereo,
    stereo_inv,
)
from regmaps.varieties import (
    PointOnVariety,
    euclidean,
    sample_point,
    sample_points,
    special_orthogonal,
    sphere,
    sphere_product,
)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_with_identity_is_structural_noop():
    f = phi_double(2)
    assert compose(f, identity_map(sphere(2))) == f
    assert compose(identity_map(sphere(2)), f) == f


def test_stereo_round_trips():
    # chart then inverse: identity away from the antipode of the base point
    for n in (1, 2, 3):
        back = compose(stereo_inv(n), stereo(n))
        assert equal_symbolic(back, identity_map(sphere(n))).passed
        there = compose(stereo(n), stereo_inv(n))
        assert equal_mod(there, identity_map(euclidean(n)), trials=25, seed=2).passed


def test_compose_is_associative_up_to_equality():
    f, g, h = phi_double(2), reflect(2, 2), antipodal(2)
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert equal_symbolic(left, right).passed
    a, b, c = circle_power(2), reflect(1, 2), circle_power(3)
    assert equal_mod(
        compose(compose(a, b), c), compose(a, compose(b, c)), trials=30, seed=5
    ).passed


def test_composition_commutes_with_evaluation():
    pairs = [
        (phi_double(2), reflect(2, 2)),
        (stereo(2), stereo_inv(2)),
        (circle_power(2), circle_power(3)),
    ]
    for outer, inner in pairs:
        both = compose(outer, inner)
        for pt in sample_points(inner.domain, 100, seed=21):
            assert both.evaluate(pt) == outer.evaluate(inner.evaluate(pt))


def test_compose_rejects_mismatched_varieties():
    with pytest.raises(VarietyMismatchError):
        compose(phi_double(2), circle_power(2))


def test_compose_label_records_the_chain():
    m = compose(phi_double(1), circle_power(2))
    assert "phi_double_1" in m.label and "circle_power_2" in m.label


# ---------------------------------------------------------------------------
# evaluation and excluded loci
# ---------------------------------------------------------------------------


def test_evaluate_basics():
    e = basepoint(2)
    origin = stereo(2).evaluate(e)
    assert origin.coords == (Fraction(0), Fraction(0))
    assert [float(v) for v in stereo(2).evaluate_raw([1.0, 0.0, 0.0])] == [0.0, 0.0]


def test_stereo_worked_example():
    p = PointOnVariety(sphere(2), [Fraction(-3, 5), Fraction(4, 5), 0])
    img = stereo(2).evaluate(p)
    assert img.coords == (Fraction(2), Fraction(0))
    assert stereo_inv(2).evaluate(img).coords == p.coords


def test_excluded_locus_raises_with_note():
    minus_e = PointOnVariety(sphere(2), [-1, 0, 0])
    with pytest.raises(ExcludedLocusError) as err:
        stereo(2).evaluate(minus_e)
    assert "x1 = -1" in str(err.value)


def test_codomain_violation_is_reported_as_bug():
    reg = sphere(1).registry
    bogus = RationalMap(
        sphere(1),
        sphere(1),
        [Polynomial.variable(reg, 0), Polynomial.variable(reg, 0)],
        Polynomial.one(reg),
    )
    ok_point = PointOnVariety(sphere(1), [Fraction(3, 5), Fraction(4, 5)])
    with pytest.raises(CodomainViolationError):
        bogus.evaluate(ok_point)


def test_zero_denominator_rejected_at_construction():
    reg = sphere(1).registry
    vanishing = (
        Polynomial.variable(reg, 0) ** 2 + Polynomial.variable(reg, 1) ** 2
        - Polynomial.one(reg)
    )
    with pytest.raises(ZeroDenominatorError):
        RationalMap(sphere(1), euclidean(1), [Polynomial.one(reg)], vanishing)


def test_float_evaluation_tracks_exact_images():
    rng = random.Random(33)
    m = phi_double(2)
    for pt in sample_points(sphere(2), 30, seed=44, height=50):
        exact = m.evaluate(pt)
        approx = [float(v) for v in m.evaluate_raw([float(c) for c in pt.coords])]
        for a, b in zip(approx, exact.coords):
            assert abs(a - float(b)) < 1e-9


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def test_maps_into_symbolic_on_sphere_domains():
    report = maps_into(stereo_inv(2))
    assert report.passed and report.method == "symbolic"


def test_maps_into_sampling_on_group_domains():
    from regmaps.groups import first_column

    report = maps_into(first_column(3), samples=10, seed=1, height=40)
    assert report.passed and report.method == "sampling"
    assert report.evidence["checked"] == 10


def test_maps_into_fails_symbolically_with_relation_index():
    reg = euclidean(1).registry
    t = Polynomial.variable(reg, 0)
    off_sphere = RationalMap(
        euclidean(1), sphere(1), [t, Polynomial.zero(reg)], Polynomial.one(reg)
    )
    report = maps_into(off_sphere, samples=12, seed=0)
    assert not report.passed
    assert report.method == "symbolic"
    assert report.evidence["failed_relation"] == 0


def test_maps_into_fails_by_sampling_with_witness():
    reg = special_orthogonal(2).registry
    g11 = Polynomial.variable(reg, 0)
    off_sphere = RationalMap(
        special_orthogonal(2),
        sphere(1),
        [g11, Polynomial.zero(reg)],
        Polynomial.one(reg),
    )
    report = maps_into(off_sphere, samples=12, seed=0)
    assert not report.passed
    assert report.method == "sampling"
    assert report.witness is not None


def test_sampled_images_keep_the_sign_of_a_negative_denominator():
    # On SO(2) the denominator g11 takes both signs.  Where it is nonzero the
    # image (g11, g21) lies on S^1 and (2 g11, g21) does not; the sampled
    # check reads each image over |g11|, the sign moved into the numerators.
    so2 = special_orthogonal(2)
    reg = so2.registry
    g11, g21 = Polynomial.variable(reg, 0), Polynomial.variable(reg, 2)
    on = RationalMap(so2, sphere(1), [g11 * g11, g11 * g21], g11)
    off = RationalMap(so2, sphere(1), [2 * g11 * g11, g11 * g21], g11)
    assert maps_into(on, samples=30, seed=4, height=20).passed
    report = maps_into(off, samples=30, seed=4, height=20)
    assert not report.passed and report.evidence == {"checked": 1, "failed_relation": 0}
    assert denominator_check(on, samples=30, seed=4, height=20).evidence["negatives"] > 0
    for point in sample_points(so2, 30, seed=4, height=20):
        nums, den = on.values(point.coords)
        if not den:
            continue
        q, ints = _scaled_image(nums, den)
        assert q > 0 and [Fraction(n, q) for n in ints] == [Fraction(n, den) for n in nums]
        assert on.evaluate(point).coords == tuple(on.evaluate_raw(point.coords))


def test_denominator_check_positive_and_negative_cases():
    good = denominator_check(stereo(2), samples=60, seed=7)
    assert good.passed and good.evidence["samples"] == 60

    reg = sphere(1).registry
    signed = RationalMap(
        sphere(1),
        euclidean(1),
        [Polynomial.one(reg)],
        Polynomial.variable(reg, 0),
        excluded="x1 = 0 meridian",
    )
    bad = denominator_check(signed, samples=60, seed=7)
    assert not bad.passed
    assert bad.evidence["negatives"] > 0
    assert bad.witness is not None


def test_denominator_check_reports_are_golden():
    # Sign-indefinite denominators on one- and two-block sphere domains; the
    # counts and witnesses were recorded before the exact audit (sampler,
    # point check, evaluation) moved to integer arithmetic.
    reg = sphere(2).registry
    x1, x2, x3 = (Polynomial.variable(reg, i) for i in range(3))
    on_sphere = RationalMap(
        sphere(2), euclidean(1), [Polynomial.one(reg)], x1 + Fraction(1, 2) * x2 * x3
    )
    preg = sphere_product(1).registry
    y = [Polynomial.variable(preg, i) for i in range(4)]
    on_product = RationalMap(
        sphere_product(1), euclidean(1), [Polynomial.one(preg)],
        y[0] * y[3] - Fraction(1, 3) * y[1],
    )
    meridian = RationalMap(sphere(2), euclidean(1), [Polynomial.one(reg)], x1)
    cases = [
        (denominator_check(on_sphere, samples=200, seed=3), {
            "method": "sampling", "samples": 200, "zeros": 0, "negatives": 167,
            "witness": ["-395079601/399531729", "-58990696/399531729", "7603232/399531729"],
        }),
        (denominator_check(on_product, samples=200, seed=5), {
            "method": "sampling", "samples": 200, "zeros": 0, "negatives": 108,
            "witness": ["696687/701105", "-78584/701105", "-415521/816929", "-703360/816929"],
        }),
        (denominator_check(meridian, samples=200, seed=1, height=4), {
            "method": "sampling", "samples": 200, "zeros": 5, "negatives": 166,
            "witness": ["-1/33", "8/33", "-32/33"],
        }),
    ]
    for report, expected in cases:
        assert not report.passed
        assert report.info == expected


def test_verified_checks_the_codomain_then_the_denominator_signs():
    assert verified(stereo(2), 12, 17, 20) is stereo(2)

    reg = euclidean(1).registry
    off_sphere = RationalMap(
        euclidean(1), sphere(1), [Polynomial.variable(reg, 0), Polynomial.zero(reg)],
        Polynomial.one(reg),
    )
    with pytest.raises(AssertionError, match="failed codomain check"):
        verified(off_sphere, 12, 17, 20)

    reg = sphere(1).registry
    signed = RationalMap(
        sphere(1), euclidean(1), [Polynomial.one(reg)], Polynomial.variable(reg, 0)
    )
    with pytest.raises(AssertionError, match="sign-indefinite denominator"):
        verified(signed, 12, 17, 20)


def test_equal_mod_distinguishes_maps_and_reports_witness():
    same = equal_mod(
        compose(reflect(2, 2), reflect(2, 2)), identity_map(sphere(2)), trials=20
    )
    assert same.passed and same.method == "sampling"
    diff = equal_mod(circle_power(2), circle_power(3), trials=20, seed=3)
    assert not diff.passed
    assert diff.witness is not None
    # the recorded witness genuinely separates the two maps
    w = PointOnVariety(sphere(1), diff.witness)
    assert circle_power(2).evaluate(w) != circle_power(3).evaluate(w)


def test_equal_mod_gives_up_when_every_draw_hits_the_excluded_locus():
    # At height 1 the circle sampler draws only (0, -1), (0, 1) and (1, 0),
    # all on the zero set of x1 * x2.
    reg = sphere(1).registry
    x1, x2 = Polynomial.variable(reg, 0), Polynomial.variable(reg, 1)
    f = RationalMap(sphere(1), euclidean(1), [Polynomial.one(reg)], x1 * x2)
    with pytest.raises(ExcludedLocusError, match="vanishing denominators"):
        equal_mod(f, f, trials=3, height=1)



@pytest.mark.parametrize("count", [0, -1])
def test_sampled_verdicts_need_at_least_one_point(count):
    from regmaps.groups import retract_so

    r3 = retract_so(3)
    with pytest.raises(ValueError, match="need at least one sample point"):
        maps_into(r3, samples=count)
    with pytest.raises(ValueError, match="need at least one sample point"):
        denominator_check(r3, samples=count)
    with pytest.raises(ValueError, match="need at least one sample point"):
        equal_mod(r3, r3, trials=count)

def test_a_verdict_states_one_of_four_methods():
    verdict = Verdict("sampling", False, {"trials": 2}, (Fraction(1, 2),), name="n")
    assert verdict.to_dict() == {
        "name": "n", "passed": False,
        "info": {"method": "sampling", "trials": 2, "witness": ["1/2"]},
    }
    with pytest.raises(ValueError, match="unknown verdict method"):
        Verdict("exact-sampling", True, {})


def test_equal_symbolic_requires_block_domain():
    with pytest.raises(ValueError):
        equal_symbolic(
            identity_map(special_orthogonal(2)), identity_map(special_orthogonal(2))
        )


# ---------------------------------------------------------------------------
# pair and matrix structure
# ---------------------------------------------------------------------------


def test_pair_map_evaluates_componentwise():
    f, g = circle_power(1), circle_power(2)
    fg = pair_map(f, g)
    assert fg.codomain == sphere_product(1)
    pt = sample_point(sphere(1), seed=12)
    img = fg.evaluate(pt)
    assert img.coords[:2] == f.evaluate(pt).coords
    assert img.coords[2:] == g.evaluate(pt).coords


def test_pair_map_requires_a_common_sphere_codomain():
    with pytest.raises(VarietyMismatchError):
        pair_map(circle_power(1), phi_double(2))
    with pytest.raises(VarietyMismatchError):
        pair_map(stereo(1), stereo(1))  # codomain is a plane, not a sphere


def test_matrix_map_reshapes_row_major():
    g = identity_matrix_map(special_orthogonal(2), 2)
    assert isinstance(g, MatrixMap)
    pt = sample_point(special_orthogonal(2), seed=4)
    m = g.evaluate_matrix(pt)
    assert m == [list(pt.coords[0:2]), list(pt.coords[2:4])]


def test_matrix_transpose_and_multiply_agree_with_linalg():
    from reference_linalg import mat_mul, transpose as tr
    from regmaps.linalg import identity as eye

    g = identity_matrix_map(special_orthogonal(3), 3)
    prod = matrix_multiply(matrix_transpose(g), g)
    for pt in sample_points(special_orthogonal(3), 10, seed=15, height=25):
        got = prod.evaluate_matrix(pt)
        raw = g.evaluate_matrix(pt)
        assert got == mat_mul(tr(raw), raw)
        assert got == eye(3)


def test_matrix_algebra_rejects_non_square_and_mismatched_shapes():
    group = special_orthogonal(2)
    column = coordinate_map(group, sphere(1), [(0, 1), (2, 1)], "column", (2, 1, False))
    square = identity_matrix_map(group, 2)
    with pytest.raises(VarietyMismatchError, match="non-square 2x1"):
        matrix_transpose(column)
    with pytest.raises(VarietyMismatchError, match="common codomain"):
        matrix_multiply(square, column)  # a 2x1 product, and S1 is not SO2
    with pytest.raises(VarietyMismatchError, match="cannot multiply 2x1 by 2x2"):
        matrix_multiply(column, square)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_map_json_round_trip_is_byte_stable():
    for m in [stereo(2), stereo_inv(3), phi_double(2), circle_power(-2)]:
        text = map_to_json(m)
        again = map_from_json(text)
        assert again == m
        assert map_to_json(again) == text


def test_matrix_map_round_trip_keeps_shape():
    from regmaps.groups import section_so

    s = section_so(3)
    again = map_from_json(map_to_json(s))
    assert isinstance(again, MatrixMap)
    assert (again.rows, again.cols) == (3, 3)
    assert again == s


def test_variety_by_name_covers_the_registry():
    for name, expected in [
        ("S2", sphere(2)),
        ("R3", euclidean(3)),
        ("S1xS1", sphere_product(1)),
        ("SO4", special_orthogonal(4)),
    ]:
        assert variety_by_name(name) is expected
    with pytest.raises(ValueError):
        variety_by_name("Spl7")


def test_constant_map_lands_on_its_value():
    c = constant_map(sphere(2), basepoint(2))
    pt = sample_point(sphere(2), seed=77)
    assert c.evaluate(pt).coords == (1, 0, 0)
