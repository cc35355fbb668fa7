"""Numerical invariants: winding numbers, Monte Carlo degree, regularity."""

import time
from fractions import Fraction

import numpy as np
import pytest

from regmaps.groups import fiber_points, first_column, j_map, jmap_rotation, section_so
from regmaps.linalg import integer_determinant
from regmaps.polynomial import Polynomial
from regmaps.ratmap import RationalMap, compose, constant_map, identity_map
from regmaps.spheres import (
    antipodal,
    basepoint,
    circle_power,
    circle_rotation,
    phi_double,
    pointwise_oplus,
    reflect,
    sphere_identity,
)
from regmaps.topology import (
    LAPLACE_MAX_DIM,
    _batch_det,
    _batch_eval,
    _degree_integrand,
    _map_terms,
    check_codim_pair,
    degree_mc,
    radon_hurwitz,
    regular_value_probe,
    winding,
)
from regmaps.varieties import sample_points, special_orthogonal, sphere


ROT = circle_rotation(Fraction(3, 5), Fraction(4, 5))


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


X1, X2 = (Polynomial.variable(sphere(1).registry, i) for i in range(2))
ONE = Polynomial.one(sphere(1).registry)


def _circle_map(numerators, denominator=ONE):
    return RationalMap(sphere(1), sphere(1), numerators, denominator)


def test_winding_basic_values():
    assert winding(sphere_identity(1)) == 1
    assert winding(constant_map(sphere(1), basepoint(1))) == 0
    assert winding(phi_double(1)) == 2
    # the image need not lie on the circle, only avoid the origin
    assert winding(_circle_map([2 * X1, 2 * X2])) == 1


def test_winding_of_powers():
    for d in range(-3, 4):
        assert winding(circle_power(d)) == d, f"d={d}"


def test_winding_flips_under_reflection():
    mirror = reflect(1, 2)
    for d in range(-3, 4):
        assert winding(compose(circle_power(d), mirror)) == -d, f"d={d}"
    assert winding(compose(mirror, circle_power(3))) == -3


def test_winding_ignores_rotation_offsets():
    assert winding(compose(ROT, circle_power(2))) == 2
    assert winding(compose(circle_power(2), ROT)) == 2
    # sends the pole (-1, 0) to (0, 1), where P vanishes: the Ind(P/Q) branch
    assert winding(circle_rotation(Fraction(0), Fraction(-1))) == 1


def test_winding_needs_a_denominator_that_never_vanishes_on_the_circle():
    vanishing_at_basepoint = _circle_map([X1 * (ONE - X1), X2 * (ONE - X1)], ONE - X1)
    vanishing_at_pole = _circle_map([X1 * (ONE + X1), X2 * (ONE + X1)], ONE + X1)
    for f in (vanishing_at_basepoint, vanishing_at_pole):
        with pytest.raises(ZeroDivisionError):
            winding(f)


def test_winding_needs_an_image_that_avoids_the_origin():
    through_origin_at_the_top = _circle_map([X1, 0 * X1])
    through_origin_at_the_pole = _circle_map([ONE + X1, X2])
    for f in (through_origin_at_the_top, through_origin_at_the_pole):
        with pytest.raises(ValueError, match="origin"):
            winding(f)


def test_winding_additive_under_pointwise_addition():
    # the two summands never hit the antipode simultaneously thanks to the
    # rotation offset, so the pointwise sum is defined on all of the circle
    added = pointwise_oplus(circle_power(1), compose(ROT, circle_power(2)))
    assert winding(added) == 3
    added = pointwise_oplus(circle_power(2), compose(ROT, circle_power(3)))
    assert winding(added) == 5


# ---------------------------------------------------------------------------
# Monte Carlo mapping degree
# ---------------------------------------------------------------------------


def test_degree_of_identity_and_antipodal_maps():
    est = degree_mc(sphere_identity(2), samples=4000, seed=1)
    assert est.conclusive and est.rounded == 1
    est = degree_mc(antipodal(2), samples=4000, seed=1)
    assert est.conclusive and est.rounded == -1
    est = degree_mc(antipodal(3), samples=4000, seed=1)
    assert est.conclusive and est.rounded == 1


def test_degree_sign_flips_under_reflection():
    est = degree_mc(reflect(2, 2), samples=4000, seed=2)
    assert est.conclusive and est.rounded == -1
    est = degree_mc(compose(reflect(2, 2), antipodal(2)), samples=4000, seed=2)
    assert est.conclusive and est.rounded == 1


def test_degree_of_the_doubling_map_small_run():
    est = degree_mc(phi_double(3), samples=10_000, seed=0)
    assert est.conclusive
    assert est.rounded == 2
    assert abs(est.estimate - est.rounded) <= est.half_width


def test_degree_estimate_is_deterministic():
    a = degree_mc(phi_double(3), samples=3000, seed=7)
    b = degree_mc(phi_double(3), samples=3000, seed=7)
    assert a == b
    c = degree_mc(phi_double(3), samples=3000, seed=8)
    assert a.estimate != c.estimate


def test_degree_reports_inconclusive_when_starved():
    est = degree_mc(phi_double(3), samples=4, seed=5)
    assert not est.conclusive
    assert est.half_width >= 0.5


def test_degree_estimate_report_shape():
    est = degree_mc(sphere_identity(2), samples=500, seed=3)
    d = est.to_dict()
    for key in ("estimate", "rounded", "half_width", "samples", "seed", "resampled"):
        assert key in d
    assert d["samples"] == 500 and d["seed"] == 3


def test_degree_rejects_non_self_maps():
    from regmaps.spheres import stereo

    with pytest.raises(ValueError):
        degree_mc(stereo(2), samples=100, seed=0)
    with pytest.raises(ValueError):
        degree_mc(sphere_identity(2), samples=1, seed=0)


def test_degree_rejects_seeds_outside_the_stream_key_range():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            degree_mc(phi_double(3), samples=100, seed=seed)
    # the largest key is its own stream, no longer an alias of seed -1
    top = degree_mc(phi_double(3), samples=100, seed=2**64 - 1)
    assert top.seed == 2**64 - 1
    assert top.estimate != degree_mc(phi_double(3), samples=100, seed=0).estimate


KERNEL_DIMS = range(1, LAPLACE_MAX_DIM + 2)  # the expansion, then LAPACK


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_batch_determinant_agrees_with_lapack(dim):
    stack = np.random.default_rng(dim).standard_normal((dim, dim, 2000))
    reference = np.linalg.det(stack.transpose(2, 0, 1))
    row_norms = np.prod(np.linalg.norm(stack, axis=1), axis=0)  # Hadamard's bound
    assert np.all(np.abs(_batch_det(stack) - reference) <= 1e-12 * row_norms)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_batch_determinant_of_permutation_matrices_is_their_sign(dim):
    rng = np.random.default_rng(dim)
    perms = [rng.permutation(dim) for _ in range(500)]
    stack = np.zeros((dim, dim, len(perms)))
    for b, perm in enumerate(perms):
        stack[np.arange(dim), perm, b] = 1.0
    inversions = [sum(p[i] > p[j] for i in range(dim) for j in range(i + 1, dim)) for p in perms]
    assert np.array_equal(_batch_det(stack), [(-1.0) ** n for n in inversions])


@pytest.mark.parametrize("dim", range(2, LAPLACE_MAX_DIM + 1))
def test_the_expansion_is_exact_on_small_integers(dim):
    # pivoted LAPACK elimination rounds; the expansion only adds and multiplies
    rng = np.random.default_rng(dim)
    stack = rng.integers(-9, 10, size=(dim, dim, 300)).astype(float)
    exact = [integer_determinant(stack[:, :, b].astype(int).tolist()) for b in range(300)]
    assert np.array_equal(_batch_det(stack), exact)
    stack[-1] = stack[0]  # a repeated row
    assert np.all(_batch_det(stack) == 0)


def _oriented_frame(v, completion):
    """Orthonormal basis B of the tangent space at v with det[v | B] > 0."""
    q, _ = np.linalg.qr(np.column_stack([v, completion]))
    frame = q[:, 1:]
    if np.linalg.det(np.column_stack([v, frame])) < 0:
        frame[:, -1] *= -1
    return frame


def _frame_integrand(f, points):
    """det(B_f^T J B_x) straight from the definition, one point at a time."""
    dim = points.shape[1]
    num_partials = [[p.differentiate(j) for j in range(dim)] for p in f.numerators]
    den_partials = [f.denominator.differentiate(j) for j in range(dim)]
    completion = np.random.default_rng(99).standard_normal((dim, dim - 1))
    dets = []
    for x in points:
        den = float(f.denominator.evaluate(x))
        nums = [float(p.evaluate(x)) for p in f.numerators]
        dden = [float(d.evaluate(x)) for d in den_partials]
        jac = np.array([
            [(float(num_partials[i][j].evaluate(x)) * den - nums[i] * dden[j]) / den**2
             for j in range(dim)]
            for i in range(dim)
        ])
        image = np.array(nums) / den
        image /= np.linalg.norm(image)
        frame_x = _oriented_frame(x, completion)
        frame_f = _oriented_frame(image, completion)
        dets.append(np.linalg.det(frame_f.T @ jac @ frame_x))
    return np.array(dets)


@pytest.mark.parametrize(
    "f",
    [phi_double(2), phi_double(3), antipodal(4), reflect(3, 2), phi_double(7)],
    ids=["phi:2", "phi:3", "antipodal:4", "reflect:3:2", "phi:7"],
)
def test_frame_free_integrand_equals_the_tangent_frame_determinant(f):
    dim = f.domain.ambient_dim
    raw = np.random.default_rng(5).standard_normal((1000, dim))
    points = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    terms = _map_terms(f)
    cache = {}
    den = _batch_eval(terms.den, points, cache)
    fast = _degree_integrand(terms, points, den, cache)
    reference = _frame_integrand(f, points)
    assert np.max(np.abs(fast - reference)) <= 1e-10


# estimate, half_width and resampled as measured with explicit tangent frames
GOLDEN_RUNS = [
    (2, 0, -0.013088865499482261, 0.049229494920091856, 0),
    (2, 1, -0.011152785066281003, 0.04879627727402457, 0),
    (3, 0, 1.9823241219080745, 0.0422895532691579, 0),
    (3, 1, 1.9927365459084039, 0.04236432142701127, 0),
    (4, 0, -0.010686037473128516, 0.07410608606109013, 0),
    (4, 1, -0.03840900487312066, 0.07425097121880672, 0),
    (7, 0, 1.9774131712597385, 0.13489563236525645, 0),
    (7, 1, 1.9859895404267611, 0.13801285005962055, 0),
]


@pytest.mark.parametrize("k, seed, estimate, half_width, resampled", GOLDEN_RUNS)
def test_degree_matches_the_tangent_frame_golden_runs(k, seed, estimate, half_width, resampled):
    est = degree_mc(phi_double(k), samples=20_000, seed=seed)
    assert est.estimate == pytest.approx(estimate, rel=0, abs=1e-12)
    assert est.half_width == pytest.approx(half_width, rel=0, abs=1e-12)
    assert est.resampled == resampled


# ---------------------------------------------------------------------------
# regular values
# ---------------------------------------------------------------------------


def test_probe_identity_is_regular():
    report = regular_value_probe(sphere_identity(2), [basepoint(2)])
    assert report.passed
    assert report.evidence["required_rank"] == 2
    assert report.evidence["ranks"] == (2,)


def test_probe_constant_map_is_singular():
    report = regular_value_probe(
        constant_map(sphere(2), basepoint(2)), [basepoint(2)]
    )
    assert not report.evidence["all_regular"]
    assert report.evidence["ranks"] == (0,)


def test_probe_flags_points_off_the_fiber():
    report = regular_value_probe(
        sphere_identity(2), [basepoint(2)], value=antipodal(2).evaluate(basepoint(2))
    )
    assert not report.evidence["all_on_fiber"]
    assert not report.passed
    with pytest.raises(ValueError):
        regular_value_probe(sphere_identity(2), [])
    with pytest.raises(ValueError):
        regular_value_probe(sphere_identity(2), [basepoint(2)], value=basepoint(3))


def test_probe_ranks_on_the_rotation_groups():
    # det = 1 is no polynomial relation of SO(n); its gradient lies in the
    # span of the Gram gradients on O(n), so tangent and normal spaces, and
    # the ranks, are those the det polynomial gave
    points = sample_points(special_orthogonal(3), 4, seed=7, height=30)
    report = regular_value_probe(first_column(3), points)
    assert report.evidence["ranks"] == (2, 2, 2, 2)
    assert report.evidence["required_rank"] == 2
    report = regular_value_probe(section_so(3), [basepoint(2)])
    assert report.evidence["ranks"] == (2,)
    assert report.evidence["required_rank"] == 3


def test_probe_hopf_like_fiber():
    spec = jmap_rotation()
    g = j_map(spec)
    report = regular_value_probe(g, fiber_points(spec, 10, seed=3))
    assert report.passed
    assert report.evidence["required_rank"] == 2
    assert set(report.evidence["ranks"]) == {2}


# ---------------------------------------------------------------------------
# the power-of-two counting function
# ---------------------------------------------------------------------------


def brute_force_count(p):
    # independent recount straight from the definition
    good = {0, 1, 2, 4}
    return 2 ** len([i for i in range(1, p) if i % 8 in good])


def test_counting_function_agrees_with_brute_force():
    values = [radon_hurwitz(p).value for p in range(1, 10)]
    assert values == [1, 2, 4, 4, 8, 8, 8, 8, 16]
    for p in range(1, 41):
        assert radon_hurwitz(p).value == brute_force_count(p), f"p={p}"


def test_counting_function_monotone_and_doubling():
    for p in range(1, 40):
        a, b = radon_hurwitz(p).value, radon_hurwitz(p + 1).value
        if p % 8 in (0, 1, 2, 4):
            assert b == 2 * a, f"p={p}"
        else:
            assert b == a, f"p={p}"


def test_counting_function_rejects_nonpositive():
    with pytest.raises(ValueError):
        radon_hurwitz(0)


def test_codim_pair_congruence():
    report = check_codim_pair(1, 7)
    assert report.admissible
    assert report.modulus == 4
    assert not check_codim_pair(1, 6).admissible
    assert check_codim_pair(1, 3).admissible
    with pytest.raises(ValueError):
        check_codim_pair(1, 2)  # needs k > m + 1
    with pytest.raises(ValueError):
        check_codim_pair(0, 5)
