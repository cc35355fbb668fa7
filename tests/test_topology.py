"""Numerical invariants: winding numbers, Monte Carlo degree, regularity."""

import time
from fractions import Fraction

import numpy as np
import pytest

from regmaps import catalog
from regmaps.groups import (
    embed_special_unitary,
    fiber_points,
    first_column,
    j_map,
    jmap_rotation,
    section_so,
    su_retract,
)
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
    stereo,
    stereo_inv,
)
from regmaps.topology import (
    _bordered_pattern,
    _degree_integrand,
    _evaluate,
    _expansion_plan,
    _integrand_chunks,
    _lapack_det,
    _map_terms,
    _run_plan,
    _unit_columns,
    check_codim_pair,
    degree_mc,
    radon_hurwitz,
    regular_value_probe,
    winding,
)
from regmaps.varieties import (
    PointOnVariety,
    euclidean,
    sample_point,
    sample_points,
    special_orthogonal,
    special_unitary,
    sphere,
    unitary,
)


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


@pytest.mark.parametrize("dim", range(1, 13))
def test_unit_columns_are_the_normalized_rows_batch_last(dim):
    raw = np.random.default_rng(dim).standard_normal((3000, dim))
    reference = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).T
    columns = _unit_columns(raw)
    assert columns.flags.c_contiguous
    if dim < 8:  # numpy adds a short row left to right, as _unit_columns does
        assert np.array_equal(columns, reference)
    else:
        np.testing.assert_allclose(columns, reference, rtol=8 * np.finfo(float).eps, atol=0)


KERNEL_DIMS = range(1, 9)


def _plan_det(stack, pattern):
    """The plan's determinants of a batch-last stack, entries outside
    ``pattern`` taken as zero; constant rows of the stack enter as floats."""
    rows = []
    for entries, cols in zip(stack, pattern):
        row = {}
        for c in cols:
            entry = entries[c]
            row[c] = float(entry[0]) if np.all(entry == entry[0]) else entry
        rows.append(row)
    det = _run_plan(_expansion_plan(pattern, float("inf")), rows)
    return np.broadcast_to(det, stack.shape[-1:])


def _patterns(dim, rng):
    """A dense pattern, a random sparse one with a full transversal, and for
    dim >= 3 the pattern of phi_double(dim - 2)'s bordered matrix, an
    arrowhead with one dense row."""
    dense = [tuple(range(dim))] * dim
    shift = rng.permutation(dim)
    sparse = [
        tuple(sorted({int(shift[i])} | {c for c in range(dim) if rng.random() < 0.4}))
        for i in range(dim)
    ]
    out = [dense, sparse]
    if dim >= 3:
        out.append(_bordered_pattern(phi_double(dim - 2)))
    return out


def _masked(stack, pattern):
    out = np.zeros_like(stack)
    for r, cols in enumerate(pattern):
        out[r, list(cols)] = stack[r, list(cols)]
    return out


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_batch_determinant_agrees_with_lapack(dim):
    rng = np.random.default_rng(dim)
    for pattern in _patterns(dim, rng):
        stack = _masked(rng.standard_normal((dim, dim, 2000)), pattern)
        reference = np.linalg.det(stack.transpose(2, 0, 1))
        row_norms = np.prod(np.linalg.norm(stack, axis=1), axis=0)  # Hadamard's bound
        assert np.all(np.abs(_plan_det(stack, pattern) - reference) <= 1e-12 * row_norms)
        rows = [{c: stack[r, c] for c in cols} for r, cols in enumerate(pattern)]
        assert np.array_equal(_lapack_det(rows, 2000), reference)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_batch_determinant_of_permutation_matrices_is_their_sign(dim):
    rng = np.random.default_rng(dim)
    perms = [rng.permutation(dim) for _ in range(500)]
    stack = np.zeros((dim, dim, len(perms)))
    for b, perm in enumerate(perms):
        stack[np.arange(dim), perm, b] = 1.0
    inversions = [sum(p[i] > p[j] for i in range(dim) for j in range(i + 1, dim)) for p in perms]
    signs = [(-1.0) ** n for n in inversions]
    assert np.array_equal(_plan_det(stack, [tuple(range(dim))] * dim), signs)
    # each permutation's own nonzeros: one product per row, constant entries
    for perm, sign in list(zip(perms, signs))[:20]:
        pattern = [(int(c),) for c in perm]
        assert _run_plan(_expansion_plan(pattern, dim), [{c: 1.0} for (c,) in pattern]) == sign


@pytest.mark.parametrize("dim", range(1, 10))
def test_batch_determinant_leaves_its_entries_unchanged(dim):
    # each minor accumulates in place, so none may start as an entry
    rng = np.random.default_rng(dim)
    for pattern in _patterns(dim, rng):
        rows = [{c: rng.standard_normal(300) if (r + c) % 3 else 2.5 for c in cols}
                for r, cols in enumerate(pattern)]
        saved = [{c: np.copy(v) for c, v in row.items()} for row in rows]
        _run_plan(_expansion_plan(pattern, float("inf")), rows)
        for row, saved_row in zip(rows, saved):
            for c, entry in row.items():
                assert np.array_equal(entry, saved_row[c])


@pytest.mark.parametrize("dim", range(2, 8))
def test_the_expansion_is_exact_on_small_integers(dim):
    # pivoted LAPACK elimination rounds; the expansion only adds and multiplies
    rng = np.random.default_rng(dim)
    for pattern in _patterns(dim, rng):
        stack = _masked(rng.integers(-9, 10, size=(dim, dim, 300)).astype(float), pattern)
        exact = [integer_determinant(stack[:, :, b].astype(int).tolist()) for b in range(300)]
        assert np.array_equal(_plan_det(stack, pattern), exact)
        stack[-1] = stack[0]  # a repeated row
        assert np.all(_plan_det(stack, [tuple(range(dim))] * dim) == 0)


def test_a_pattern_with_no_full_minor_gives_zero():
    # a zero row, or two rows confined to one column: no term survives
    for pattern in ([(0, 1), (), (0, 1)], [(0,), (0,), (0, 1, 2)]):
        plan = _expansion_plan(pattern, float("inf"))
        rows = [{c: np.ones(5) for c in cols} for cols in pattern]
        assert _run_plan(plan, rows) == 0.0


def test_the_plan_stops_at_its_limit():
    dense = [tuple(range(6))] * 6  # sum of k * C(6, k) = 6 * 2^5 = 192 products
    assert _expansion_plan(dense, 191) is None
    plan = _expansion_plan(dense, 192)
    assert sum(len(terms) for level in plan for _, terms in level) == 192


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


def _householder_after_phi(k):
    """The reflection in the hyperplane normal to (1, 2, ..., k + 1) after
    phi_double(k): every numerator holds every variable, so the Jacobian,
    and the top rows of the bordered matrix, are dense."""
    f = phi_double(k)
    reg = f.domain.registry
    v = range(1, k + 2)
    norm = sum(c * c for c in v)
    xs = [Polynomial.variable(reg, j) for j in range(k + 1)]
    rows = [
        Polynomial.sum(reg, [(int(a == b) - Fraction(2 * a * b, norm)) * x for b, x in zip(v, xs)])
        for a in v
    ]
    return compose(RationalMap(f.domain, f.domain, rows, Polynomial.one(reg)), f)


def _dilation():
    """The conformal self-map of S^2 that doubles the stereographic chart
    from -e, over the denominator 5 - 3 x1: its last two numerators lack x1."""
    reg = sphere(2).registry
    x1, x2, x3 = (Polynomial.variable(reg, i) for i in range(3))
    return RationalMap(sphere(2), sphere(2), [5 * x1 - 3, 4 * x2, 4 * x3], 5 - 3 * x1)


# Maps whose Monte Carlo integrand is pinned.  The compose, oplus and
# dilation rows have a denominator E other than 1, so only they reach the
# quotient rule; the Householder rows have dense Jacobians (the first runs the plan, the
# second LAPACK), and the constant map's bordered matrix has no full minor.
MC_MAPS = {
    "phi:2": lambda: phi_double(2),
    "phi:3": lambda: phi_double(3),
    "phi:4": lambda: phi_double(4),
    "antipodal:4": lambda: antipodal(4),
    "reflect:3:2": lambda: reflect(3, 2),
    "phi:7": lambda: phi_double(7),
    "phi:8": lambda: phi_double(8),
    "antipodal:8": lambda: antipodal(8),
    "compose(stereo-inv:2,stereo:2)": lambda: compose(stereo_inv(2), stereo(2)),  # E = 1 + x1
    "oplus(id:2,antipodal:2)": lambda: pointwise_oplus(sphere_identity(2), antipodal(2)),  # E = 3 x1^2 + 1
    "dilation:2": _dilation,
    "householder(phi:4)": lambda: _householder_after_phi(4),
    "householder(phi:8)": lambda: _householder_after_phi(8),
    "const:2": lambda: constant_map(sphere(2), basepoint(2)),
}


@pytest.mark.parametrize("map_id", MC_MAPS)
def test_frame_free_integrand_equals_the_tangent_frame_determinant(map_id):
    f = MC_MAPS[map_id]()
    dim = f.domain.ambient_dim
    raw = np.random.default_rng(5).standard_normal((1000, dim))
    points = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    terms = _map_terms(f)
    x = np.ascontiguousarray(points.T)
    powers = {}
    den = _evaluate(terms.den, x, powers)
    fast = _degree_integrand(terms, x, den, powers)
    reference = _frame_integrand(f, points)
    assert np.max(np.abs(fast - reference)) <= 1e-10


def _products(f):
    plan = _map_terms(f).plan
    return None if plan is None else sum(len(terms) for level in plan for _, terms in level)


def test_plan_sizes_and_the_lapack_fallback():
    names = ("phi:3", "phi:4", "antipodal:4", "reflect:3:2", "phi:30", "id:196")
    sizes = {name: _products(catalog.resolve(name)) for name in names}
    assert sizes == {
        "phi:3": 21, "phi:4": 29, "antipodal:4": 25, "reflect:3:2": 18, "phi:30": 588,
        "id:196": 19_897,
    }
    # dense top rows: the plan while it is cheaper than LAPACK's fitted cost
    assert _products(_householder_after_phi(4)) == 191
    assert _products(_householder_after_phi(8)) is None
    assert _products(_householder_after_phi(20)) is None  # LAPACK's largest stack under the ceiling


def test_degree_of_a_constant_map_is_zero():
    # its bordered matrix has zero rows, so the plan has no full minor
    est = degree_mc(constant_map(sphere(3), basepoint(3)), samples=20_000, seed=0)
    assert (est.estimate, est.half_width, est.rounded, est.conclusive) == (0.0, 0.0, 0, True)


@pytest.mark.parametrize(
    "map_id, samples", [("phi:3", 40_000), ("compose(stereo-inv:2,stereo:2)", 20_000)]
)
def test_the_half_width_is_the_two_pass_deviation_of_the_stream(map_id, samples):
    # the second map's integrand is 1 up to rounding: a one-pass sum of
    # squares would keep only its rounding noise
    f = MC_MAPS[map_id]()
    dets = np.concatenate([d for d, _ in _integrand_chunks(_map_terms(f), samples, 3)])
    est = degree_mc(f, samples=samples, seed=3)
    assert len(dets) == samples
    assert est.half_width == pytest.approx(3 * np.sqrt(np.var(dets, ddof=1) / samples), rel=1e-9)


def test_an_oversized_degree_is_refused_before_any_point_is_drawn(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done for a refused map")

    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setattr(Polynomial, "differentiate", refuse)
    # the plans of the first three outgrow the ceiling; the dense one's
    # LAPACK stack is 23-square
    for f, dim in [(sphere_identity(197), 198), (antipodal(197), 198), (phi_double(197), 198),
                   (_householder_after_phi(21), 22)]:
        with pytest.raises(ValueError, match=f"ambient dimension {dim} "):
            degree_mc(f, samples=100, seed=0)


# The Monte Carlo names of the degree-mc benchmark workload and of the CLI and
# acceptance tests, and the largest id:k and phi:k under the ceiling.
@pytest.mark.parametrize(
    "name", ["phi:3", "phi:4", "antipodal:4", "reflect:3:2", "antipodal:2", "id:196", "phi:195"]
)
def test_every_benchmark_and_test_degree_name_is_admitted(name):
    assert _map_terms(catalog.resolve(name)).plan is not None


# estimate, half_width and resampled: the phi_double runs as measured with
# explicit tangent frames, the others from the frame-free integrand, which
# the test above holds to the frames
GOLDEN_RUNS = [
    ("phi:2", 0, -0.013088865499482261, 0.049229494920091856, 0),
    ("phi:2", 1, -0.011152785066281003, 0.04879627727402457, 0),
    ("phi:3", 0, 1.9823241219080745, 0.0422895532691579, 0),
    ("phi:3", 1, 1.9927365459084039, 0.04236432142701127, 0),
    ("phi:4", 0, -0.010686037473128516, 0.07410608606109013, 0),
    ("phi:4", 1, -0.03840900487312066, 0.07425097121880672, 0),
    ("phi:7", 0, 1.9774131712597385, 0.13489563236525645, 0),
    ("phi:7", 1, 1.9859895404267611, 0.13801285005962055, 0),
    ("compose(stereo-inv:2,stereo:2)", 0, 1.0, 0.0, 0),
    ("compose(stereo-inv:2,stereo:2)", 1, 1.0, 0.0, 0),
    ("oplus(id:2,antipodal:2)", 0, 0.016880118686802927, 0.0451324870684163, 0),
    ("oplus(id:2,antipodal:2)", 1, 0.010205728069611867, 0.045186546721000705, 0),
]


def _run_id(row):
    # a phi_double run is named by its k, as it was before other maps joined
    # the table, so the ids of those runs stay the same
    map_id, *rest = row
    return "-".join(str(v) for v in (map_id.removeprefix("phi:"), *rest))


@pytest.mark.parametrize(
    "map_id, seed, estimate, half_width, resampled", GOLDEN_RUNS, ids=map(_run_id, GOLDEN_RUNS)
)
def test_degree_matches_the_tangent_frame_golden_runs(map_id, seed, estimate, half_width, resampled):
    est = degree_mc(MC_MAPS[map_id](), samples=20_000, seed=seed)
    assert est.estimate == pytest.approx(estimate, rel=0, abs=1e-12)
    assert est.half_width == pytest.approx(half_width, rel=0, abs=1e-12)
    assert est.resampled == resampled


def test_points_on_the_excluded_locus_are_redrawn_from_the_same_stream():
    # phi_double(2) over the common factor x1^20, which is below 1e-12
    # wherever |x1| < 1/4: about a quarter of the points are redrawn
    s2 = sphere(2)
    w = Polynomial.variable(s2.registry, 0) ** 20
    f = RationalMap(s2, s2, [n * w for n in phi_double(2).numerators], w)
    runs = [(0, 0.0029894295793753242, 0.05643093156739255, 6742),
            (1, -0.007523582676442839, 0.05613732027794416, 6894)]
    for seed, estimate, half_width, resampled in runs:
        est = degree_mc(f, samples=20_000, seed=seed)
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


def _diagonal_unitary(k, lam):
    """diag(lam, 1, ..., 1) as a point of U(k), ``lam`` a (re, im) pair."""
    coords = []
    for i in range(k):
        for j in range(k):
            coords += (lam if i == 0 else (1, 0)) if i == j else (0, 0)
    return PointOnVariety(unitary(k), coords)


@pytest.mark.parametrize("k, dimension", [(2, 3), (3, 8)])
def test_probe_ranks_on_the_special_unitary_groups(k, dimension):
    # su_retract sends diag(lam, 1, ...) to the identity for |lam| = 1; the
    # fiber's tangent directions are the k^2 - (k^2 - 1) = 1 phase of column 0
    f = Fraction
    lams = [(f(3, 5), f(4, 5)), (f(5, 13), f(-12, 13)), (f(1), f(0))]
    report = regular_value_probe(su_retract(k), [_diagonal_unitary(k, lam) for lam in lams])
    assert report.passed
    assert report.evidence["required_rank"] == dimension
    assert report.evidence["ranks"] == (dimension,) * 3
    # SU(k) in U(k) has codimension one: never onto the tangent space
    point = sample_point(special_unitary(k), 3, height=5)
    report = regular_value_probe(embed_special_unitary(k), [point])
    assert not report.passed and report.evidence["all_on_fiber"]
    assert report.evidence["required_rank"] == dimension + 1
    assert report.evidence["ranks"] == (dimension,)


def test_probe_hopf_like_fiber():
    spec = jmap_rotation()
    g = j_map(spec)
    report = regular_value_probe(g, fiber_points(spec, 10, seed=3))
    assert report.passed
    assert report.evidence["required_rank"] == 2
    assert set(report.evidence["ranks"]) == {2}


def test_probe_ranks_with_a_euclidean_side():
    # no codomain normals: the rank is that of the Jacobian on the tangent plane
    report = regular_value_probe(stereo(2), sample_points(sphere(2), 3, seed=1, height=20))
    assert report.evidence["required_rank"] == 2
    assert report.evidence["ranks"] == (2, 2, 2)
    assert not report.evidence["all_on_fiber"]
    # no domain normals: the whole Jacobian, projected to the sphere's tangent plane
    report = regular_value_probe(stereo_inv(2), sample_points(euclidean(2), 3, seed=1, height=20))
    assert report.evidence["required_rank"] == 2
    assert report.evidence["ranks"] == (2, 2, 2)


def test_probe_rank_drops_on_the_equator_of_phi_double():
    # phi_double crushes the equator x1 = 0 to -e; along it only the
    # meridian direction survives
    equator = [
        PointOnVariety(sphere(2), (0, 1, 0)),
        PointOnVariety(sphere(2), (0, Fraction(3, 5), Fraction(-4, 5))),
    ]
    report = regular_value_probe(phi_double(2), equator)
    assert report.evidence["all_on_fiber"]
    assert not report.evidence["all_regular"]
    assert report.evidence["required_rank"] == 2
    assert report.evidence["ranks"] == (1, 1)


@pytest.mark.parametrize(
    "name, required, rank",
    [("r:3", 3, 1), ("r-u:2", 4, 1), ("embed-u:2", 6, 4), ("oplus:2", 2, 2)],
)
def test_probe_ranks_with_dependent_normal_rows(name, required, rank):
    # the Gram relations of SO(n) and U(k) give twice as many normal rows as
    # the codimension (12 rows of rank 6 on SO(3), 8 of rank 4 on U(2));
    # a product of spheres gives one row per factor
    m = catalog.resolve(name)
    report = regular_value_probe(m, sample_points(m.domain, 3, seed=2, height=20))
    assert report.evidence["required_rank"] == required
    assert report.evidence["ranks"] == (rank,) * 3


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
