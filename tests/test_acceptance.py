"""Acceptance suite.

One test per shipped guarantee.  Every test prints a single verdict line
of the form ``ACCEPTANCE <n> PASS: <detail>`` (or ``FAIL``), so running

    pytest -v -s tests/test_acceptance.py

gives one greppable line per criterion next to the pytest result.
"""

import time
from fractions import Fraction

from regmaps.groups import (
    chain_retract,
    embed_orthogonal,
    embed_unitary,
    fiber_points,
    first_column,
    first_column_u,
    j_map,
    jmap_constant_identity,
    jmap_rotation,
    retract_so,
    retract_u,
    section_so,
    section_u,
)
from regmaps.linalg import (
    conjugate_transpose,
    determinant,
    identity,
    mat_mul,
    transpose,
)
from regmaps.polynomial import ComplexPair
from regmaps.ratmap import (
    ExcludedLocusError,
    compose,
    equal_mod,
    equal_symbolic,
    maps_into,
)
from regmaps.spheres import (
    basepoint,
    chart_sum_identity_residual,
    circle_power,
    circle_rotation,
    oplus,
    oplus_via_charts,
    phi_double,
    pointwise_oplus,
    sphere_identity,
)
from regmaps.topology import (
    check_codim_pair,
    degree_mc,
    radon_hurwitz,
    regular_value_probe,
    winding,
)
from regmaps.varieties import (
    PointOnVariety,
    sample_points,
    special_orthogonal,
    sphere,
    sphere_product,
    unitary,
)

GAUSS_ONE = ComplexPair(Fraction(1), Fraction(0))


def verdict(number, problems, detail):
    ok = not problems
    text = detail if ok else "; ".join(problems)
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def pair_point(a, b):
    n = a.variety.ambient_dim - 1
    return PointOnVariety(sphere_product(n), a.coords + b.coords)


def as_matrix(coords, size):
    return [list(coords[row * size : (row + 1) * size]) for row in range(size)]


def as_complex(coords, size):
    flat = [
        ComplexPair(coords[2 * i], coords[2 * i + 1])
        for i in range(len(coords) // 2)
    ]
    return [flat[row * size : (row + 1) * size] for row in range(size)]


def test_criterion_1_chart_sum_identity_is_exact():
    problems = []
    started = time.perf_counter()
    for n in range(1, 6):
        if not chart_sum_identity_residual(n).is_zero():
            problems.append(f"residual is nonzero for n={n}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s (budget 5s)")
    verdict(1, problems, f"chart-sum identity reduces to 0 for n=1..5 in {elapsed:.2f}s")


def test_criterion_2_sphere_addition_routes_agree():
    problems = []
    for n in (1, 2):
        routes = equal_mod(oplus(n), oplus_via_charts(n), trials=20)
        if not routes.passed:
            problems.append(f"chart route disagrees on S^{n} at {routes.witness}")
        target = maps_into(oplus(n))
        if not (target.passed and target.method == "symbolic"):
            problems.append(f"image relation not proven symbolically on S^{n}")
    verdict(
        2,
        problems,
        "closed form matches the chart route at 20 exact pairs (n=1,2) "
        "and lands on the sphere symbolically",
    )


def test_criterion_3_sphere_addition_boundary_semantics():
    problems = []
    add = oplus(2)
    e = basepoint(2)
    minus_e = PointOnVariety(sphere(2), (Fraction(-1), Fraction(0), Fraction(0)))
    for a in sample_points(sphere(2), 50, seed=11):
        if add.evaluate(pair_point(a, minus_e)).coords != minus_e.coords:
            problems.append(f"(a, -e) missed -e at a={a.coords}")
            break
        if add.evaluate(pair_point(e, a)).coords != a.coords:
            problems.append(f"(e, a) missed a at a={a.coords}")
            break
    verdict(
        3,
        problems,
        "50 exact samples: a (+) with -e absorbs to -e, and e is neutral",
    )


def test_criterion_4_sections_invert_the_fibrations():
    problems = []

    if not equal_symbolic(
        compose(first_column(2), section_so(2)), sphere_identity(1)
    ).passed:
        problems.append("p . s != id symbolically for n=2")
    for n in (3, 4):
        if not equal_mod(
            compose(first_column(n), section_so(n)), sphere_identity(n - 1), trials=100
        ).passed:
            problems.append(f"p . s != id at samples for n={n}")

    for n in (2, 3, 4):
        at_base = section_so(n).evaluate(basepoint(n - 1))
        if as_matrix(at_base.coords, n) != identity(n):
            problems.append(f"s(e) is not the identity for n={n}")

    for n in (3, 4):
        for a in sample_points(sphere(n - 1), 100, seed=21):
            mat = as_matrix(section_so(n).evaluate(a).coords, n)
            if mat_mul(transpose(mat), mat) != identity(n):
                problems.append(f"s(a)^T s(a) != I for n={n}")
                break
            if determinant(mat) != 1:
                problems.append(f"det s(a) != 1 for n={n}")
                break

    # the unitary section, k = 2
    if not equal_symbolic(
        compose(first_column_u(2), section_u(2)), sphere_identity(3)
    ).passed:
        problems.append("p' . s' != id symbolically for k=2")
    at_base = section_u(2).evaluate(basepoint(3))
    if as_complex(at_base.coords, 2) != identity(2, gaussian=True):
        problems.append("s'(e) is not the identity")
    for a in sample_points(sphere(3), 100, seed=22):
        coords = section_u(2).evaluate(a).coords
        mat = as_complex(coords, 2)
        if mat_mul(conjugate_transpose(mat), mat) != identity(2, gaussian=True):
            problems.append("s'(a)* s'(a) != I")
            break
        det = determinant(mat)
        if det * det.conjugate() != GAUSS_ONE:
            problems.append("det s'(a) is not unimodular")
            break
        # as a real 4x4 matrix the determinant is |det|^2, so exactly one
        realified = [
            [mat[0][0].re, -mat[0][0].im, mat[0][1].re, -mat[0][1].im],
            [mat[0][0].im, mat[0][0].re, mat[0][1].im, mat[0][1].re],
            [mat[1][0].re, -mat[1][0].im, mat[1][1].re, -mat[1][1].im],
            [mat[1][0].im, mat[1][0].re, mat[1][1].im, mat[1][1].re],
        ]
        if determinant(realified) != 1:
            problems.append("realified det s'(a) != 1")
            break

    verdict(
        4,
        problems,
        "p . s = id (symbolic n=2, 100 samples n=3,4), s(e) = I, frames exactly "
        "orthogonal with det 1; unitary section passes the same suite for k=2 "
        "(det taken of the real 4x4 form, where it is exactly 1)",
    )


def test_criterion_5_retractions_collapse_the_fibers():
    problems = []

    def check_kills_first_column(retraction, projection, group, height, label):
        base = basepoint(projection.codomain.ambient_dim - 1)
        checked = 0
        for g in sample_points(group, 140, seed=31, height=height):
            try:
                image = projection.evaluate(retraction.evaluate(g))
            except ExcludedLocusError:
                continue
            if image.coords != base.coords:
                problems.append(f"{label}: p(r(g)) != e at {g.coords[:4]}...")
                return
            checked += 1
            if checked == 100:
                return
        problems.append(f"{label}: only {checked} samples off the excluded locus")

    check_kills_first_column(
        retract_so(3), first_column(3), special_orthogonal(3), 40, "SO(3)"
    )
    check_kills_first_column(retract_u(2), first_column_u(2), unitary(2), 25, "U(2)")

    r = retract_so(3)
    embed = embed_orthogonal(2, 3)
    for h in sample_points(special_orthogonal(2), 100, seed=32):
        g = embed.evaluate(h)
        if r.evaluate(g).coords != g.coords:
            problems.append("SO(3) retraction moves the embedded SO(2)")
            break

    ru = retract_u(2)
    embed_u = embed_unitary(1, 2)
    for h in sample_points(unitary(1), 100, seed=33):
        g = embed_u.evaluate(h)
        if ru.evaluate(g).coords != g.coords:
            problems.append("U(2) retraction moves the embedded U(1)")
            break

    chain = chain_retract(4, 2)
    embed42 = embed_orthogonal(2, 4)
    for h in sample_points(special_orthogonal(2), 50, seed=34):
        g = embed42.evaluate(h)
        if chain.evaluate(g).coords != g.coords:
            problems.append("iterated retraction moves the embedded SO(2) in SO(4)")
            break

    verdict(
        5,
        problems,
        "100 samples each: retractions send SO(3)/U(2) into the basepoint fiber "
        "exactly and fix their embedded subgroups; chain SO(4)->SO(2) fixes the "
        "embedded block at 50 samples",
    )


def test_criterion_6_doubling_map_degrees():
    problems = []
    started = time.perf_counter()
    w = winding(phi_double(1))
    winding_time = time.perf_counter() - started
    if w != 2:
        problems.append(f"winding(phi on S^1) = {w}, wanted 2")
    if winding_time >= 1.0:
        problems.append(f"winding took {winding_time:.2f}s (budget 1s)")

    started = time.perf_counter()
    est = degree_mc(phi_double(3), samples=1_000_000, seed=0)
    mc_time = time.perf_counter() - started
    if est.rounded != 2:
        problems.append(f"Monte Carlo degree rounded to {est.rounded}, wanted 2")
    if not est.half_width < 0.2:
        problems.append(f"half-width {est.half_width:.3f} >= 0.2")
    if mc_time >= 300.0:
        problems.append(f"Monte Carlo run took {mc_time:.0f}s (budget 300s)")
    verdict(
        6,
        problems,
        f"winding = 2 in {winding_time:.2f}s; 10^6-sample degree estimate "
        f"{est.estimate:.3f} +/- {est.half_width:.3f} rounds to 2 in {mc_time:.1f}s",
    )


def test_criterion_7_join_style_maps():
    problems = []
    report = maps_into(j_map(jmap_constant_identity(1, 2)))
    if not (report.passed and report.method == "symbolic"):
        problems.append("identity-family image relation not proven symbolically")

    spec = jmap_rotation()
    g = j_map(spec)
    points = fiber_points(spec, 100, seed=2)
    e = basepoint(2)
    for p in points:
        if g.evaluate(p).coords != e.coords:
            problems.append(f"fiber point {p.coords} does not map to e")
            break
    probe = regular_value_probe(g, points)
    if probe.evidence["required_rank"] != 2:
        problems.append(f"expected rank 2 fibers, required {probe.evidence['required_rank']}")
    if not probe.passed:
        problems.append(f"ranks {sorted(set(probe.evidence['ranks']))} are not all 2")
    verdict(
        7,
        problems,
        "norm identity is symbolic for the constant family; 100 exact fiber "
        "points of the rotation family hit e with full rank 2 differential",
    )


def test_criterion_8_counting_function_table():
    problems = []
    expected = [1, 2, 4, 4, 8, 8, 8, 8, 16]
    table = [radon_hurwitz(p).value for p in range(1, 10)]
    if table != expected:
        problems.append(f"table {table} != {expected}")
    good = {0, 1, 2, 4}
    for p in range(1, 10):
        recount = 2 ** len([i for i in range(1, p) if i % 8 in good])
        if radon_hurwitz(p).value != recount:
            problems.append(f"brute-force recount disagrees at p={p}")
    pair = check_codim_pair(1, 7)
    if not (pair.admissible and pair.modulus == 4):
        problems.append(f"(m=1, k=7) reported {pair}")
    verdict(
        8,
        problems,
        "a_p table for p=1..9 matches the brute-force residue count; "
        "(m=1, k=7) admissible mod a_3 = 4",
    )


def test_criterion_9_winding_adds_under_sphere_addition():
    problems = []
    spin = circle_rotation(Fraction(3, 5), Fraction(4, 5))
    for low, high in ((1, 2), (2, 3)):
        total = winding(
            pointwise_oplus(circle_power(low), compose(spin, circle_power(high)))
        )
        if total != low + high:
            problems.append(f"winding of {low} (+) rotated {high} gave {total}")
    verdict(
        9,
        problems,
        "pointwise sphere addition adds winding numbers: 1(+)2 -> 3, 2(+)3 -> 5",
    )
