"""Maps into and out of the matrix groups: sections, retractions, embeddings,
and the sphere maps built from matrix families."""

from fractions import Fraction

import pytest

from reference_linalg import conjugate_transpose, determinant, mat_mul, transpose
from regmaps.linalg import identity
from regmaps.polynomial import ComplexPair, Polynomial
from regmaps.groups import (
    JMapInput,
    chain_retract,
    embed_orthogonal,
    embed_u_in_so,
    embed_unitary,
    fiber_points,
    first_column,
    first_column_u,
    j_map,
    jmap_constant_identity,
    jmap_double_rotation,
    jmap_rotation,
    orthogonal_identity,
    retract_so,
    retract_u,
    section_so,
    section_u,
    su_retract,
    unitary_identity,
)
from regmaps.ratmap import (
    ExcludedLocusError,
    MatrixMap,
    compose,
    coordinate_map,
    equal_symbolic,
    identity_map,
    maps_into,
)
from regmaps.spheres import basepoint, sphere_identity
from regmaps.varieties import (
    PointOnVariety,
    sample_points,
    special_orthogonal,
    special_unitary,
    sphere,
    unitary,
)


def so_samples(n, count, seed, height=40):
    return sample_points(special_orthogonal(n), count, seed, height=height)


def u_samples(k, count, seed, height=25):
    return sample_points(unitary(k), count, seed, height=height)


def as_matrix(coords, n):
    return [list(coords[i * n : (i + 1) * n]) for i in range(n)]


def as_complex(coords, k):
    return [
        [
            ComplexPair(coords[2 * (i * k + j)], coords[2 * (i * k + j) + 1])
            for j in range(k)
        ]
        for i in range(k)
    ]


GAUSS_ONE = ComplexPair(Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_first_column_at_identity_and_rotation():
    p = first_column(2)
    assert p.evaluate(orthogonal_identity(2)).coords == (1, 0)
    quarter = PointOnVariety(special_orthogonal(2), [0, -1, 1, 0])
    assert p.evaluate(quarter).coords == (0, 1)


def test_first_column_lands_on_the_sphere_by_sampling():
    report = maps_into(first_column(3), samples=15, seed=6, height=30)
    assert report.passed and report.method == "sampling"


def test_first_column_u_reads_interleaved_coordinates():
    p = first_column_u(2)
    img = p.evaluate(unitary_identity(2))
    assert img.coords == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# the orthogonal section
# ---------------------------------------------------------------------------


def test_section_at_base_point_is_identity_matrix():
    for n in (2, 3, 4):
        s = section_so(n)
        assert s.evaluate_matrix(basepoint(n - 1)) == identity(n)


def test_section_worked_example_so2():
    s = section_so(2)
    north = PointOnVariety(sphere(1), [0, 1])
    assert s.evaluate_matrix(north) == [
        [Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(0)],
    ]


def test_section_splits_the_projection_symbolically():
    for n in (2, 3, 4):
        back = compose(first_column(n), section_so(n))
        assert equal_symbolic(back, sphere_identity(n - 1)).passed, f"n={n}"


def test_section_output_is_special_orthogonal_at_samples():
    for n in (2, 3, 4):
        for i, pt in enumerate(sample_points(sphere(n - 1), 100, seed=n)):
            m = section_so(n).evaluate_matrix(pt)
            assert mat_mul(transpose(m), m) == identity(n), f"n={n} sample {i}"
            assert determinant(m) == 1, f"n={n} sample {i}"


def test_section_output_is_special_orthogonal_symbolically():
    # the sphere-block normal form decides these identities outright
    for n in (2, 3):
        report = maps_into(section_so(n))
        assert report.passed and report.method == "symbolic"


def test_section_proof_counts_the_determinant_step():
    for n in range(2, 7):
        report = maps_into(section_so(n))
        assert report.passed and report.method == "symbolic"
        assert report.evidence["checked"] == n * (n + 1) + 1, f"n={n}"


def reflected_rows(m, n):
    """The numerators of the n x n matrix map ``m`` with the first row negated."""
    nums = list(m.numerators)
    nums[:n] = [-p for p in nums[:n]]
    return nums


@pytest.mark.parametrize("n", (2, 3, 4))
def test_orientation_reversing_section_fails_on_the_determinant(n):
    s = section_so(n)
    flipped = MatrixMap(s.domain, s.codomain, reflected_rows(s, n), s.denominator, n, n)
    report = maps_into(flipped)
    assert not report.passed and report.method == "symbolic"
    assert report.evidence == {"checked": n * (n + 1) + 1, "failed_relation": n * (n + 1)}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_orientation_reversing_group_map_fails_by_sampling(n):
    group = special_orthogonal(n)
    picks = [(i, -1 if i < n else 1) for i in range(n * n)]
    flipped = coordinate_map(group, group, picks, "negate_first_row", (n, n, False))
    report = maps_into(flipped, samples=5, seed=1, height=20)
    assert not report.passed and report.method == "sampling"
    assert report.evidence == {"checked": 1, "failed_relation": n * (n + 1)}


def test_each_point_of_a_zero_sphere_domain_gets_its_determinant_checked():
    # x -> diag(1, x) is orthogonal on S^0 = {1, -1} but has det x; the S^0
    # sampler only ever gives x = 1
    picks = [(None, 1), (None, 0), (None, 0), (0, 1)]
    diag = coordinate_map(sphere(0), special_orthogonal(2), picks, "diag_1_x", (2, 2, False))
    report = maps_into(diag)
    assert not report.passed and report.method == "symbolic"
    assert report.evidence == {"checked": 7, "failed_relation": 6}
    picks[-1] = (None, 1)
    constant = coordinate_map(sphere(0), special_orthogonal(2), picks, "one", (2, 2, False))
    assert maps_into(constant).evidence == {"checked": 7}
    # (1 + x) I / (1 + x) is undefined at x = -1, where the cleared
    # relations, det(N) - E^2 included, vanish: nothing fails there
    reg = sphere(0).registry
    den = Polynomial.one(reg) + Polynomial.variable(reg, 0)
    zero = Polynomial.zero(reg)
    undefined = MatrixMap(sphere(0), special_orthogonal(2), [den, zero, zero, den], den, 2, 2)
    assert maps_into(undefined).evidence == {"checked": 7}


def test_section_excluded_at_the_antipode():
    bottom = PointOnVariety(sphere(1), [-1, 0])
    with pytest.raises(ExcludedLocusError):
        section_so(2).evaluate(bottom)


# ---------------------------------------------------------------------------
# the unitary section
# ---------------------------------------------------------------------------


def test_unitary_section_at_base_point():
    s = section_u(2)
    assert s.evaluate_matrix(basepoint(3)) == identity(2, gaussian=True)


def test_unitary_section_splits_the_projection():
    for k in (1, 2):
        back = compose(first_column_u(k), section_u(k))
        assert equal_symbolic(back, sphere_identity(2 * k - 1)).passed, f"k={k}"


def test_unitary_section_is_unitary_at_samples():
    # unitarity pins |det| = 1; the det itself is the phase (1+z1)/(1+conj(z1)),
    # so the determinant-one statement holds for the realified matrix
    s = section_u(2)
    for i, pt in enumerate(sample_points(sphere(3), 20, seed=9)):
        m = s.evaluate_matrix(pt)
        assert mat_mul(conjugate_transpose(m), m) == identity(2, gaussian=True), i
        det = determinant(m)
        assert det * det.conjugate() == GAUSS_ONE, f"sample {i}"
        z1 = ComplexPair(pt.coords[0], pt.coords[1])
        lead = GAUSS_ONE + z1
        assert det * lead.conjugate() == lead, f"sample {i}: wrong phase"
        # realified 2k x 2k block form [[re, -im], [im, re]] has determinant 1
        blocks = [[None] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                blocks[2 * r][2 * c] = m[r][c].re
                blocks[2 * r][2 * c + 1] = -m[r][c].im
                blocks[2 * r + 1][2 * c] = m[r][c].im
                blocks[2 * r + 1][2 * c + 1] = m[r][c].re
        assert determinant(blocks) == 1, f"sample {i}: realified det"


def test_unitary_section_lands_in_the_group_symbolically():
    report = maps_into(section_u(2))
    assert report.passed and report.method == "symbolic"


# ---------------------------------------------------------------------------
# retractions
# ---------------------------------------------------------------------------


def test_retraction_fixes_identity():
    assert retract_so(3).evaluate_matrix(orthogonal_identity(3)) == identity(3)
    assert retract_u(2).evaluate_matrix(unitary_identity(2)) == identity(
        2, gaussian=True
    )


def test_retraction_kills_the_first_column():
    r = retract_so(3)
    p = first_column(3)
    checked = 0
    for pt in so_samples(3, 100, seed=31):
        try:
            image = r.evaluate(pt)
        except ExcludedLocusError:
            continue  # p(g) = -e, outside the retraction's domain
        assert p.evaluate(image).coords == (1, 0, 0)
        checked += 1
    assert checked >= 95


def test_retraction_fixes_the_embedded_subgroup():
    r = retract_so(3)
    embed = embed_orthogonal(2, 3)
    for pt in so_samples(2, 50, seed=32):
        g = embed.evaluate(pt)
        assert r.evaluate(g).coords == g.coords


def test_retraction_is_idempotent_at_samples():
    r = retract_so(3)
    for pt in so_samples(3, 25, seed=33):
        try:
            once = r.evaluate(pt)
        except ExcludedLocusError:
            continue
        assert r.evaluate(once).coords == once.coords


def test_unitary_retraction_kills_the_first_column():
    r = retract_u(2)
    p = first_column_u(2)
    checked = 0
    for pt in u_samples(2, 100, seed=34):
        try:
            image = r.evaluate(pt)
        except ExcludedLocusError:
            continue
        assert p.evaluate(image).coords == (1, 0, 0, 0)
        checked += 1
    assert checked >= 95


def test_unitary_retraction_fixes_embedded_unitary_block():
    r = retract_u(2)
    embed = embed_unitary(1, 2)
    for pt in u_samples(1, 50, seed=35):
        g = embed.evaluate(pt)
        assert r.evaluate(g).coords == g.coords


# ---------------------------------------------------------------------------
# the chained retraction
# ---------------------------------------------------------------------------


def test_chain_retract_fixes_identity_and_embedded_block():
    chain = chain_retract(4, 2)
    assert chain.evaluate_matrix(orthogonal_identity(4)) == identity(4)
    embed = embed_orthogonal(2, 4)
    for pt in so_samples(2, 50, seed=36, height=30):
        g = embed.evaluate(pt)
        assert chain.evaluate(g).coords == g.coords


def test_chain_retract_output_has_block_form():
    chain = chain_retract(4, 2)
    for pt in so_samples(4, 100, seed=37, height=3):
        try:
            m = chain.evaluate_matrix(pt)
        except ExcludedLocusError:
            continue
        for i in range(4):
            for j in range(2):
                assert m[i][j] == (1 if i == j else 0), f"column block at ({i},{j})"
                assert m[j][i] == (1 if i == j else 0), f"row block at ({j},{i})"


def test_chain_retract_argument_order():
    with pytest.raises(ValueError):
        chain_retract(2, 2)
    with pytest.raises(ValueError):
        chain_retract(3, 1)


# ---------------------------------------------------------------------------
# determinant correction U(k) -> SU(k)
# ---------------------------------------------------------------------------


def test_su_retract_normalizes_determinants():
    r = su_retract(2)
    assert r.evaluate_matrix(unitary_identity(2)) == identity(2, gaussian=True)
    for pt in u_samples(2, 100, seed=38):
        m = r.evaluate_matrix(pt)
        assert determinant(m) == GAUSS_ONE


def test_su_retract_fixes_the_special_unitary_group():
    r = su_retract(2)
    for pt in sample_points(special_unitary(2), 40, seed=39, height=20):
        g = PointOnVariety(unitary(2), pt.coords)
        assert r.evaluate(g).coords == g.coords


# ---------------------------------------------------------------------------
# the realification embedding
# ---------------------------------------------------------------------------


def test_embedding_of_the_imaginary_unit():
    embed = embed_u_in_so(1)
    i_point = PointOnVariety(unitary(1), [0, 1])  # the 1x1 matrix (i)
    assert embed.evaluate_matrix(i_point) == [
        [Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(0)],
    ]
    assert embed.evaluate_matrix(unitary_identity(1)) == identity(2)


def test_embedding_lands_in_the_orthogonal_group():
    embed = embed_u_in_so(2)
    for pt in u_samples(2, 100, seed=40):
        m = embed.evaluate_matrix(pt)
        assert mat_mul(transpose(m), m) == identity(4)
        assert determinant(m) == 1


def test_embedding_intertwines_multiplication():
    embed = embed_u_in_so(2)
    pts = u_samples(2, 10, seed=41)
    for a, b in zip(pts[:5], pts[5:]):
        za, zb = as_complex(a.coords, 2), as_complex(b.coords, 2)
        prod = mat_mul(za, zb)
        flat = []
        for row in prod:
            for z in row:
                flat += [z.re, z.im]
        lhs = embed.evaluate_matrix(PointOnVariety(unitary(2), flat))
        rhs = mat_mul(
            embed.evaluate_matrix(a), embed.evaluate_matrix(b)
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# sphere maps from matrix families
# ---------------------------------------------------------------------------


def test_jmap_identity_family_closed_form():
    # construction reduces everything mod the sphere block, so compare
    # normal forms rather than raw expansions
    from regmaps.polynomial import normal_form

    g = j_map(jmap_constant_identity(1, 2))
    dom = sphere(3)
    reg = dom.registry
    x3 = Polynomial.variable(reg, 2)
    x4 = Polynomial.variable(reg, 3)
    y_norm = x3 ** 2 + x4 ** 2

    def nf(p):
        return normal_form(p, dom.blocks)

    assert g.denominator == nf(Polynomial.one(reg) + y_norm)
    assert g.numerators[0] == nf(Polynomial.one(reg) - y_norm)
    assert g.numerators[1] == nf(2 * x3)
    assert g.numerators[2] == nf(2 * x4)
    assert maps_into(g).passed


def test_jmap_identity_family_maps_base_point_to_base_point():
    g = j_map(jmap_constant_identity(2, 2))
    e = basepoint(4)
    assert g.evaluate(e).coords == (1, 0, 0)


def test_jmap_rotation_family_misses_the_sphere_globally():
    # entries^T entries = (X1^2 + X2^2) * I differs from scale^2 = 1 as an
    # ambient identity, and the symbolic check reports exactly that
    g = j_map(jmap_rotation())
    report = maps_into(g)
    assert not report.passed
    assert report.method == "symbolic"


def test_jmap_double_rotation_is_a_genuine_sphere_map():
    g = j_map(jmap_double_rotation())
    report = maps_into(g)
    assert report.passed and report.method == "symbolic"


def test_jmap_fiber_points_map_to_base_point():
    for spec in (jmap_rotation(), jmap_double_rotation()):
        g = j_map(spec)
        for pt in fiber_points(spec, 25, seed=43):
            assert g.evaluate(pt).coords == (1, 0, 0), spec.label


def test_jmap_partial_derivatives_along_the_fiber():
    # at (x, 0) the derivative in the y-directions is 2 * F(x)^T / Q(x)^2
    # in coordinates 1..k and zero in coordinate 0
    spec = jmap_rotation()
    g = j_map(spec)
    n, k = spec.base_dim, spec.matrix_size
    for pt in fiber_points(spec, 10, seed=44):
        x = pt.coords[: n + 1]
        q = spec.scale.evaluate(x)
        den_val = g.denominator.evaluate(pt.coords)
        for i in range(k):
            y_var = n + 1 + i
            d_den = g.denominator.differentiate(y_var).evaluate(pt.coords)
            for j in range(k + 1):
                num = g.numerators[j]
                d_num = num.differentiate(y_var).evaluate(pt.coords)
                value = (
                    d_num * den_val - num.evaluate(pt.coords) * d_den
                ) / den_val ** 2
                if j == 0:
                    assert value == 0
                else:
                    expected = 2 * spec.entries[i][j - 1].evaluate(x) / q ** 2
                    assert value == expected


def test_jmap_input_validation():
    from regmaps.groups import _ambient_vars

    x1, x2 = _ambient_vars(1)
    one = Polynomial.one(x1.registry)
    zero = Polynomial.zero(x1.registry)
    with pytest.raises(ValueError):
        JMapInput(((one,),), one, 1, 2).validate()  # wrong shape
    with pytest.raises(ValueError):
        JMapInput(((one, zero), (zero, one)), zero, 1, 2).validate()  # zero scale
    with pytest.raises(ValueError):
        # not the identity at the base point
        JMapInput(((x2, -x1), (x1, x2)), one, 1, 2).validate()
    with pytest.raises(ValueError):
        # sign-indefinite scale caught by base-sphere sampling
        j_map(JMapInput(((x1, zero), (zero, x1)), x1, 1, 2))
