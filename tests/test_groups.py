"""Maps into and out of the matrix groups: sections, retractions, embeddings,
and the sphere maps built from matrix families."""

import hashlib
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
    RationalMap,
    compose,
    coordinate_map,
    equal_symbolic,
    identity_map,
    map_to_json,
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
# the bundle builders, pinned by the sha256 of their map_to_json
# ---------------------------------------------------------------------------

BUNDLE_PINS = {
    ("section_so", 2): "a4a83bea9bb9904f5a3fddffd01334e635b243de3113d7f563bb53785f7bba48",
    ("section_so", 3): "510a408fd6bedf5564afecd03fabbc0287280c2db6db68414330a6c0e164bbc1",
    ("section_so", 4): "cee6b3c99e35c8889226162091a1f07c52410d4af8f0912faf7427fe2ebdd22f",
    ("section_so", 5): "59a05d7e835013900abad5b3dad228c9a9cceab767cd4c0f16fd4a845f0c300a",
    ("section_so", 6): "81160bd60b8880dd279383850420b983a998f2c2c7f6128121e3dddf6a2559ee",
    ("section_so", 7): "cc3a4119d09d78d23312571266caffa04271c0ef35931dc0fae2fbb03a3996fa",
    ("section_so", 8): "9731e8802e8f3a1bb00cbfb54b12c3061ecf83d90c06e576037e2b6047147717",
    ("section_u", 1): "d545aaa83a1504e35363032249a437b4194339aca1dd1befcff8d292a230df09",
    ("section_u", 2): "ad678b970263b93581e74aea776a542407bf281512f03124dab3851bcad9fd64",
    ("section_u", 3): "8a9535bcbd49d18cf9090b48919417075827051e2d2f5255c058f64ded47eaad",
    ("section_u", 4): "1939d2b9a1673ffe2138de53fa69acf338fb92a69a38e0fc638f3f6ead51f695",
    ("section_u", 5): "f2ec40496171d9f3ed83978d2839bbb40eafa139d9a1920ae2ef37f4cf21fdbd",
    ("first_column", 2): "893fdc435b20c4c83538710c7865e1dd23db6e131b838aca3a609c49a938c1dd",
    ("first_column", 3): "b162bb033da2f68298184db686e252989b432ee0de96c13189e9e11a30f69b81",
    ("first_column", 4): "5240aa658f444a0d3d16633d19ae6352ed019065201ce3bf3697abe5a926bfb4",
    ("first_column", 5): "f426a97bca7f9a3073c0f52b38a8b4d93c869b411fa432b92f04a27d5e9de12d",
    ("first_column", 6): "a0cdb7bf06cb14f1f110680793abdcb2ad40fa8c270de334a727017314241645",
    ("first_column", 7): "f0d5279b95e4ad623f592fd3174696522b62e09beefa05a1227288abeecdb634",
    ("first_column", 8): "e9641b45b1fac2155d708b58d441d58cc4eb50f5516e939057ca3cffd8e44759",
    ("first_column_u", 1): "1443f4de0c21c57c26133abc66d8fc698e60428a663ba923b5da0bdc6f58c909",
    ("first_column_u", 2): "7110b25fa0b17678267d0177d7f5fd5d6844ed1f3873a627db22513672bce091",
    ("first_column_u", 3): "7fcf00d140f52868513db4cdf9f8361b8f3d4c73b0340f2d7743156c35cadb7a",
    ("first_column_u", 4): "5cd7430f4dd0951bfb906d81eb225edea484c192fa507b4d1c158e58152437ae",
    ("first_column_u", 5): "c51ad5e63063c78d344e5d3cbed6327f41a40830eafbfee58f0978b54ad0cc07",
}
BUILDERS = {
    "section_so": section_so,
    "section_u": section_u,
    "first_column": first_column,
    "first_column_u": first_column_u,
}


@pytest.mark.parametrize("builder, size", sorted(BUNDLE_PINS))
def test_bundle_builder_json_is_pinned(builder, size):
    built = BUILDERS[builder](size)
    digest = hashlib.sha256(map_to_json(built).encode()).hexdigest()
    assert digest == BUNDLE_PINS[builder, size]


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
    flipped = RationalMap(s.domain, s.codomain, reflected_rows(s, n), s.denominator)
    report = maps_into(flipped)
    assert not report.passed and report.method == "symbolic"
    assert report.evidence == {"checked": n * (n + 1) + 1, "failed_relation": n * (n + 1)}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_orientation_reversing_group_map_fails_by_sampling(n):
    group = special_orthogonal(n)
    picks = [(i, -1 if i < n else 1) for i in range(n * n)]
    flipped = coordinate_map(group, group, picks, "negate_first_row")
    report = maps_into(flipped, samples=5, seed=1, height=20)
    assert not report.passed and report.method == "sampling"
    assert report.evidence == {"checked": 1, "failed_relation": n * (n + 1)}


def test_each_point_of_a_zero_sphere_domain_gets_its_determinant_checked():
    # x -> diag(1, x) is orthogonal on S^0 = {1, -1} but has det x; the S^0
    # sampler only ever gives x = 1
    picks = [(None, 1), (None, 0), (None, 0), (0, 1)]
    diag = coordinate_map(sphere(0), special_orthogonal(2), picks, "diag_1_x")
    report = maps_into(diag)
    assert not report.passed and report.method == "symbolic"
    assert report.evidence == {"checked": 7, "failed_relation": 6}
    picks[-1] = (None, 1)
    constant = coordinate_map(sphere(0), special_orthogonal(2), picks, "one")
    assert maps_into(constant).evidence == {"checked": 7}
    # (1 + x) I / (1 + x) is undefined at x = -1, where the cleared
    # relations, det(N) - E^2 included, vanish: nothing fails there
    reg = sphere(0).registry
    den = Polynomial.one(reg) + Polynomial.variable(reg, 0)
    zero = Polynomial.zero(reg)
    undefined = RationalMap(sphere(0), special_orthogonal(2), [den, zero, zero, den], den)
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


@pytest.mark.parametrize("k", (2, 3, 4))
def test_sections_agree_on_the_real_slice(k):
    # at (x1, 0, x2, 0, ...) every z_j is real, so the unitary section's
    # entries are the rotation section's, with zero imaginary parts
    for pt in sample_points(sphere(k - 1), 5, seed=k):
        interleaved = [c for x in pt.coords for c in (x, Fraction(0))]
        value = section_u(k).evaluate_raw(interleaved)
        assert value[0::2] == section_so(k).evaluate_raw(pt.coords)
        assert not any(value[1::2])


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


@pytest.mark.parametrize("k, gram", [(1, 2), (2, 8)])
def test_maps_into_special_unitary_is_proved_with_its_determinant_last(k, gram):
    # the Gram relations of U(k), then Re det and Im det: one count each
    report = maps_into(compose(su_retract(k), section_u(k)))
    assert report.passed and report.method == "symbolic"
    assert report.evidence == {"checked": gram + 2}
    # the section's determinant is a phase, not one: Re det - 1 fails first
    s = section_u(k)
    declared = RationalMap(s.domain, special_unitary(k), s.numerators, s.denominator)
    report = maps_into(declared)
    assert not report.passed and report.method == "symbolic"
    assert report.evidence == {"checked": gram + 1, "failed_relation": gram}


def test_a_unitary_map_declared_special_fails_on_the_determinant_by_sampling():
    picks = [(i, 1) for i in range(8)]
    declared = coordinate_map(unitary(2), special_unitary(2), picks, "u_in_su")
    report = maps_into(declared, samples=5, seed=1, height=20)
    assert not report.passed and report.method == "sampling"
    assert report.evidence == {"checked": 1, "failed_relation": len(unitary(2).relations)}


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
