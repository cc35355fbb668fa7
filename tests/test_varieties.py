"""Variety registry and the exact rational point samplers."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from reference_linalg import determinant, mat_mul, sphere_coords_from_parameters, transpose
from regmaps.linalg import (
    identity,
    integer_determinant,
    integer_solve,
    inverse,
    rank,
    row_echelon,
    solve,
)
from regmaps.polynomial import (
    ComplexPair, Polynomial, SphereBlock, VarRegistry, polynomial_to_json,
)
from regmaps.varieties import (
    MatrixGroup,
    PointOnVariety,
    PointValidationError,
    Variety,
    _bounded_pairs,
    _cayley,
    _grid_draws,
    euclidean,
    poly_matrix_determinant,
    sample_point,
    sample_points,
    sample_stream,
    special_orthogonal,
    special_unitary,
    sphere,
    sphere_product,
    unitary,
    variety_by_name,
)


def as_matrix(coords, n):
    return [list(coords[i * n : (i + 1) * n]) for i in range(n)]


def as_complex_matrix(coords, k):
    # realified unitary coordinates interleave re/im parts row-major
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            base = 2 * (i * k + j)
            row.append(ComplexPair(coords[base], coords[base + 1]))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# construction and identity
# ---------------------------------------------------------------------------


def test_constructors_are_cached_and_compare_by_name():
    assert sphere(2) is sphere(2)
    assert sphere(2) == sphere(2)
    assert sphere(2) != sphere(3)
    assert special_orthogonal(3) is special_orthogonal(3)
    assert sphere(2).ambient_dim == 3
    assert sphere_product(1).ambient_dim == 4
    assert special_orthogonal(3).ambient_dim == 9
    assert unitary(2).ambient_dim == 8
    assert euclidean(4).ambient_dim == 4


def test_matrix_groups_build_past_size_ten():
    # the entry names separate row and column: a1_11 and a11_1 differ
    so11, u11 = special_orthogonal(11), unitary(11)
    assert so11.ambient_dim == 121 and u11.ambient_dim == 242
    assert so11.registry.names[:2] == ("g1_1", "g1_2")
    assert u11.registry.names[20:24] == ("a1_11", "b1_11", "a2_1", "b2_1")


def test_block_reducibility_flags():
    assert sphere(3).block_reducible()
    assert sphere_product(2).block_reducible()
    assert euclidean(3).block_reducible()  # no relations at all
    assert not special_orthogonal(3).block_reducible()
    assert not unitary(2).block_reducible()
    assert not special_unitary(2).block_reducible()
    # a sphere-block variety's relations are its blocks' relations
    circle = sphere(1)
    assert circle.relations == (circle.blocks[0].relation(circle.registry),)
    so2 = special_orthogonal(2)
    with pytest.raises(ValueError, match="not both"):
        Variety("both", so2.registry, [SphereBlock((0, 1))], so2.matrix, sampler=so2.sampler)


def test_point_validation():
    e = PointOnVariety(sphere(2), [1, 0, 0])
    assert e.coords == (Fraction(1), Fraction(0), Fraction(0))
    # a variety without relations accepts any point
    assert euclidean(1).relations == ()
    assert euclidean(1).first_violation_scaled(3, [5]) is None
    with pytest.raises(PointValidationError):
        PointOnVariety(sphere(2), [1, 1, 0])
    with pytest.raises(PointValidationError):
        PointOnVariety(sphere(2), [1, 0])


def test_variety_is_immutable():
    v = sphere(1)
    with pytest.raises(AttributeError):
        v.name = "other"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_every_family_samples_exactly():
    # PointOnVariety re-validates every relation, so constructing the
    # samples is already the exactness assertion.
    for v in [
        sphere(1),
        sphere(3),
        euclidean(2),
        sphere_product(2),
        special_orthogonal(2),
        special_orthogonal(4),
        unitary(1),
        unitary(2),
        special_unitary(2),
    ]:
        pts = sample_points(v, 5, seed=3)
        assert len(pts) == 5
        for p in pts:
            assert p.variety is v


def test_sampler_is_deterministic():
    for v in [sphere(2), special_orthogonal(3), unitary(2)]:
        a = sample_point(v, seed=9)
        b = sample_point(v, seed=9)
        assert a.coords == b.coords
        c = sample_point(v, seed=10)
        assert a.coords != c.coords, f"{v.name}: different seeds collided"


def test_circle_parameter_one_maps_to_north():
    assert sphere_coords_from_parameters([Fraction(1)]) == (Fraction(0), Fraction(1))
    # the parametrization never reaches the antipode of the base point
    rng = random.Random(0)
    for _ in range(50):
        t = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        coords = sphere_coords_from_parameters([t])
        assert coords[0] != -1
        assert coords[0] ** 2 + coords[1] ** 2 == 1


def cayley_matrix(params, n):
    """The sampler's Cayley matrix for rational ``params``, as ``Fraction``s."""
    q, nums = _cayley([(t.numerator, t.denominator) for t in params], n, False)
    assert q > 0
    return as_matrix([Fraction(x, q) for x in nums], n)


def test_cayley_small_cases():
    assert cayley_matrix([], 1) == [[Fraction(1)]]
    assert cayley_matrix([Fraction(0)], 2) == identity(2)
    got = cayley_matrix([Fraction(1)], 2)
    assert got == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


def test_fraction_free_cayley_matches_the_rational_transform():
    # (I - H)(I + H)^{-1} by division-based elimination, the samplers' former
    # route: H is skew-symmetric over Fraction for SO(k), and skew-Hermitian
    # over ComplexPair for U(k), each row holding the imaginary part of
    # its diagonal entry, then (re, im) of each entry right of it
    rng = random.Random(21)
    for complex_entries, sizes in ((False, (2, 3, 4, 5, 7)), (True, (1, 2, 3, 4))):
        for k in sizes:
            count = k * k if complex_entries else k * (k - 1) // 2
            for height in (4, 50, 1000):
                for _ in range(6):
                    pairs = [
                        (rng.randint(-height, height), rng.randint(1, height)) for _ in range(count)
                    ]
                    it = (Fraction(p, d) for p, d in pairs)
                    eye = identity(k, gaussian=complex_entries)
                    h = [[x * 0 for x in row] for row in eye]  # zeros of the scalar type
                    for i in range(k):
                        if complex_entries:
                            h[i][i] = ComplexPair(Fraction(0), next(it))
                        for j in range(i + 1, k):
                            z = next(it)
                            if complex_entries:
                                z = ComplexPair(z, next(it))
                            h[i][j], h[j][i] = z, -z.conjugate()
                    minus = [[eye[i][j] - h[i][j] for j in range(k)] for i in range(k)]
                    plus = [[eye[i][j] + h[i][j] for j in range(k)] for i in range(k)]
                    q, nums = _cayley(pairs, k, complex_entries)
                    assert q > 0
                    coords = [Fraction(x, q) for x in nums]
                    got = as_complex_matrix(coords, k) if complex_entries else as_matrix(coords, k)
                    assert got == mat_mul(minus, inverse(plus)), (k, pairs)


def test_cayley_samples_are_special_orthogonal():
    # 100 samples per size: transpose * matrix = identity and det = 1, exactly
    for n in range(2, 6):
        v = special_orthogonal(n)
        for i, p in enumerate(sample_points(v, 100, seed=n, height=30)):
            g = as_matrix(p.coords, n)
            assert mat_mul(transpose(g), g) == identity(n), f"n={n} sample {i}"
            assert determinant(g) == 1, f"n={n} sample {i}"


def test_unitary_samples_are_unitary():
    v = unitary(2)
    for p in sample_points(v, 40, seed=8, height=20):
        z = as_complex_matrix(p.coords, 2)
        zh = [[z[j][i].conjugate() for j in range(2)] for i in range(2)]
        assert mat_mul(zh, z) == identity(2, gaussian=True)


def test_special_unitary_samples_have_unit_determinant():
    v = special_unitary(2)
    for p in sample_points(v, 40, seed=8, height=20):
        z = as_complex_matrix(p.coords, 2)
        assert determinant(z) == ComplexPair(Fraction(1), Fraction(0))


def test_product_sampler_splits_coordinates():
    v = sphere_product(2)
    for p in sample_points(v, 20, seed=14):
        x, y = p.coords[:3], p.coords[3:]
        assert sum(c * c for c in x) == 1
        assert sum(c * c for c in y) == 1


def test_height_bound_controls_coordinate_size():
    # q = L^2 + sum T_i^2 with 1 <= L <= H and |T_i| <= H: at most (n + 1) H^2
    # on S^n, and every coordinate is a fraction over q
    for n in (1, 2, 5):
        for height in (1, 5, 1000):
            bound = (n + 1) * height**2
            for p in sample_points(sphere(n), 50, seed=1, height=height):
                q, nums = p.scaled
                assert q <= bound, (n, height)
                assert all(abs(x) <= q for x in nums)
                assert all(c.denominator <= bound for c in p.coords)


# Heights 1, 2 and 3 and the powers of two sit on the edges of the rejection
# rule (a span of one, a span just below or at a power of two).
STREAM_HEIGHTS = [1, 2, 3, 4, 50, 1000, 1024, 2**40 + 3]


@pytest.mark.parametrize("height", STREAM_HEIGHTS)
def test_bounded_pairs_draw_the_stream_of_randint(height):
    for seed in range(10):
        for count in range(8):
            drawn, reference = random.Random(seed), random.Random(seed)
            expected = [
                (reference.randint(-height, height), reference.randint(1, height))
                for _ in range(count)
            ]
            assert _bounded_pairs(drawn, height, count) == expected, (seed, count)
            assert drawn.getstate() == reference.getstate(), (seed, count)


@pytest.mark.parametrize("height", STREAM_HEIGHTS)
def test_grid_draws_draw_the_stream_of_randint(height):
    for seed in range(10):
        for count in range(8):
            drawn, reference = random.Random(seed), random.Random(seed)
            draws = _grid_draws(count, drawn, height)
            for index in range(3):
                common = reference.randint(1, height)
                expected = (common, [reference.randint(-height, height) for _ in range(count)])
                assert next(draws) == expected, (seed, count, index)
                assert drawn.getstate() == reference.getstate(), (seed, count, index)


def _both_images(ts):
    half = len(ts) // 2
    return sphere_coords_from_parameters(ts[:half]) + sphere_coords_from_parameters(ts[half:])


# (variety, parameters per point, the point of the parameters T_i / L).
GRID_DOMAINS = [
    (euclidean(3), 3, tuple),
    (sphere(1), 1, sphere_coords_from_parameters),
    (sphere(3), 3, sphere_coords_from_parameters),
    (sphere_product(2), 4, _both_images),
]


@pytest.mark.parametrize(
    "variety, count, image", GRID_DOMAINS, ids=[v.name for v, *_ in GRID_DOMAINS]
)
def test_grid_domains_sample_the_image_of_one_grid_draw_per_point(variety, count, image):
    for height in (1, 4, 1000):
        for seed in (0, 7):
            rng = random.Random(f"regmaps:{variety.name}:{seed}")
            draws = _grid_draws(count, rng, height)
            for point, (common, ts) in zip(sample_points(variety, 30, seed, height=height), draws):
                assert point.coords == image([Fraction(t, common) for t in ts]), (height, seed)


@pytest.mark.parametrize("height", [0, -3])
@pytest.mark.parametrize(
    "variety",
    [sphere(2), euclidean(2), sphere_product(2), special_orthogonal(3)],
    ids=lambda v: v.name,
)
def test_a_height_below_one_is_refused(variety, height):
    with pytest.raises(ValueError):
        sample_point(variety, seed=0, height=height)


# k: (number of relations of U(k), sha256 of their JSON, one per line, in order).
# `verify` reads the relations in this order, so the order is pinned too.
RELATION_DIGESTS = {
    1: (2, "ef602133c30ac7d2b1e081aa36542c4e3f3ee56898563e16809d0d34802da6e3"),
    2: (8, "61075427cdfcc50daf04d6e5f43ecb08bbafb5b06e60925b635bb2258b345c1b"),
    3: (18, "7bc070a472dbcc8137c05449fcb657c33c82329232b8c561527ce11d16a0c97b"),
}


@pytest.mark.parametrize(
    "family, k", [(family, k) for family in (special_unitary, unitary) for k in RELATION_DIGESTS],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_unitary_relations_are_pinned(family, k):
    # SU(k) has exactly the relations of U(k); det = 1 is in its ``matrix``
    relations = family(k).relations
    assert relations == unitary(k).relations
    assert _relation_digest(relations) == RELATION_DIGESTS[k]


def _relation_digest(relations):
    """Count and sha256 of the JSON relation lines, in order."""
    digest = hashlib.sha256("\n".join(map(polynomial_to_json, relations)).encode())
    return len(relations), digest.hexdigest()


# The relations of the other built-in families, in order: ``failed_relation``
# indices point into this order.
OTHER_RELATION_DIGESTS = [
    (special_orthogonal, 1, 2, "74c5727cd77fc5e21155cba6d5f16abd39e8594bb287171186626346259205af"),
    (special_orthogonal, 2, 6, "1c589e8ecfedfe6bbab48a8efed34aa0143ace92be0dffc462157c89a46c1d3e"),
    (special_orthogonal, 3, 12, "ee3fe67ceb2fbfb88b3b29d7908f0312bb1bdd9a0d5daef14627d52dc73511ac"),
    (special_orthogonal, 4, 20, "64b1375afa4cc8efe71d8c46ad0c0f90a63d9a9fb0988bf540033b77569fa437"),
    (special_orthogonal, 5, 30, "4d52a4dc8e5421da0bcacd0c35a64b1bd6704bd66369dcd09f14946e6faad549"),
    (special_orthogonal, 6, 42, "295df865461a8ab86e0cbad8f5cb8f49dabf6aab5bdc06f0b5a3d40fd7b50885"),
    (sphere, 0, 1, "6293ef42652569df872ffe71f6af0564237d0c747f0fe8b17bd3701036a21afc"),
    (sphere, 1, 1, "3d1e91b7a44816d72d54a4151b4b16c2d6702a982dc769d810352ad8eb9cf41e"),
    (sphere, 2, 1, "08706876059346096baebf61361eebe3acbabe7be41bb8bf29659b52e32a2021"),
    (sphere, 3, 1, "44a2c2fce5cecfca42e949b0987b3c445a99c98d2cdfe081706faf6aeebc5818"),
    (sphere, 4, 1, "5e0d9457ef12dde3fb0617ddb62514b9532efc7aa1161ad86ff792ef614ac0b4"),
    (sphere_product, 1, 2, "49af76820597b5bc9398a3739a2de1120b1871806a35472f09b1f76200d6cc6f"),
    (sphere_product, 2, 2, "3464c7e6892465189c7df5bc7253667bf535e90d83e382e1808d73ba091909cd"),
    (sphere_product, 3, 2, "cb4eb78a57d2302b32ac2cbf8c12ae98d4a4bfcd7e4956a920e925eff3c392a6"),
    (euclidean, 3, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "family, k, count, digest", OTHER_RELATION_DIGESTS,
    ids=[f"{family.__name__}-{k}" for family, k, *_ in OTHER_RELATION_DIGESTS],
)
def test_relations_of_every_family_are_pinned(family, k, count, digest):
    assert _relation_digest(family(k).relations) == (count, digest)


# One variety per sampler kind; the digests pin the exact points (and the
# random draws behind them) of every sampler.
SAMPLER_KINDS = {
    "euclidean": euclidean(3),
    "sphere": sphere(3),
    "product": sphere_product(2),
    "cayley-so": special_orthogonal(4),
    "cayley-u": unitary(2),
    "cayley-su": special_unitary(2),
}

# Every sampler kind, and the U(3), SU(3), SU(4) and SU(5) that ``r-u:3``,
# ``su-retract:3`` to ``su-retract:5`` and ``embed-u:3`` sample.
PINNED_VARIETIES = {
    **SAMPLER_KINDS,
    "cayley-u:3": unitary(3),
    "cayley-su:3": special_unitary(3),
    "cayley-su:4": special_unitary(4),
    "cayley-su:5": special_unitary(5),
}

# (sampler kind, height, seed): sha256 of the first 50 points of sample_points,
# one point per line as comma-separated "numerator/denominator", recorded
# when each stream came to draw all its points from one generator; the
# euclidean, sphere and product kinds again when they came to draw each
# point over one denominator.
SAMPLE_DIGESTS = {
    ("euclidean", 1000, 0): "43bdfa5cb54307550bbbbd687989b33b907cff4b2bea09ef2334757229c8c653",
    ("euclidean", 1000, 11): "59f96fe320e59dd158f1a3c680b258c8cc41a54cde300fc6756af6c84d0e0e40",
    ("euclidean", 50, 0): "e037b96860ebe74ea6150d7b9aa1046c94812343e54bc285de38f265e0d06340",
    ("euclidean", 50, 11): "49d395699884ef95faf71febb8bc7d8e5d3b3b436bc48df3103dbd7b4f6e4142",
    ("euclidean", 4, 0): "fe0a986c73af747549f11b94ce1adccab8cd93b7aa5df437e75a9791c05733ec",
    ("euclidean", 4, 11): "4a3115f824e1427b4f567ac2ba4e7291e1671d4735b45b56a21420e03a8da7a3",
    ("sphere", 1000, 0): "9cc2baf6472063880e73a339f220fa905548e93543394eda30faa454c9dfa7b5",
    ("sphere", 1000, 11): "45a6be337948218af0c3823b11079a7b0ef29cb7e9c634fc8d0af052d3eb0707",
    ("sphere", 50, 0): "83cf8a99e6997258ffffa8c0e9a37036ad54db86a9ecdacb4086c3b0b69e5d38",
    ("sphere", 50, 11): "5c5fb9831f0916073cd181ce1aaa4e21575c0104d0beb508f8d2713656889004",
    ("sphere", 4, 0): "945b396ad2507cfca4f715c14f4841cd7ebe2212e0c228ee76053b2f27e67401",
    ("sphere", 4, 11): "4b81a97c4642729ec43bbb748f443b76f1680849e1721d0c0bbd8ac9afdb92bb",
    ("product", 1000, 0): "31cad61c38e1f1c3efe934c34530904a841833beab063e18330a9db46850d04f",
    ("product", 1000, 11): "e16dfe97f363b01878c145ab308aeec2eae6bba31acebf6f3bba567ba9bb4cd9",
    ("product", 50, 0): "c7889923687c4e58b85280194672b2f2b5281495cc03f4f1255ea3c1ff158140",
    ("product", 50, 11): "a088d81cddc8d0cca049cfcc94ff07a8463af941e71efc2875615d06230da4d7",
    ("product", 4, 0): "7d718a0ebf5d591c77d983c5a2b62ef4ec921eb150954f9f0a9438cac92b8c99",
    ("product", 4, 11): "1dce48dcd0049d58675ffe4fae3bf288a12d95422746fcc92264426401b41410",
    ("cayley-so", 1000, 0): "660e04002310d2dd8e9718a15dff8e49cceb228f6b36ad2fb392d8b6a9670685",
    ("cayley-so", 1000, 11): "6943059332de67c881f6d01a7aea3c51cd780b0bf38c0a3e5fc3b0c91a2c1fd3",
    ("cayley-so", 50, 0): "e116e3966867b6bdb2e8d5394c82783603285f2e74794b6c956ef7d95ade3d7e",
    ("cayley-so", 50, 11): "e8cd91746f2e4d10301bf3d3a4d3ca2925e5c7b542e89053808e2eca72e2e91d",
    ("cayley-so", 4, 0): "56d1bfbeb3e676070557775ba8b413a3a08302d13a050f0fee5419e7acebd3c8",
    ("cayley-so", 4, 11): "100f7bbe9e469c28dbecc3dca0ff0d3dcadbf5872b321bcf7612c49a59c04b66",
    ("cayley-u", 1000, 0): "a5e35b24e508ed4b0c70a40d42cf1eba028ed3121f928bec5c07a6ead340602a",
    ("cayley-u", 1000, 11): "5510d2d795d46e9a62141d8346da417d7c9ab13686324d3913ddfd987a5c59f8",
    ("cayley-u", 50, 0): "e6bc60b14f831bbad6bfb88aa13dfca36894a95e351be86d789907687bf11f79",
    ("cayley-u", 50, 11): "9f5f44b9e2ea771bc7eb1cd0b10327cb7d17ac4aeb1b2c9db15be4d63f533669",
    ("cayley-u", 4, 0): "77034a67198a01c4e56cc98802d7bc1e8521861775673c151445eb224b37c763",
    ("cayley-u", 4, 11): "27eea366c10dd19d78bee35ce0c77f78f93a7473a2fca3262081ee81f5b891ee",
    ("cayley-su", 1000, 0): "7cd82fd5bde61ef77fcd22fd05a6146e2437a6c4306b04e88cc2ffd428895402",
    ("cayley-su", 1000, 11): "83ff68f6ffaa2d5ac4ac63f80a69cf1d1f4eebd00caa8310b57742543b1642c9",
    ("cayley-su", 50, 0): "9929eae1a22f49f6a93f1d614b529dbf4ab12a51e235ed97970e7865c82a852b",
    ("cayley-su", 50, 11): "0ca0a8e82d2d37cf1f191e656b1fe7835f5978e02c843cda03cca4cf0d00e706",
    ("cayley-su", 4, 0): "b3f9ce163913d768173d38a5dcd200bbf64df5a75daf727d92bb9659a206ac0f",
    ("cayley-su", 4, 11): "e386c946aabd42f1291bedf700b43921f974e17a6d8fd2d4e885d0af8f5fa565",
    ("cayley-u:3", 1000, 0): "fc4dc3c274c9ed45fd7be92af16f093eaec999f6f849265ba74fe39bacae1761",
    ("cayley-u:3", 1000, 11): "249063da4901c5f39af2ca6dad3a0538ea257d8a955baf705a0ba14e7fb7961e",
    ("cayley-u:3", 50, 0): "68ff1182f809d2898fc635168c8fb4947a7fc1241fd8cb9382a44212def40411",
    ("cayley-u:3", 50, 11): "60398bdca82ce919ae1759e468c97e3e128e33ea1212bca66a9e7bea995c0a5e",
    ("cayley-u:3", 4, 0): "fab65aebf470c534529bdc2e8719c8a3ab90a32392681c81864bdf25bfa228d1",
    ("cayley-u:3", 4, 11): "17403d0680e2e7dec67c0d23f0e71c0d79a932986f585ac43a5ae2bad2882635",
    ("cayley-su:3", 1000, 0): "656281ecbc1c8786dfc7eb7f6ece7f3f57b0c2b4422ebe61da12fb49651b9325",
    ("cayley-su:3", 1000, 11): "6071d844ebbd816413287c8045c1208be4b5fda4be390cf865ba7a905460acc3",
    ("cayley-su:3", 50, 0): "116d244dd18db947b015286d99d6a2880ee61b900df1ac46e82cd7d2b22c0da9",
    ("cayley-su:3", 50, 11): "caac152bc6ef50f860497608a45ee143e63b9576da2fd828906588cb7f7b67e3",
    ("cayley-su:3", 4, 0): "8e8ec2c9b862542732e53a23e9adcff90014d85024593a182f248080ddd77953",
    ("cayley-su:3", 4, 11): "e5091317258c85012d57ea91d75af317c399ce4e0b56895ad5c83caa2479e0d1",
    ("cayley-su:4", 1000, 0): "7cbf91fc9b2de10f9a05aba5e387dcaddd9a76c0ac7c91847c1e3f9e9ab565ec",
    ("cayley-su:4", 1000, 11): "0731855492b1cccbf8fe1faa49732ee4b330c73b567ddffccf92f7f0d5437f75",
    ("cayley-su:4", 50, 0): "02d4735cddd4b031684acd5e483047adc8650f441ede9aba507f3715edb7f69f",
    ("cayley-su:4", 50, 11): "dc21f82c9ea8c41605f5a216493559f09a22d10f7e2940500527625ae8a5dd61",
    ("cayley-su:4", 4, 0): "ad1706bacaae6367995930118f9e915e4597e67a69eb3452faf1f84abf109084",
    ("cayley-su:4", 4, 11): "25fcf81ab65a9a41aca61341e7663c292c19f77faa688788188843e663e1004b",
    ("cayley-su:5", 1000, 0): "c2b565eaa09e922d58fb83afda339d1d120269a7520840a588eeb5053cb8e8a0",
    ("cayley-su:5", 1000, 11): "7aaf23886ebe6ef9a47179e07043d1dc14f4d4565e97759f1b939427979d8e04",
    ("cayley-su:5", 50, 0): "1af645616858102a018f7e3e4546e037ea64e1c1349b50c8dfa9bf0dcae61d8b",
    ("cayley-su:5", 50, 11): "8c25ea960a0646e88bc9e1857e94a9fbc54f845dd33b7421695610466d72e3e5",
    ("cayley-su:5", 4, 0): "b1cf5fa5fc7a772af11bdde8336f300fdb14cb2991c7b4c3a73fdc80be221c6c",
    ("cayley-su:5", 4, 11): "aef451d984b461757a28e669b7555506dd98d152d406c387a1f1a5b109030a3c",
}


def _points_text(points):
    return "\n".join(
        ",".join(f"{c.numerator}/{c.denominator}" for c in p.coords) for p in points
    )


@pytest.mark.parametrize("kind", sorted(PINNED_VARIETIES))
def test_sampled_points_are_pinned(kind):
    variety = PINNED_VARIETIES[kind]
    for height in (1000, 50, 4):
        for seed in (0, 11):
            points = sample_points(variety, 50, seed, height=height)
            digest = hashlib.sha256(_points_text(points).encode()).hexdigest()
            assert digest == SAMPLE_DIGESTS[kind, height, seed], (height, seed)
            assert all(type(c) is Fraction for p in points for c in p.coords)


@pytest.mark.parametrize("kind", sorted(SAMPLER_KINDS))
def test_sampled_points_are_drawn_over_one_positive_denominator(kind):
    variety = SAMPLER_KINDS[kind]
    for height in (1000, 50, 4):
        for seed in (0, 5, 11):
            for point in sample_points(variety, 20, seed, height=height):
                q, nums = point.scaled
                assert type(q) is int and q > 0
                assert len(nums) == variety.ambient_dim
                assert all(type(n) is int for n in nums)
                assert all(type(c) is Fraction for c in point.coords)
                assert [Fraction(n, q) for n in nums] == list(point.coords)
                assert variety.first_violation_scaled(q, nums) is None


def test_a_stream_starts_at_the_sampled_point_of_its_seed():
    for kind, variety in SAMPLER_KINDS.items():
        for seed in (0, 3, 31):
            first = next(sample_stream(variety, seed))
            assert first.scaled == sample_point(variety, seed).scaled, (kind, seed)


def test_a_shorter_sample_is_a_prefix_of_a_longer_one():
    for kind, variety in SAMPLER_KINDS.items():
        short, longer = (sample_points(variety, count, 5) for count in (3, 7))
        assert [p.scaled for p in short] == [p.scaled for p in longer[:3]], kind


def test_neighbouring_seeds_share_no_point():
    for kind, variety in SAMPLER_KINDS.items():
        first, second = ({p.coords for p in sample_points(variety, 200, s)} for s in (0, 1))
        assert len(first) == len(second) == 200, kind
        assert not first & second, kind


def test_a_point_keeps_both_forms_of_its_coordinates():
    v = sphere(1)
    given = PointOnVariety(v, [Fraction(3, 5), Fraction(-4, 5)])
    scaled = PointOnVariety.from_scaled(v, 10, [6, -8])  # not in lowest terms
    assert scaled.scaled == (10, (6, -8))
    assert scaled.coords == given.coords and scaled == given and hash(scaled) == hash(given)
    assert scaled.coords is scaled.coords  # built once, on first read
    assert given.scaled == (5, (3, -4))
    with pytest.raises(PointValidationError):
        PointOnVariety.from_scaled(v, 5, [3, 3])
    with pytest.raises(PointValidationError):
        PointOnVariety.from_scaled(v, 5, [3, -4, 0])
    with pytest.raises(PointValidationError):
        PointOnVariety.from_scaled(v, -5, [-3, 4])


def test_first_violation_is_the_same_from_either_form():
    so3 = special_orthogonal(3)
    cases = [
        (so3, [Fraction(x) for x in (-1, 0, 0, 0, 1, 0, 0, 0, 1)], (12, Fraction(-2))),
        (so3, [Fraction(x) for x in (2, 0, 0, 0, 1, 0, 0, 0, 1)], (0, Fraction(3))),
        (sphere(2), [Fraction(1, 2), Fraction(1, 3), Fraction(0)], (0, Fraction(-23, 36))),
        (special_unitary(1), [Fraction(0), Fraction(1)], (2, Fraction(-1))),
        (sphere(2), [Fraction(3, 5), Fraction(0), Fraction(-4, 5)], None),
    ]
    rng = random.Random(3)
    for variety, coords, expected in cases:
        assert variety.first_violation(coords) == expected
        q = lcm(*[c.denominator for c in coords])
        for k in (1, 6, rng.randint(2, 10**9)):  # the reduced form and unreduced ones
            nums = [c.numerator * (k * q // c.denominator) for c in coords]
            assert variety.first_violation_scaled(k * q, nums) == expected, (variety, k)


def _sampled_coords(variety, seed):
    return list(sample_point(variety, seed, height=3).coords)


def _failing_points():
    """Named failing points of every built-in kind and small size, with
    the first failing relation and its residual."""
    f = Fraction
    s4 = [f(3, 5), 0, 0, 0, f(8, 5)]
    cases = {
        "S0 stretched": (sphere(0), [f(2)], (0, f(3))),
        "S2 stretched": (sphere(2), [f(6, 5), 0, f(4, 5)], (0, f(27, 25))),
        "S4 stretched": (sphere(4), s4, (0, f(48, 25))),
        "S2xS2 second block": (
            sphere_product(2), [f(3, 5), f(4, 5), 0, 0, f(3, 5), f(8, 5)], (1, f(48, 25))
        ),
    }
    scaled_row = {
        2: f(27, 25), 3: f(13467, 10609), 4: f(30603, 243049), 5: f(1, 38307)
    }
    for n, residual in scaled_row.items():
        group = special_orthogonal(n)
        reflected = _sampled_coords(group, n)
        reflected[:n] = [-x for x in reflected[:n]]  # det -1, Gram relations kept
        cases[f"SO{n} reflected"] = (group, reflected, (n * (n + 1), f(-2)))
        stretched = _sampled_coords(group, 7)
        stretched[:n] = [2 * x for x in stretched[:n]]
        cases[f"SO{n} scaled row"] = (group, stretched, (0, residual))
    scaled_row = {1: f(3), 2: f(3, 17), 3: f(170787, 203125)}
    for k, residual in scaled_row.items():
        stretched = _sampled_coords(unitary(k), 7)
        stretched[: 2 * k] = [2 * x for x in stretched[: 2 * k]]
        cases[f"U{k} scaled row"] = (unitary(k), stretched, (0, residual))
        group = special_unitary(k)
        turned = _sampled_coords(group, k)
        for i in range(0, 2 * k * k, 2 * k):  # column 0 times i: det i
            turned[i], turned[i + 1] = -turned[i + 1], turned[i]
        # det - 1 is the first relation after the Gram relations of U(k)
        cases[f"SU{k} det i"] = (group, turned, (len(unitary(k).relations), f(-1)))
    return cases


@pytest.mark.parametrize("name", sorted(_failing_points()))
def test_first_violation_is_pinned_on_failing_points_of_every_kind(name):
    variety, coords, expected = _failing_points()[name]
    coords = [Fraction(c) for c in coords]
    assert variety.first_violation(coords) == expected
    q = lcm(*[c.denominator for c in coords])
    for k in (1, 7, 10**12 + 39):  # the reduced form and unreduced ones
        nums = [c.numerator * (k * q // c.denominator) for c in coords]
        assert variety.first_violation_scaled(k * q, nums) == expected, k


# Every built-in family at small sizes, with the size of its real matrix
# when det = 1 is checked after the relations by rational elimination
# (SO(n)), else 0; SU(k) is checked by its Leibniz polynomials instead.
SMALL_VARIETIES = [
    *[(sphere(n), 0) for n in range(5)],
    *[(sphere_product(n), 0) for n in range(3)],
    *[(euclidean(n), 0) for n in range(1, 4)],
    *[(special_orthogonal(n), n) for n in range(1, 6)],
    *[(unitary(k), 0) for k in range(1, 4)],
    *[(special_unitary(k), 0) for k in range(1, 4)],
]


@lru_cache(maxsize=None)
def _leibniz_determinant(k):
    """Re det - 1 and Im det of a k x k complex matrix over the registry of
    U(k), by the Leibniz rule: k! terms each."""
    group = unitary(k)
    coords = [Polynomial.variable(group.registry, i) for i in range(group.ambient_dim)]
    det_re, det_im = poly_matrix_determinant(group.matrix.rows(coords))
    return det_re - 1, det_im


def _reference_violation(variety, determinant_size, coords):
    """Every relation in order by exact ``Fraction`` evaluation, then the
    determinant: the SU one as two more relations, its Leibniz real and
    imaginary parts, and the SO one by rational elimination."""
    relations = list(variety.relations)
    group = variety.matrix
    if group is not None and group.special and group.complex_entries:
        relations += _leibniz_determinant(group.size)
    for index, relation in enumerate(relations):
        residual = relation.evaluate(coords)
        if residual:
            return index, residual
    if determinant_size:
        det = determinant(as_matrix(coords, determinant_size))
        if det != 1:
            return len(relations), det - 1
    return None


def _near_misses(variety, q, nums, rng):
    """Scaled points near ``(q, nums)`` that break a relation, or the
    determinant, in one way each: one coordinate moved; for a matrix
    group, row 1 replaced by row 0 and by i times row 0, and row 0 times
    -1 and times i."""
    bumped = list(nums)
    bumped[rng.randrange(len(nums))] += rng.choice((-1, 1)) * rng.randint(1, q)
    yield bumped
    group = variety.matrix
    if group is None:
        return
    width = group.size * (2 if group.complex_entries else 1)
    row, rest = list(nums[:width]), list(nums[width:])
    yield [-x for x in row] + rest
    if group.size > 1:
        yield row + row + rest[width:]
    if group.complex_entries:
        turned = [x for a, b in zip(row[::2], row[1::2]) for x in (-b, a)]
        yield turned + rest
        if group.size > 1:
            yield row + turned + rest[width:]


@pytest.mark.parametrize("variety, determinant_size", SMALL_VARIETIES, ids=str)
def test_first_violation_matches_the_relation_by_relation_reference(variety, determinant_size):
    rng = random.Random(variety.name)
    checked = failed = 0
    for seed in (0, 9):
        for point in sample_points(variety, 20, seed, height=50):
            q, nums = point.scaled
            for scaled in [nums, *_near_misses(variety, q, nums, rng)]:
                k = rng.choice((1, 12))  # the sampled form, or an unreduced one
                coords = [Fraction(n, q) for n in scaled]
                expected = _reference_violation(variety, determinant_size, coords)
                assert variety.first_violation_scaled(k * q, [k * n for n in scaled]) == expected
                checked += 1
                failed += expected is not None
    for other, coords, _ in _failing_points().values():
        if other is variety:
            coords = [Fraction(c) for c in coords]
            expected = _reference_violation(variety, determinant_size, coords)
            assert expected is not None and variety.first_violation(coords) == expected
    assert checked >= 80 and (failed >= 40 or not variety.relations)


@pytest.fixture
def scaled_numerator_calls(monkeypatch):
    """The number of ``Polynomial.scaled_numerator`` calls so far, as a
    one-item list."""
    calls = [0]
    original = Polynomial.scaled_numerator

    def counted(self, nums, q):
        calls[0] += 1
        return original(self, nums, q)

    monkeypatch.setattr(Polynomial, "scaled_numerator", counted)
    return calls


def test_sampled_points_of_built_in_groups_evaluate_no_relation(scaled_numerator_calls):
    for name in ("S3", "S3xS3", "SO5", "U3", "SU3"):
        variety = variety_by_name(name)
        assert len(sample_points(variety, 20, seed=4, height=50)) == 20
        assert scaled_numerator_calls == [0], name
    # a sphere-block variety checks a given point by its kernel too
    assert sphere(1).first_violation_scaled(5, [3, 4]) is None
    assert scaled_numerator_calls == [0]
    # a failing point is reported by the relations, one at a time
    q, nums = sample_point(unitary(3), 4, height=50).scaled
    assert unitary(3).first_violation_scaled(q, [2 * n for n in nums]) is not None
    assert scaled_numerator_calls[0] > 0


def test_integer_solve_matches_the_rational_solve():
    rng = random.Random(8)
    cases = [([[0, 2], [3, 4]], [[1], [2]]), ([[5]], [[3, -10]])]
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [[rng.choice((0, rng.randint(-9, 9), rng.randint(-10**9, 10**9))) for _ in range(n)]
             for _ in range(n)]
        width = rng.randint(1, n + 1)
        b = [[rng.randint(-50, 50) for _ in range(width)] for _ in range(n)]
        cases.append((a, b))
    solved = 0
    for a, b in cases:
        det = integer_determinant(a)
        if det == 0:
            with pytest.raises(ValueError):
                integer_solve(a, b)
            with pytest.raises(ValueError, match="singular"):
                solve([[Fraction(x) for x in row] for row in a], [[Fraction(1)] for _ in a])
            continue
        got_det, y = integer_solve(a, b)
        assert got_det == det
        expected = solve(
            [[Fraction(x) for x in row] for row in a], [[Fraction(x) for x in row] for row in b]
        )
        assert [[Fraction(v, det) for v in row] for row in y] == expected
        solved += 1
    assert solved > 150


def test_sphere_parameters_may_be_integers():
    assert sphere_coords_from_parameters([0]) == (Fraction(1), Fraction(0))
    coords = sphere_coords_from_parameters([2, Fraction(-1, 3)])
    assert all(type(c) is Fraction for c in coords)
    assert coords == sphere_coords_from_parameters([Fraction(2), Fraction(-2, 6)])
    assert sum(c * c for c in coords) == 1


def test_point_coordinates_are_fractions_and_every_relation_is_checked():
    point = PointOnVariety(sphere(1), [0, 1])
    assert all(type(c) is Fraction for c in point.coords)
    kept = Fraction(3, 5)
    assert PointOnVariety(sphere(1), [kept, Fraction(4, 5)]).coords[0] == kept
    # SO(2) with an orthogonal but reflecting matrix fails only the determinant relation
    with pytest.raises(PointValidationError):
        PointOnVariety(special_orthogonal(2), [1, 0, 0, -1])


@pytest.mark.parametrize("n", range(1, 11))
def test_special_orthogonal_keeps_only_its_gram_relations(n):
    # M^T M - I and M M^T - I, upper triangles, n + 1 terms each; det = 1
    # is the recorded matrix size, not an n!-term polynomial
    group = special_orthogonal(n)
    assert len(group.relations) == n * (n + 1)
    assert {r.total_degree() for r in group.relations} == {2}
    assert max(len(r) for r in group.relations) <= n * n + 1
    assert group.matrix == MatrixGroup(n, False, True)


@pytest.mark.parametrize("k", range(1, 6))
def test_special_unitary_keeps_only_the_relations_of_unitary(k):
    # det = 1 is the recorded matrix, not two k!-term polynomials
    group = special_unitary(k)
    assert group.relations == unitary(k).relations
    assert group.matrix == MatrixGroup(k, True, True)
    assert unitary(k).matrix == MatrixGroup(k, True, False)


@pytest.mark.parametrize("group", [special_orthogonal(3), unitary(2), special_unitary(2)],
                         ids=lambda g: g.name)
@pytest.mark.parametrize("ring", ["polynomial", "integer"])
def test_coordinates_and_rows_invert_each_other(group, ring):
    matrix, dim = group.matrix, group.ambient_dim
    if ring == "polynomial":
        coords = [Polynomial.variable(group.registry, i) for i in range(dim)]
    else:
        coords = list(sample_point(group, seed=3, height=9).scaled[1])
    assert matrix.coordinates(matrix.rows(coords)) == coords
    # rows spelled out by the layout: row-major, a complex entry (re, im)
    n, width = matrix.size, 2 if matrix.complex_entries else 1
    parts = [[coords[width * (i * n + j) : width * (i * n + j + 1)] for j in range(n)]
             for i in range(n)]
    rows = [[ComplexPair(*p) if matrix.complex_entries else p[0] for p in row] for row in parts]
    assert matrix.rows(coords) == rows
    assert matrix.rows(matrix.coordinates(rows)) == rows
    # any shape: one column is a realified vector, read back by ``entries``
    column = [[row[0]] for row in rows]
    assert matrix.entries(matrix.coordinates(column)) == [row[0] for row in rows]


def test_no_built_in_relation_has_degree_above_two():
    for family in (sphere, sphere_product, euclidean, special_orthogonal, unitary, special_unitary):
        for size in range(0 if family in (sphere, sphere_product) else 1, 6):
            degrees = {r.total_degree() for r in family(size).relations}
            assert degrees <= {2}, family(size).name


@pytest.mark.parametrize("k", (1, 2, 3))
def test_special_unitary_normals_end_with_the_determinant_gradients(k):
    # at g in SU(k), adj g = g*: the gradients of Re det and Im det are the
    # point and the point turned, each pair (a, b) as (-b, a)
    group = special_unitary(k)
    dim = group.ambient_dim
    leibniz = _leibniz_determinant(k)
    for point in sample_points(group, 4, seed=k, height=20):
        coords = point.coords
        expected = [[p.differentiate(j).evaluate(coords) for j in range(dim)] for p in leibniz]
        normals = group.normals(coords)
        assert normals[-2:] == expected
        assert normals[:-2] == unitary(k).normals(coords)
        assert len(normals) == len(group.relations) + 2
    # det is locally constant on O(n): SO(n) adds no row
    rotation = sample_point(special_orthogonal(3), k, height=20).coords
    assert len(special_orthogonal(3).normals(rotation)) == len(special_orthogonal(3).relations)


def test_first_violation_reports_the_determinant_after_the_relations():
    so3 = special_orthogonal(3)
    reflection = [Fraction(x) for x in (-1, 0, 0, 0, 1, 0, 0, 0, 1)]
    assert so3.first_violation(reflection) == (12, Fraction(-2))
    # a Gram relation fails first, at its own index and residual
    stretched = [Fraction(x) for x in (2, 0, 0, 0, 1, 0, 0, 0, 1)]
    assert so3.first_violation(stretched) == (0, Fraction(3))
    assert special_orthogonal(1).first_violation([Fraction(-1)]) == (2, Fraction(-2))
    assert special_orthogonal(1).first_violation([Fraction(1)]) is None
    for point in sample_points(special_orthogonal(4), 5, seed=2, height=30):
        assert special_orthogonal(4).first_violation(point.coords) is None


def test_integer_determinant_matches_the_rational_elimination():
    rng = random.Random(12)
    cases = [
        [[0, 2], [3, 4]],  # zero leading pivot
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # a zero pivot at two steps
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],  # singular
        [[0, 1], [0, 5]],  # singular with a zero first column
        [[7]],
    ]

    def entry():
        return rng.choice((0, 0, rng.randint(-50, 50), rng.randint(-10**12, 10**12)))

    for _ in range(300):
        n = rng.randint(1, 7)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # the first row a combination of later ones
            m[0] = [rng.randint(-3, 3) * a + b for a, b in zip(m[-1], m[n // 2])]
        cases.append(m)
    for m in cases:
        expected = determinant([[Fraction(x) for x in row] for row in m])
        assert integer_determinant(m) == expected, m
    assert integer_determinant([]) == 1
    with pytest.raises(ValueError):
        integer_determinant([[1, 2]])


def test_integer_determinant_over_gaussian_integers_matches_the_rational_one():
    rng = random.Random(31)

    def entry():
        return ComplexPair(*(rng.choice((0, rng.randint(-9, 9), rng.randint(-10**9, 10**9)))
                             for _ in range(2)))

    zero = ComplexPair(0, 0)
    cases = [[[zero, ComplexPair(1, 2)], [ComplexPair(3, -1), ComplexPair(0, 5)]]]
    for k in range(1, 6):
        for _ in range(60):
            m = [[entry() for _ in range(k)] for _ in range(k)]
            shape = rng.randrange(3)
            if k > 1 and shape == 1:  # a zero first pivot: the elimination swaps rows
                m[0][0] = zero
            elif k > 1 and shape == 2:  # singular: the first row a combination of later ones
                factor = ComplexPair(rng.randint(-3, 3), rng.randint(-3, 3))
                m[0] = [factor * a + b for a, b in zip(m[-1], m[k // 2])]
            cases.append(m)
    singular = 0
    for m in cases:
        rational = [[ComplexPair(Fraction(z.re), Fraction(z.im)) for z in row] for row in m]
        expected = determinant(rational)
        got = integer_determinant(m)
        assert got == expected and all(type(part) is int for part in got), m
        singular += not got
    assert singular >= 30


def test_rank_matches_the_pivots_of_the_rational_echelon_form():
    # products of random factors of every inner width r, so every rank
    # deficiency occurs, then zero rows, zero columns and repeated rows
    rng = random.Random(41)

    def entry():
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-10**9, 10**9)))

    cases = [[[]], [[0, 0]], [[0], [0]], [[Fraction(1, 3), 2], [1, 6]]]
    for _ in range(240):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(rows, cols))
        left = [[entry() for _ in range(r)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(r)]
        m = [[sum(row[k] * right[k][j] for k in range(r)) for j in range(cols)] for row in left]
        if rng.random() < 0.3:
            m.insert(rng.randint(0, len(m)), [0] * cols)
        if rng.random() < 0.3:
            at = rng.randint(0, cols)
            m = [row[:at] + [0] + row[at:] for row in m]
        if rng.random() < 0.3:
            m.append(list(rng.choice(m)))
        if rng.random() < 0.5:  # Fraction entries: each row over its own denominator
            m = [[Fraction(x, d) for x in row] for row in m for d in [rng.randint(1, 10**6)]]
        cases.append(m)
    shapes, deficiencies = set(), set()
    for m in cases:
        echelon = row_echelon([[Fraction(x) for x in row] for row in m])
        expected = sum(1 for row in echelon if any(row))
        assert rank(m) == expected, m
        rows, cols = len(m), len(m[0])
        shapes.add((rows > cols) - (rows < cols))
        deficiencies.add(min(rows, cols) - expected)
    assert shapes == {-1, 0, 1}
    assert set(range(8)) <= deficiencies
    # the shared elimination still reports singular square matrices: a
    # Gaussian-integer determinant as a zero ComplexPair, a solve by raising
    zero, z = ComplexPair(0, 0), ComplexPair(2, -3)
    for m in ([[zero, z], [zero, z * z]], [[z, z * z], [ComplexPair(1, 0), z]]):
        got = integer_determinant(m)
        assert isinstance(got, ComplexPair) and not got
        assert list(got - 1) == [-1, 0]
    for a in ([[0, 1], [0, 5]], [[1, 2, 3], [2, 4, 6], [0, 1, 1]], [[2, 4], [3, 6]]):
        with pytest.raises(ValueError, match="matrix is singular"):
            integer_solve(a, [[1] for _ in a])


def test_generic_determinant_has_every_permutation_term():
    n = 7
    reg = VarRegistry(f"g{i}{j}" for i in range(n) for j in range(n))
    det = poly_matrix_determinant(
        MatrixGroup(n, False, False).rows([Polynomial.variable(reg, i) for i in range(n * n)])
    )
    assert len(det) == 5040
    assert {abs(c) for c in det.terms.values()} == {1}
    rng = random.Random(49)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    assert det.evaluate([x for row in m for x in row]) == determinant(m)


@pytest.mark.parametrize(
    "name, message",
    [
        # ``$`` would match before the trailing newline
        ("S1\n", "unknown variety name"),
        ("SO3\n", "unknown variety name"),
        ("S2xS2\n", "unknown variety name"),
        # reads as S1, whose name is not "S01"
        ("S01", "unknown variety name"),
        ("S2xS3", "unsupported product variety"),
        ("SO2xS2", "unknown variety name"),
    ],
)
def test_variety_by_name_takes_only_canonical_names(name, message):
    with pytest.raises(ValueError, match=message):
        variety_by_name(name)
