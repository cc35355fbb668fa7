"""Variety registry and the exact rational point samplers."""

import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from reference_linalg import determinant, mat_mul, sphere_coords_from_parameters, transpose
from regmaps.linalg import identity, integer_determinant, integer_solve, inverse, solve
from regmaps.polynomial import ComplexPair, VarRegistry, polynomial_to_json
from regmaps.varieties import (
    NoSamplerError,
    PointOnVariety,
    PointValidationError,
    Variety,
    _bounded_pairs,
    _cayley,
    euclidean,
    matrix_entry_polys,
    poly_matrix_determinant,
    sample_point,
    sample_points,
    special_orthogonal,
    special_unitary,
    sphere,
    sphere_product,
    unitary,
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


def test_block_reducibility_flags():
    assert sphere(3).block_reducible()
    assert sphere_product(2).block_reducible()
    assert euclidean(3).block_reducible()  # no relations at all
    assert not special_orthogonal(3).block_reducible()
    assert not unitary(2).block_reducible()
    assert not special_unitary(2).block_reducible()


def test_point_validation():
    e = PointOnVariety(sphere(2), [1, 0, 0])
    assert e.coords == (Fraction(1), Fraction(0), Fraction(0))
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


def test_sample_points_indexing_matches_single_samples():
    v = sphere(2)
    batch = sample_points(v, 4, seed=6)
    for i, p in enumerate(batch):
        assert p.coords == sample_point(v, 6 * 1_000_003 + i).coords


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
    p = sample_point(sphere(2), seed=1, height=5)
    for c in p.coords:
        assert abs(c.numerator) <= 4 * 5 ** 4  # crude bound from the chart formula
        assert c.denominator <= 4 * 5 ** 4


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


@pytest.mark.parametrize("height", [0, -3])
@pytest.mark.parametrize(
    "variety", [sphere(2), sphere_product(2), special_orthogonal(3)], ids=lambda v: v.name
)
def test_a_height_below_one_is_refused(variety, height):
    with pytest.raises(ValueError):
        sample_point(variety, seed=0, height=height)


# (family, k): (number of relations, sha256 of their JSON, one per line, in order).
# `verify` reads the relations in this order, so the order is pinned too.
RELATION_DIGESTS = {
    (unitary, 1): (2, "ef602133c30ac7d2b1e081aa36542c4e3f3ee56898563e16809d0d34802da6e3"),
    (unitary, 2): (8, "61075427cdfcc50daf04d6e5f43ecb08bbafb5b06e60925b635bb2258b345c1b"),
    (unitary, 3): (18, "7bc070a472dbcc8137c05449fcb657c33c82329232b8c561527ce11d16a0c97b"),
    (special_unitary, 1): (4, "7125b0ff0a09b6eba6439419f6d929aa0c8dc7c9b717000d1fa31aecf652472d"),
    (special_unitary, 2): (10, "815088e08427d198b03401014a545e50e31882c5f542152776f41945dfa6a517"),
    (special_unitary, 3): (20, "d544c9f7fce363bd97653d20136a18504a94b2b874c9f47207c1c54d43ca3771"),
}


@pytest.mark.parametrize(
    "family, k", sorted(RELATION_DIGESTS, key=lambda fk: (fk[0].__name__, fk[1])),
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_unitary_relations_are_pinned(family, k):
    relations = family(k).relations
    digest = hashlib.sha256("\n".join(map(polynomial_to_json, relations)).encode())
    assert (len(relations), digest.hexdigest()) == RELATION_DIGESTS[family, k]


# One variety per sampler kind; the digests were recorded before the sphere
# sampler moved to integer arithmetic, so they pin the exact points (and the
# random draws behind them) of every sampler.
SAMPLER_KINDS = {
    "euclidean": euclidean(3),
    "sphere": sphere(3),
    "product": sphere_product(2),
    "cayley-so": special_orthogonal(4),
    "cayley-u": unitary(2),
    "cayley-su": special_unitary(2),
}

# Every sampler kind, and the U(3) and SU(3) that ``r-u:3``, ``su-retract:3``
# and ``embed-u:3`` sample; the k = 3 digests were recorded before the unitary
# samplers moved to the fraction-free Cayley transform, and the SU(4)/SU(5)
# ones (``su-retract:4``, ``su-retract:5``) before the SU(k) determinant
# correction moved to Gaussian integers.
PINNED_VARIETIES = {
    **SAMPLER_KINDS,
    "cayley-u:3": unitary(3),
    "cayley-su:3": special_unitary(3),
    "cayley-su:4": special_unitary(4),
    "cayley-su:5": special_unitary(5),
}

# (sampler kind, height, seed): sha256 of the first 50 points of sample_points,
# one point per line as comma-separated "numerator/denominator".
SAMPLE_DIGESTS = {
    ("euclidean", 1000, 0): "f7a73b26b94624ff0aca0ae11a26ccfe936a97036421c14bbdc1505e3bc80451",
    ("euclidean", 1000, 11): "3d6568fa252d1cc99224111da847e918e5b71cb683f7f2167232fffe48ccc395",
    ("euclidean", 50, 0): "f82aa90ee192a5b03c09b6b15a8a670b02289ebf8c3560297b6d59f2041caf45",
    ("euclidean", 50, 11): "7bec3137980c7181fe8354dfaf82eb9433acf906ed2120078d88eca9ba20efff",
    ("euclidean", 4, 0): "d4c4464e27a3a5c5578f7d3decb8cade98fa82178d871bb6622cb65fa604bd83",
    ("euclidean", 4, 11): "a43ef245ffaf84e846dd43d00b1a50804e6a68aa14d6b5c19475eaf4a25c975f",
    ("sphere", 1000, 0): "5e27192e2213f3454ff525dffe03481bda060a44081707e7834fcd96a5b21061",
    ("sphere", 1000, 11): "986cec4af7467e3b32dc2fcaa1133c6ee77af8e7a5657fa96d2d17a3bcea4125",
    ("sphere", 50, 0): "7c2e7ef1f4fab1f9cef6ddc1aeecb3b71d5a45bce33d36a0e8a75ce70c5a75cb",
    ("sphere", 50, 11): "677f78a4449fdbe97606369e90550e61c108508debb12651a081e36d40572ec8",
    ("sphere", 4, 0): "fad7ac1eeb410495d159bcf4ae1d0a2f2cee3e6b9773f7bdd4e0b28aec5e7c8a",
    ("sphere", 4, 11): "ddd8dcfec48846b24a915864ce5b17e07a23c523cd4a92a1d0e8c0b158c1adf6",
    ("product", 1000, 0): "29a60cde345151378ccb9a726aa4b31b00cdc570c6f07666862543c139900dd2",
    ("product", 1000, 11): "b51b987515c2630ad22724e05bb294cb58b6e7e93a4c641b91cde1cdcab0c2f5",
    ("product", 50, 0): "8e3cd8940d433d7849dbfe6b0d7f929ebd2d3c5c43cc4e671704ca1beabd3b4c",
    ("product", 50, 11): "d5f7a5711ceb1b72910300f0c27aa9f185dbfd46d8f9cc2adeab2f16257000ad",
    ("product", 4, 0): "2977b639bbf7c89e512d094051313f0f9ae054f326a71398e6db4f77af7e2db2",
    ("product", 4, 11): "22f1dbfaec0aa4f87f6ad2eb673fd0c76ed85483779ec56944dbc051ec27f860",
    ("cayley-so", 1000, 0): "c778fc4863d162dee2e275f203b843c4a8ba1d1e448d9fcc03ee9acfc55e3172",
    ("cayley-so", 1000, 11): "b8be6d93deb2e5b5a10d62d757bc226350f56a38eb9a4166523430a6bbb41e21",
    ("cayley-so", 50, 0): "60843bc37d1f1f05d632081b0f7be3e629f51e4b7c903a004db97515c80ae254",
    ("cayley-so", 50, 11): "284abcb99f5e693e7ee05a7542c999e4c747ae0fb090ff5be2b49990f5506486",
    ("cayley-so", 4, 0): "73fb864d8374008f0dcac034d2665a4580b2b50320ded8386200344cb2d2acee",
    ("cayley-so", 4, 11): "730191b86daad3669a5bf8a4ba0c4a5203ba924d51b14a8933941b55af9946c8",
    ("cayley-u", 1000, 0): "1d1da5d7ceeb44361208963aa5af43615a1002a68b1a5eb4100678dfb30b3261",
    ("cayley-u", 1000, 11): "82ae74e00cd29af33db4caa0802cd1f41bb215ec1bdad0be63b338e8efe5553a",
    ("cayley-u", 50, 0): "8845aef882f2e0587c23970e67f3a2c15f1580f244559ea930df411af79b54c5",
    ("cayley-u", 50, 11): "acd5fa5dfa01507fa9fa403a090d91e8299308ec38620cb8a74895ac68b82e85",
    ("cayley-u", 4, 0): "ecc7f2ad3ff670279be207ff3cbcc9fdbe1d48d3ffa4eb2ca86ba9a09b14bf07",
    ("cayley-u", 4, 11): "6b743c2e113147c0e3db669f17fb97ec0694ee7e11919a6b5bf9fb9a6cd95ee8",
    ("cayley-su", 1000, 0): "20cea0f93956b9cf224c1a213e27d368b9ef0395141793c7955527e2d63c721d",
    ("cayley-su", 1000, 11): "0253fbc00a90c5adef68808a918da91aa79218bff455b01e485f72e293cb1569",
    ("cayley-su", 50, 0): "47770ca0781ef80ffda3c881f87d6c3a4d84e3a6027588b140b44f5c3b05410c",
    ("cayley-su", 50, 11): "4dcf5ac664aaafab709563a7d8173081ed4b5b8412550f8dfe81b73842bb9a5c",
    ("cayley-su", 4, 0): "eac36d1f9a7662d8612fabd479373673cb85d89d8bae29778d96c8c12bffdffe",
    ("cayley-su", 4, 11): "540c2c5e6f58e4a2680351fc98e971c3c59e925325ebe3cfd5b5d22122b7139a",
    ("cayley-u:3", 1000, 0): "4cea182cdd78c60e3687e7f94d112eb1e84ab81e3b4e4a4adef990b8e2995473",
    ("cayley-u:3", 1000, 11): "9356d89a69174235359951f9fcada394d4b1fe0c8cc30d8e3b85530119ed1ba8",
    ("cayley-u:3", 50, 0): "bcfd56b16b108628f2d65ee47110054f8c9aa240f1b8c08b195d9bf5e7806d10",
    ("cayley-u:3", 50, 11): "79cd7544100f45c85fe9a2ba22f4bb156ec3fc429ed313ef965d093427cbca1f",
    ("cayley-u:3", 4, 0): "c24792d58a8ed9fd41f6b47c25ebe949c3be5cfb188d031f34c225f699a2ae77",
    ("cayley-u:3", 4, 11): "144f6596659a8801fe535e186c3b58c12fef6c841a1379b3fa6a2584fe1fca46",
    ("cayley-su:3", 1000, 0): "8624b023ac0b036a7290f2ddb0b68ce17347016eb1dbd06652e84427d3a21591",
    ("cayley-su:3", 1000, 11): "9ea42f9e0bcc09e2c9562d0ea2315fa0698b885e4ea32c69d42df14301b19173",
    ("cayley-su:3", 50, 0): "150777d90dbe91ab66c105df9582f186c295394353f9dc46befabcb4ec00dcec",
    ("cayley-su:3", 50, 11): "def7eb9cc2a61e66f9c884b829bf5fc165a8ff107953e2b3c2767597be53c45e",
    ("cayley-su:3", 4, 0): "3b00eee59e7a99bdb7209cb69f18cb82b9d66e92671a517029f9df0d0ad50b5f",
    ("cayley-su:3", 4, 11): "944ca18366e51b184e2f07d7c8043ed2522a7d4fa80e9d43ed66ff4ff28a0ff7",
    ("cayley-su:4", 1000, 0): "5fbb564d6ff995be763a239923e19635a9081c12d803cf9ee8e2a376654ebba1",
    ("cayley-su:4", 1000, 11): "24f119a15eb884d6e1ced21576e93aba6c1540ed64463d2d0a3384e869a780f1",
    ("cayley-su:4", 50, 0): "22b3a06d810eed9ef61c2e0a167d28bd41deb0d29b0c8ee893e63d2631662df5",
    ("cayley-su:4", 50, 11): "bc51eafc283e808637b5d51ff47feaf7832c0f87526bb9350ac4731e5e1de9d1",
    ("cayley-su:4", 4, 0): "683c64e3152b5d8f614c9ea30b43f47be61f8e1c6b7f03ae6c6f0de0bcf1432c",
    ("cayley-su:4", 4, 11): "9518e0f914cf0fc36d41ee32f76e3896207a039564ef9340e2aff0e0446c7f0d",
    ("cayley-su:5", 1000, 0): "00e68754dfe7d567a27c4927859b3349d36955881c11048c2044fcf51b0ce601",
    ("cayley-su:5", 1000, 11): "694281a94ec89374c99d949fe8b86f2cc6efebce0549804b6c5194ae10871641",
    ("cayley-su:5", 50, 0): "c9f8ef7df06556754a6286c3b9c0a49af4435d938862240c76b42d3165dfa584",
    ("cayley-su:5", 50, 11): "36853cd8c5fb24e7e21b26875db1612631838bfbccf56dba7ab8a1bc14976c9a",
    ("cayley-su:5", 4, 0): "197d837ed5bd6d91a8e65d5f81bc2e1b2c5c74bef7a705986e47452c2c59094f",
    ("cayley-su:5", 4, 11): "bc13084550c8ca94515b1c7fb03082f7cdb152d2a59e4629d1ace8919832d3a4",
}


def _points_text(points):
    return "\n".join(
        ",".join(f"{c.numerator}/{c.denominator}" for c in p.coords) for p in points
    )


@pytest.mark.parametrize("kind", sorted(PINNED_VARIETIES))
def test_sampled_points_are_pinned(kind):
    variety = PINNED_VARIETIES[kind]
    assert variety.sampler == kind.split(":")[0]
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
    assert group.unit_determinant == n


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


def test_generic_determinant_has_every_permutation_term():
    n = 7
    reg = VarRegistry(f"g{i}{j}" for i in range(n) for j in range(n))
    det = poly_matrix_determinant(matrix_entry_polys(reg, n))
    assert len(det) == 5040
    assert {abs(c) for c in det.terms.values()} == {1}
    rng = random.Random(49)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    assert det.evaluate([x for row in m for x in row]) == determinant(m)


def test_missing_sampler_is_reported():
    bare = Variety("bare", VarRegistry(["t"]), relations=())
    with pytest.raises(NoSamplerError):
        sample_point(bare, seed=0)
