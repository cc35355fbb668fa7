"""Variety registry and the exact rational point samplers."""

import hashlib
import random
from fractions import Fraction

import pytest

from regmaps.linalg import GaussianRational, determinant, identity, mat_mul, transpose
from regmaps.polynomial import VarRegistry, polynomial_to_json
from regmaps.varieties import (
    NoSamplerError,
    PointOnVariety,
    PointValidationError,
    Variety,
    _cayley_orthogonal,
    euclidean,
    sample_point,
    sample_points,
    special_orthogonal,
    special_unitary,
    sphere,
    sphere_coords_from_parameters,
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
            row.append(GaussianRational(coords[base], coords[base + 1]))
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
    # check=False admits off-variety coordinates (used for probe scaffolding)
    raw = PointOnVariety(sphere(2), [1, 1, 0], check=False)
    assert raw.coords[1] == 1


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


def test_cayley_small_cases():
    assert _cayley_orthogonal([], 1) == [[Fraction(1)]]
    assert _cayley_orthogonal([Fraction(0)], 2) == identity(2)
    got = _cayley_orthogonal([Fraction(1)], 2)
    assert got == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


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
        assert determinant(z) == GaussianRational(Fraction(1), Fraction(0))


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


def test_missing_sampler_is_reported():
    bare = Variety("bare", VarRegistry(["t"]), relations=())
    with pytest.raises(NoSamplerError):
        sample_point(bare, seed=0)
