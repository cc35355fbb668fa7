"""Coordinate maps: every output coordinate is +- a domain coordinate or a
constant, over the denominator 1.  The builders of the subgroup inclusions,
first-column projections, identities, reflections and constants are pinned
here by the sha256 of their `map_to_json`, so that a rewrite of any of them
is held to byte-identical output."""

import hashlib
from fractions import Fraction

import pytest

from regmaps import groups, spheres
from regmaps.ratmap import constant_map, coordinate_map, identity_map, map_to_json, map_to_obj
from regmaps.varieties import euclidean, sphere, unitary

# builder call: sha256 of its map_to_json.
PINNED = {
    "embed_orthogonal(2, 4)": (
        lambda: groups.embed_orthogonal(2, 4),
        "c87180e51b814e94e29869d124db0370f282425050f549e8e62e415ec5ddd724",
    ),
    "embed_orthogonal(3, 3)": (
        lambda: groups.embed_orthogonal(3, 3),
        "8bef0d29a9ef7def6b472070c9c71b8fddc45c3badcef038c2aa88eb4dc4316a",
    ),
    "embed_unitary(1, 2)": (
        lambda: groups.embed_unitary(1, 2),
        "3c380e5abc21e67222ae26764511bd996bf4f9944ccb49cd72863914cc7d8863",
    ),
    "embed_unitary(2, 3)": (
        lambda: groups.embed_unitary(2, 3),
        "74b51df0b436064b9ff4d61e765c2c54c70b16b8cc54077da30ff5919930a1a5",
    ),
    "embed_special_unitary(2)": (
        lambda: groups.embed_special_unitary(2),
        "22ab088f40b2c5aab6acecea134c16ae3efec35aef8840dacead53e124416f9b",
    ),
    "first_column(4)": (
        lambda: groups.first_column(4),
        "5240aa658f444a0d3d16633d19ae6352ed019065201ce3bf3697abe5a926bfb4",
    ),
    "first_column_u(3)": (
        lambda: groups.first_column_u(3),
        "7fcf00d140f52868513db4cdf9f8361b8f3d4c73b0340f2d7743156c35cadb7a",
    ),
    "embed_u_in_so(2)": (
        lambda: groups.embed_u_in_so(2),
        "aa4c6fc7532172bd67af4fbeb85cf16d6fcce8eae6c96d954d798b3d00b45946",
    ),
    "factor_projection(2, 1)": (
        lambda: spheres.factor_projection(2, 1),
        "f0be1d5bb662598bae4ea11aee416e2d166f624a3b2a9ac55baca586307090bb",
    ),
    "factor_projection(2, 2)": (
        lambda: spheres.factor_projection(2, 2),
        "23c44ddffe9db33cf4d2849e86e1d4cd3b25489072e575bf03e75224afe7880a",
    ),
    "reflect(3, 4)": (
        lambda: spheres.reflect(3, 4),
        "56c241dcf1794501a513a03ed9d0654aadee65ad43962bcf21c0dff3e29eb8e8",
    ),
    "antipodal(3)": (
        lambda: spheres.antipodal(3),
        "8f84898e6ac0b7a1de147334ab9503c68f020c054cab3746295a91b45aeeefda",
    ),
    "sphere_identity(3)": (
        lambda: spheres.sphere_identity(3),
        "b15dcc0702995d01c63f37a337bcbb6420bee46c07de83d28963481daa4107d1",
    ),
    "identity_map(euclidean(3))": (
        lambda: identity_map(euclidean(3)),
        "df2249600652a1435696d49c22123e660969a255389086ed61c0b4685b2624e7",
    ),
    "identity_map(unitary(2))": (
        lambda: identity_map(unitary(2)),
        "d98558c5956c751c1c39f30091261ca6033139a765636dc48c9ddc882c2e6cdf",
    ),
    "constant_map(sphere(2), basepoint(2))": (
        lambda: constant_map(sphere(2), spheres.basepoint(2)),
        "3e0e67d2cf8a5418a2677ff33a105dfa8f954d5400cf773aa5bfecb3130f6e99",
    ),
    "retract_so(3)": (
        lambda: groups.retract_so(3),
        "dfb3bbf7275b68f62321a0c1b826235f51afcdf838d84b4bbae814fdc196191a",
    ),
    "retract_u(2)": (
        lambda: groups.retract_u(2),
        "c69b1071936563968be5a96d5f9866e1cfb6b3fbd634dc52cad96a170c869522",
    ),
}


@pytest.mark.parametrize("call", sorted(PINNED))
def test_builder_json_is_pinned(call):
    build, digest = PINNED[call]
    assert hashlib.sha256(map_to_json(build()).encode()).hexdigest() == digest


def test_identity_points_are_pinned():
    one, zero = Fraction(1), Fraction(0)
    so3 = groups.orthogonal_identity(3)
    assert so3.variety.name == "SO3"
    assert so3.coords == (one, zero, zero, zero, one, zero, zero, zero, one)
    u2 = groups.unitary_identity(2)
    assert u2.variety.name == "U2"
    assert u2.coords == (one, zero, zero, zero, zero, zero, one, zero)


def test_coordinate_map_negates_picks_and_places_constants():
    picks = [(1, -1), (None, Fraction(1, 2)), (0, 1)]
    m = coordinate_map(euclidean(2), euclidean(3), picks, "mixed")
    assert "matrix" not in map_to_obj(m)
    assert m.label == "mixed"
    assert m.evaluate_raw([Fraction(3), Fraction(5)]) == [-5, Fraction(1, 2), 3]


def test_coordinate_map_with_a_shape_is_a_complex_matrix_map():
    # the shape is the codomain's
    conjugate = coordinate_map(unitary(1), unitary(1), [(0, 1), (1, -1)], "conj")
    assert map_to_obj(conjugate)["matrix"] == {"rows": 1, "cols": 1, "complex_entries": True}
    z = [Fraction(3, 5), Fraction(4, 5)]
    assert conjugate.evaluate_raw(z) == [Fraction(3, 5), Fraction(-4, 5)]
