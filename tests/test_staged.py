"""Staged maps: composites and matrix products, on every domain, are
evaluated pointwise and expanded only where polynomials are read."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest

from regmaps import cli, groups, ratmap, spheres
from regmaps.polynomial import Polynomial
from regmaps.ratmap import (
    ExcludedLocusError,
    RationalMap,
    compose,
    denominator_check,
    identity_map,
)
from regmaps.varieties import (
    PointValidationError,
    euclidean,
    sample_points,
    special_orthogonal,
)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _fresh(name: str):
    """A new, uncached, still staged catalog map and the embedding its
    suite composes it with."""
    if name.startswith("chain:"):
        total, sub = map(int, name.split(":")[1:])
        return groups.chain_retract.__wrapped__(total, sub), groups.embed_orthogonal(sub, total)
    n = int(name.split(":")[1])
    if name.startswith("r:"):
        return groups.retract_so.__wrapped__(n), groups.embed_orthogonal(n - 1, n)
    if name.startswith("r-u:"):
        return groups.retract_u.__wrapped__(n), groups.embed_unitary(n - 1, n)
    return groups.su_retract.__wrapped__(n), groups.embed_special_unitary(n)


@pytest.mark.parametrize("name", ["chain:4:2", "chain:5:3", "r:3", "r-u:2", "su-retract:2"])
def test_staged_values_are_a_positive_multiple_of_the_expanded_values(name):
    m, embed = _fresh(name)
    maps = [m, compose(m, embed)]
    assert maps[1].staged
    points = [sample_points(f.domain, 20, seed=7, height=4) for f in maps]
    staged = [[f.values(p.coords) for p in pts] for f, pts in zip(maps, points)]
    for f in maps:
        f.numerators  # expands
        assert not f.staged
    for f, pts, before in zip(maps, points, staged):
        for p, (nums, den) in zip(pts, before):
            exp_nums, exp_den = f.values(p.coords)
            assert all(type(v) is int for v in (*nums, den, *exp_nums, exp_den))
            assert _sign(den) == _sign(exp_den)
            assert [a * exp_den for a in nums] == [b * den for b in exp_nums]


# Composites on sphere domains, by the maps they compose.  The inner
# denominator x1 of the meridian chart changes sign on S^2; the outer map of
# the first has even degree, so its values keep their sign where x1 < 0.
SPHERE_COMPOSITES = {
    "stereo_inv(2) . meridian_chart(2)": lambda: compose(
        spheres.stereo_inv(2), spheres.meridian_chart(2)
    ),
    "sphere_identity(1) (+) circle_rotation(3/5, 4/5)": lambda: spheres.pointwise_oplus(
        spheres.sphere_identity(1), spheres.circle_rotation(Fraction(3, 5), Fraction(4, 5))
    ),
}


@pytest.mark.parametrize("name", sorted(SPHERE_COMPOSITES))
def test_composites_on_sphere_domains_are_staged(name):
    build = SPHERE_COMPOSITES[name]
    expanded = build()
    expanded.numerators  # expands
    m = build()
    for p in sample_points(expanded.domain, 20, seed=7):
        (nums, den), (exp_nums, exp_den) = m.values(p.coords), expanded.values(p.coords)
        assert den > 0 and exp_den > 0
        assert [a * exp_den for a in nums] == [b * den for b in exp_nums]
    assert m.staged and m == expanded


def _cubic_after_meridian_chart() -> RationalMap:
    # an outer map of odd degree 3 after the meridian chart of S^2
    plane = euclidean(2)
    x, y = (Polynomial.variable(plane.registry, i) for i in range(2))
    outer = RationalMap(plane, plane, [x**3 - y, x * y], 1 + y * y)
    return compose(outer, spheres.meridian_chart(2))


# Composites whose inner denominator, the x1 of the meridian chart, changes
# sign on S^2, by the degree d of the outer map: their expansion carries the
# factor E^d of that denominator E, even for the first and odd for the second.
SIGN_CHANGING_COMPOSITES = {
    "stereo_inv(2) . meridian_chart(2)": SPHERE_COMPOSITES["stereo_inv(2) . meridian_chart(2)"],
    "cubic . meridian_chart(2)": _cubic_after_meridian_chart,
}


@pytest.mark.parametrize("name", sorted(SIGN_CHANGING_COMPOSITES))
def test_a_negative_inner_denominator_keeps_the_values_of_the_expansion(name):
    build = SIGN_CHANGING_COMPOSITES[name]
    m, expanded = build(), build()
    expanded.numerators  # expands
    points = sample_points(m.domain, 60, seed=7)
    assert any(p.coords[0] < 0 for p in points) and any(p.coords[0] > 0 for p in points)
    for p in points:
        (nums, den), (exp_nums, exp_den) = m.values(p.coords), expanded.values(p.coords)
        assert den != 0
        assert [_sign(v) for v in (*nums, den)] == [_sign(v) for v in (*exp_nums, exp_den)]
        assert [a * exp_den for a in nums] == [b * den for b in exp_nums]
    assert m.staged


def test_coordinates_off_the_domain_are_refused():
    # At (1, 1, 1), off S^2, the staged composite would give (-1/3, 2/3, 2/3)
    # and its expansion, a normal form modulo the sphere, (1, 2, 2).
    build = SPHERE_COMPOSITES["stereo_inv(2) . meridian_chart(2)"]
    staged, expanded = build(), build()
    expanded.numerators  # expands
    for m in (staged, expanded):
        with pytest.raises(PointValidationError):
            m.evaluate_raw([1, 1, 1])
        with pytest.raises(PointValidationError):
            m.values([1, 1, 1])
    assert staged.staged


def _reciprocal_then_identity() -> RationalMap:
    # inner X -> 1/X (numerator 1, denominator X), then a degree-1 outer map:
    # the expansion is 1/X over the denominator X, negative for X < 0, where
    # the staged values are negated, and zero at X = 0, where they are the
    # expansion's.
    line = euclidean(1)
    reg = line.registry
    inner = RationalMap(line, line, [Polynomial.one(reg)], Polynomial.variable(reg, 0))
    return compose(identity_map(line), inner)


def test_a_nonpositive_inner_denominator_falls_back_to_the_expansion():
    staged = _reciprocal_then_identity()
    assert staged.staged
    nums, den = staged.values([Fraction(-2)])
    assert den < 0 and nums[0] / den == Fraction(-1, 2) and staged.staged
    with pytest.raises(ExcludedLocusError):
        _reciprocal_then_identity().evaluate_raw([Fraction(0)])
    report = denominator_check(_reciprocal_then_identity(), samples=50, seed=3)
    expanded = _reciprocal_then_identity()
    expanded.numerators
    assert report.evidence["negatives"] > 0
    assert report == denominator_check(expanded, samples=50, seed=3)


def _staged_retraction() -> RationalMap:
    # the staged product of ``groups.retract_so(3)`` before its relabel
    lifted = compose(groups.section_so(3), groups.first_column(3))
    return ratmap.matrix_multiply(
        ratmap.matrix_transpose(lifted), identity_map(special_orthogonal(3))
    )


def test_relabel_copies_the_node_it_is_given():
    expanded = _staged_retraction()
    expanded.numerators  # expands
    copy = ratmap.relabel(expanded, "retract", "antipode")
    assert not copy.staged and copy.numerators is expanded.numerators
    assert (copy.label, copy.excluded) == ("retract", "antipode")
    staged = _staged_retraction()
    copy = ratmap.relabel(staged, "retract", "antipode")
    assert copy.staged
    point = sample_points(special_orthogonal(3), 1, seed=5, height=4)[0]
    assert copy.values(point.coords) == staged.values(point.coords)
    want = ratmap.map_to_json(ratmap.relabel(expanded, "retract", "antipode"))
    assert ratmap.map_to_json(copy) == want  # expands the copy only
    assert not copy.staged and staged.staged


# sha256 of the stdout of `eval chain:5:3` and `verify chain:5:3`, as printed
# when the chain map was expanded before it was evaluated.
EXPANDED_STDOUT = {
    "eval": "ec44158d13205fea6b0f0edca420d104d5c43ecb0c40e7540dda0706223fb442",
    "verify": "a2e725cd6cda6abf1bbe4244ce56dc03b59408a6a21692bbac2b8d22b2fd67c1",
}


def test_eval_and_verify_of_a_chain_map_expand_nothing(capsys, monkeypatch):
    for size in (5, 4):
        groups.section_so(size)  # their symbolic construction checks expand

    def refuse(*_):
        raise AssertionError("a staged map was expanded")

    groups.chain_retract.cache_clear()
    monkeypatch.setattr(ratmap, "substitute_cleared", refuse)
    try:
        for verb, digest in EXPANDED_STDOUT.items():
            assert cli.main([verb, "chain:5:3"]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    finally:
        groups.chain_retract.cache_clear()


def test_a_shared_stage_is_evaluated_once_per_point(monkeypatch):
    m = groups.chain_retract.__wrapped__(6, 2)
    point = sample_points(special_orthogonal(6), 1, seed=0, height=4)[0]
    evaluated = []
    polynomial_values = RationalMap._polynomial_values

    def counted(self, coords):
        evaluated.append(self.label)
        return polynomial_values(self, coords)

    monkeypatch.setattr(RationalMap, "_polynomial_values", counted)
    m.values(point.coords)
    # the identity feeds both the column and the product at each of 4 levels
    assert evaluated.count("id_SO6") == 1


def test_verify_chain_6_2_finishes(capsys):
    assert cli.main(["verify", "chain:6:2", "--samples", "8", "--trials", "4"]) == 0


def test_a_composite_hands_its_outer_map_a_reduced_point(monkeypatch):
    m = groups.chain_retract.__wrapped__(6, 2)
    outer_maps, stack = set(), [m]
    while stack:
        node = stack.pop()
        if node.staged:
            if node._stage.values is ratmap._composite_values:
                outer_maps.add(id(node._stage.inputs[0]))
            stack.extend(node._stage.inputs)
    handed = []
    node_values = RationalMap._values

    def recorded(self, scaled, memo):
        if id(self) in outer_maps:
            handed.append(scaled)
        return node_values(self, scaled, memo)

    monkeypatch.setattr(RationalMap, "_values", recorded)
    for point in sample_points(special_orthogonal(6), 5, seed=1, height=1000):
        m.values(point.coords)
    assert len(handed) >= 5 * len(outer_maps) > 0
    assert all(gcd(q, *nums) == 1 for q, nums in handed)
