"""Named catalog of the built-in maps and their verification suites.

The command-line interface addresses maps by compact names like
``oplus:2`` or ``chain:4:2``; :func:`resolve` turns such a name into the
constructed map and :func:`verification_suite` runs the family-specific
battery of exact checks against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import groups, spheres, topology
from .ratmap import (
    RationalMap,
    compose,
    constant_map,
    denominator_check,
    equal_mod,
    equal_symbolic,
    identity_map,
    maps_into,
    matrix_transpose,
)
from .varieties import sample_points, special_orthogonal, special_unitary, sphere, unitary


class UnknownMapError(ValueError):
    """Raised when a catalog name does not resolve to a map."""


NAME_FORMS = {
    "stereo:n": "stereographic chart S^n -> R^n",
    "stereo-inv:n": "inverse stereographic parametrization R^n -> S^n",
    "oplus:n": "rational addition S^n x S^n -> S^n",
    "reflect:n:j": "reflection of S^n negating coordinate j",
    "phi:k": "meridian-doubling self-map of S^k",
    "zpow:d": "circle power z -> z^d",
    "rot:c:s": "exact circle rotation by the rational point (c, s)",
    "id:n": "identity self-map of S^n",
    "antipodal:n": "antipodal self-map of S^n",
    "p:n": "first-column projection SO(n) -> S^{n-1}",
    "s:n": "rational section S^{n-1} -> SO(n)",
    "p-u:k": "first-column projection U(k) -> S^{2k-1}",
    "s-u:k": "rational section S^{2k-1} -> U(k)",
    "r:n": "retraction of SO(n) onto the basepoint stabilizer",
    "r-u:k": "retraction of U(k) onto the basepoint stabilizer",
    "chain:m:k": "iterated retraction SO(m) -> embedded SO(k)",
    "su-retract:k": "determinant-correcting retraction U(k) -> SU(k)",
    "embed-u:k": "realification embedding U(k) -> SO(2k)",
    "jmap:identity:n:k": "join-style map from the constant identity family",
    "jmap:rotation": "join-style map from the 2x2 rotation family",
    "jmap:double-rotation": "join-style map from the quadratic rotation family",
    "jmap:<file>": "join-style map from a JSON family description",
}


def _int_args(parts: List[str], count: int, name: str) -> List[int]:
    if len(parts) != count:
        raise UnknownMapError(
            f"{name!r}: expected {count} integer parameter(s), got {len(parts)}"
        )
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UnknownMapError(f"{name!r}: parameters must be integers") from exc


def _fraction_args(parts: List[str], count: int, name: str) -> List[Fraction]:
    if len(parts) != count:
        raise UnknownMapError(
            f"{name!r}: expected {count} rational parameter(s), got {len(parts)}"
        )
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UnknownMapError(f"{name!r}: parameters must be rationals") from exc


def resolve(name: str) -> RationalMap:
    """Build the catalog map with the given compact name."""
    parts = name.split(":")
    family, rest = parts[0], parts[1:]
    try:
        if family == "stereo":
            return spheres.stereo(*_int_args(rest, 1, name))
        if family == "stereo-inv":
            return spheres.stereo_inv(*_int_args(rest, 1, name))
        if family == "oplus":
            return spheres.oplus(*_int_args(rest, 1, name))
        if family == "reflect":
            return spheres.reflect(*_int_args(rest, 2, name))
        if family == "phi":
            return spheres.phi_double(*_int_args(rest, 1, name))
        if family == "zpow":
            return spheres.circle_power(*_int_args(rest, 1, name))
        if family == "rot":
            return spheres.circle_rotation(*_fraction_args(rest, 2, name))
        if family == "id":
            return spheres.sphere_identity(*_int_args(rest, 1, name))
        if family == "antipodal":
            return spheres.antipodal(*_int_args(rest, 1, name))
        if family == "p":
            return groups.first_column(*_int_args(rest, 1, name))
        if family == "s":
            return groups.section_so(*_int_args(rest, 1, name))
        if family == "p-u":
            return groups.first_column_u(*_int_args(rest, 1, name))
        if family == "s-u":
            return groups.section_u(*_int_args(rest, 1, name))
        if family == "r":
            return groups.retract_so(*_int_args(rest, 1, name))
        if family == "r-u":
            return groups.retract_u(*_int_args(rest, 1, name))
        if family == "chain":
            return groups.chain_retract(*_int_args(rest, 2, name))
        if family == "su-retract":
            return groups.su_retract(*_int_args(rest, 1, name))
        if family == "embed-u":
            return groups.embed_u_in_so(*_int_args(rest, 1, name))
        if family == "jmap":
            return groups.j_map(_resolve_jmap_input(rest, name))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, UnknownMapError):
            raise
        raise UnknownMapError(f"cannot build {name!r}: {exc}") from exc
    raise UnknownMapError(
        f"unknown map family {family!r}; known forms: {', '.join(sorted(NAME_FORMS))}"
    )


def _resolve_jmap_input(rest: List[str], name: str) -> groups.JMapInput:
    if not rest:
        raise UnknownMapError(f"{name!r}: expected jmap:<builtin or file>")
    if rest[0] == "identity":
        n, k = _int_args(rest[1:], 2, name)
        return groups.jmap_constant_identity(n, k)
    if rest == ["rotation"]:
        return groups.jmap_rotation()
    if rest == ["double-rotation"]:
        return groups.jmap_double_rotation()
    path = ":".join(rest)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise UnknownMapError(f"cannot read family file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UnknownMapError(f"family file {path!r} is not valid JSON: {exc}") from exc
    try:
        return groups.jmap_input_from_obj(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise UnknownMapError(f"family file {path!r} is malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    info: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "info": self.info}


def _check(name: str, report) -> CheckResult:
    return CheckResult(name=name, passed=report.passed, info=report.to_dict())


def _exact(name: str, passed: bool, **info) -> CheckResult:
    return CheckResult(name=name, passed=passed, info=dict(info))


def verification_suite(
    name: str,
    m: Optional[RationalMap] = None,
    *,
    trials: int = 20,
    samples: int = 100,
    seed: int = 0,
) -> List[CheckResult]:
    """Family-specific exact checks for a catalog map.

    Every suite starts with the two generic checks (codomain membership,
    denominator signs) and adds the contracts that define the family:
    round-trips for charts, unit laws for the addition, section/retraction
    algebra for the group maps, fiber and regularity behavior for the
    join-style maps.
    """
    m = m if m is not None else resolve(name)
    parts = name.split(":")
    family, rest = parts[0], parts[1:]
    group_like = not m.domain.block_reducible()
    sample_height = 50 if group_like else 1000
    if family == "chain":
        sample_height = 4
    generic_samples = min(samples, 8) if group_like else samples
    checks = [
        _check("maps-into-codomain", maps_into(m, samples=generic_samples, seed=seed, height=sample_height)),
        _check(
            "denominator-signs",
            denominator_check(m, samples=generic_samples, seed=seed, height=sample_height),
        ),
    ]
    add = checks.append

    if family in ("stereo", "stereo-inv"):
        n = int(rest[0])
        on_sphere = compose(spheres.stereo_inv(n), spheres.stereo(n))
        on_plane = compose(spheres.stereo(n), spheres.stereo_inv(n))
        from .varieties import euclidean

        add(_check("round-trip-on-sphere", equal_symbolic(on_sphere, spheres.sphere_identity(n))))
        add(_check("round-trip-on-plane", equal_symbolic(on_plane, identity_map(euclidean(n)))))
    elif family == "oplus":
        n = int(rest[0])
        add(_check("matches-chart-route-symbolic", equal_symbolic(m, spheres.oplus_via_charts(n))))
        add(_check(
            "matches-chart-route-sampled",
            equal_mod(m, spheres.oplus_via_charts(n), trials=trials, seed=seed),
        ))
        add(_exact(
            "defining-identity-reduces-to-zero",
            spheres.chart_sum_identity_residual(n).is_zero(),
        ))
        ok_left = True
        ok_anti = True
        e = spheres.basepoint(n)
        minus_e = [-c for c in e.coords]
        from .varieties import PointOnVariety, sphere_product

        for point in sample_points(sphere(n), trials, seed):
            left = m.evaluate_raw(list(e.coords) + list(point.coords))
            ok_left = ok_left and tuple(left) == point.coords
            anti = m.evaluate_raw(list(point.coords) + minus_e)
            ok_anti = ok_anti and tuple(anti) == tuple(minus_e)
        add(_exact("basepoint-is-left-unit", ok_left, trials=trials))
        add(_exact("antipode-absorbs", ok_anti, trials=trials))
    elif family == "reflect":
        n = int(rest[0])
        add(_check("involution", equal_symbolic(compose(m, m), spheres.sphere_identity(n))))
    elif family == "phi":
        k = int(rest[0])
        add(_exact(
            "matches-chart-route-structurally",
            m == spheres.phi_double_via_chart(k),
        ))
        e = spheres.basepoint(k)
        add(_exact("fixes-basepoint", m.evaluate(e) == e))
        equator = [Fraction(0), Fraction(1)] + [Fraction(0)] * (k - 1)
        from .varieties import PointOnVariety

        image = m.evaluate_raw(equator)
        add(_exact(
            "equator-to-antipode",
            tuple(image) == tuple([Fraction(-1)] + [Fraction(0)] * k),
        ))
    elif family == "zpow":
        d = int(rest[0])
        add(_exact("winding-equals-exponent", topology.winding(m) == d, expected=d))
    elif family in ("rot", "id", "antipodal"):
        pass  # the generic checks say it all for these
    elif family in ("p", "s"):
        n = int(rest[0])
        round_trip = compose(groups.first_column(n), groups.section_so(n))
        add(_check("projection-after-section-is-identity",
                   equal_symbolic(round_trip, spheres.sphere_identity(n - 1))))
        if family == "s":
            e = spheres.basepoint(n - 1)
            identity_coords = groups.orthogonal_identity(n).coords
            add(_exact("basepoint-to-identity-matrix",
                       groups.section_so(n).evaluate(e).coords == identity_coords))
    elif family in ("p-u", "s-u"):
        k = int(rest[0])
        round_trip = compose(groups.first_column_u(k), groups.section_u(k))
        add(_check("projection-after-section-is-identity",
                   equal_symbolic(round_trip, spheres.sphere_identity(2 * k - 1))))
        if family == "s-u":
            e = spheres.basepoint(2 * k - 1)
            identity_coords = groups.unitary_identity(k).coords
            add(_exact("basepoint-to-identity-matrix",
                       groups.section_u(k).evaluate(e).coords == identity_coords))
    elif family == "r":
        n = int(rest[0])
        projected = compose(groups.first_column(n), m)
        target = constant_map(special_orthogonal(n), spheres.basepoint(n - 1))
        add(_check("image-projects-to-basepoint",
                   equal_mod(projected, target, trials=trials, seed=seed, height=50)))
        embed = groups.embed_orthogonal(n - 1, n)
        add(_check("fixes-embedded-subgroup",
                   equal_mod(compose(m, embed), embed, trials=trials, seed=seed, height=50)))
    elif family == "r-u":
        k = int(rest[0])
        projected = compose(groups.first_column_u(k), m)
        target = constant_map(unitary(k), spheres.basepoint(2 * k - 1))
        add(_check("image-projects-to-basepoint",
                   equal_mod(projected, target, trials=trials, seed=seed, height=50)))
        embed = groups.embed_unitary(k - 1, k)
        add(_check("fixes-embedded-subgroup",
                   equal_mod(compose(m, embed), embed, trials=trials, seed=seed, height=50)))
    elif family == "chain":
        total, sub = (int(rest[0]), int(rest[1]))
        embed = groups.embed_orthogonal(sub, total)
        add(_check("fixes-embedded-subgroup",
                   equal_mod(compose(m, embed), embed, trials=trials, seed=seed, height=50)))
        ok_block = True
        offset = total - sub
        for point in sample_points(special_orthogonal(total), min(trials, 4), seed, height=4):
            image = m.evaluate_raw(point.coords)
            for a in range(total):
                for b in range(total):
                    if a >= offset and b >= offset:
                        continue
                    expected = Fraction(1 if a == b else 0)
                    ok_block = ok_block and image[a * total + b] == expected
        add(_exact("image-in-embedded-subgroup", ok_block))
    elif family == "su-retract":
        k = int(rest[0])
        embed = groups.embed_special_unitary(k)
        fixed = compose(m, embed)
        add(_check("fixes-special-unitary-group",
                   equal_mod(fixed, _su_inclusion_as_self(k), trials=trials, seed=seed, height=50)))
    elif family == "embed-u":
        k = int(rest[0])
        transposed = matrix_transpose(m)  # real transpose of the image
        adjoint_then_embed = compose(m, _unitary_adjoint(k))
        add(_exact(
            "intertwines-adjoints",
            transposed.numerators == adjoint_then_embed.numerators,
        ))
    elif family == "jmap":
        spec = _resolve_jmap_input(rest, name)
        points = groups.fiber_points(spec, min(samples, 25), seed)
        e = spheres.basepoint(spec.matrix_size)
        fiber_ok = all(tuple(m.evaluate_raw(p.coords)) == e.coords for p in points)
        add(_exact("fiber-maps-to-basepoint", fiber_ok, points=len(points)))
        probe = topology.regular_value_probe(m, points, value=e)
        add(_check("regular-along-fiber", probe))
    else:
        raise UnknownMapError(f"no verification suite for family {family!r}")
    return checks


def _su_inclusion_as_self(k: int):
    """SU(k) -> SU(k) written through the ambient unitary coordinates."""
    from .polynomial import Polynomial

    dom = special_unitary(k)
    nums = [Polynomial.variable(dom.registry, i) for i in range(dom.ambient_dim)]
    return RationalMap(dom, dom, nums, Polynomial.one(dom.registry), label=f"id_SU{k}")


def _unitary_adjoint(k: int):
    """U(k) -> U(k), g -> conjugate transpose (the group inverse)."""
    from .polynomial import Polynomial

    dom = unitary(k)
    reg = dom.registry
    nums: List = []
    for i in range(k):
        for j in range(k):
            base = 2 * (j * k + i)
            nums.append(Polynomial.variable(reg, base))
            nums.append(-Polynomial.variable(reg, base + 1))
    from .ratmap import MatrixMap

    return MatrixMap(
        dom, dom, nums, Polynomial.one(reg), rows=k, cols=k, complex_entries=True,
        label=f"adjoint_U{k}",
    )
