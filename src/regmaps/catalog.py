"""Named catalog of the built-in maps and their verification suites.

The command-line interface addresses maps by compact names like
``oplus:2`` or ``chain:4:2``; :func:`resolve` turns such a name into the
constructed map, and :func:`verification_suite` turns it into the
family-specific battery of exact checks: it parses and builds the name
itself, once, and hands the family's checks the map together with the
arguments that built it.

:data:`FAMILIES` is the one place that says what a name means, and so
the one place to add a family: each row, keyed by the family prefix
before the first colon, gives the name forms with their help text, the
parser of the parameters, the builder and the family's extra checks.
:data:`NAME_FORMS`, :func:`resolve` and :func:`verification_suite` all
follow from it.

SO(n) and U(k) share their section and retraction contracts: each
contract is one check function, and each group one ``_Group`` row that
the ``p``, ``s``, ``r`` (and ``-u``) families bind into it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional

from . import groups, spheres, topology
from .ratmap import (
    RationalMap,
    Verdict,
    compose,
    constant_map,
    denominator_check,
    equal_mod,
    equal_symbolic,
    identity_map,
    maps_into,
    matrix_transpose,
)
from .varieties import (
    euclidean, sample_points, special_orthogonal, special_unitary, sphere, unitary,
)


class UnknownMapError(ValueError):
    """Raised when a catalog name does not resolve to a map."""


# Parameter parsers: (parameters after the prefix, full name) -> arguments.


def _params(count: int, kind: type = int) -> Callable[[List[str], str], list]:
    """Parser of exactly ``count`` parameters of ``kind`` (int or Fraction)."""
    word = "integer" if kind is int else "rational"

    def parse(parts: List[str], name: str) -> list:
        if len(parts) != count:
            raise UnknownMapError(
                f"{name!r}: expected {count} {word} parameter(s), got {len(parts)}"
            )
        try:
            return [kind(p) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise UnknownMapError(f"{name!r}: parameters must be {word}s") from exc

    return parse


def _jmap_spec(rest: List[str], name: str) -> list:
    if not rest:
        raise UnknownMapError(f"{name!r}: expected jmap:<builtin or file>")
    if rest[0] == "identity":
        # bounded here: the family is built while the name is parsed
        n, k = _bounded(FAMILIES["jmap"], _params(2)(rest[1:], name), name)
        return [groups.jmap_constant_identity(n, k)]
    if rest == ["rotation"]:
        return [groups.jmap_rotation()]
    if rest == ["double-rotation"]:
        return [groups.jmap_double_rotation()]
    path = ":".join(rest)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise UnknownMapError(f"cannot read family file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UnknownMapError(f"family file {path!r} is not valid JSON: {exc}") from exc
    try:
        # bounded before any polynomial of the file is built
        _bounded(FAMILIES["jmap"], [obj["base_dim"], obj["matrix_size"]], name)
        return [groups.jmap_input_from_obj(obj)]
    except UnknownMapError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise UnknownMapError(f"family file {path!r} is malformed: {exc}") from exc


# Family checks: (map, *parsed arguments, trials=, samples=, seed=) -> checks.


def _chart_checks(m, n, **_) -> List[Verdict]:
    on_sphere = compose(spheres.stereo_inv(n), spheres.stereo(n))
    on_plane = compose(spheres.stereo(n), spheres.stereo_inv(n))
    sphere_round_trip = equal_symbolic(on_sphere, spheres.sphere_identity(n))
    plane_round_trip = equal_symbolic(on_plane, identity_map(euclidean(n)))
    return [
        replace(sphere_round_trip, name="round-trip-on-sphere"),
        replace(plane_round_trip, name="round-trip-on-plane"),
    ]


def _oplus_checks(m, n, *, trials, seed, **_) -> List[Verdict]:
    ok_left = True
    ok_anti = True
    e = spheres.basepoint(n)
    minus_e = [-c for c in e.coords]
    for point in sample_points(sphere(n), trials, seed):
        left = m.evaluate_raw(list(e.coords) + list(point.coords))
        ok_left = ok_left and tuple(left) == point.coords
        anti = m.evaluate_raw(list(point.coords) + minus_e)
        ok_anti = ok_anti and tuple(anti) == tuple(minus_e)
    via_charts = spheres.oplus_via_charts(n)
    return [
        replace(equal_symbolic(m, via_charts), name="matches-chart-route-symbolic"),
        replace(
            equal_mod(m, via_charts, trials=trials, seed=seed),
            name="matches-chart-route-sampled",
        ),
        Verdict(
            "symbolic", spheres.chart_sum_identity_residual(n).is_zero(), {},
            name="defining-identity-reduces-to-zero",
        ),
        Verdict("sampling", ok_left, {"trials": trials}, name="basepoint-is-left-unit"),
        Verdict("sampling", ok_anti, {"trials": trials}, name="antipode-absorbs"),
    ]


def _involution_checks(m, n, j, **_) -> List[Verdict]:
    return [replace(equal_symbolic(compose(m, m), spheres.sphere_identity(n)), name="involution")]


def _phi_checks(m, k, **_) -> List[Verdict]:
    e = spheres.basepoint(k)
    equator = [Fraction(0), Fraction(1)] + [Fraction(0)] * (k - 1)
    antipode = tuple([Fraction(-1)] + [Fraction(0)] * k)
    return [
        Verdict(
            "symbolic", m == spheres.phi_double_via_chart(k), {},
            name="matches-chart-route-structurally",
        ),
        Verdict("exact-evaluation", m.evaluate(e) == e, {}, name="fixes-basepoint"),
        Verdict(
            "exact-evaluation", tuple(m.evaluate_raw(equator)) == antipode, {},
            name="equator-to-antipode",
        ),
    ]


def _winding_checks(m, d, **_) -> List[Verdict]:
    # winding is an exact Sturm count over the rationals: a complete proof.
    return [
        Verdict(
            "symbolic", topology.winding(m) == d, {"expected": d},
            name="winding-equals-exponent",
        )
    ]


# A group G(n) fibred over a sphere, as functions of n: the first-column
# projection, its section, the identity point, the group, the embedding
# (sub, n) of G(sub), and the dimension of the sphere.
_Group = namedtuple("_Group", "first_column section identity group embed sphere_dim")
_SO = _Group(groups.first_column, groups.section_so, groups.orthogonal_identity,
             special_orthogonal, groups.embed_orthogonal, lambda n: n - 1)
_U = _Group(groups.first_column_u, groups.section_u, groups.unitary_identity,
            unitary, groups.embed_unitary, lambda k: 2 * k - 1)


def _projection_checks(g: _Group, m, n, **_) -> List[Verdict]:
    round_trip = compose(g.first_column(n), g.section(n))
    return [
        replace(
            equal_symbolic(round_trip, spheres.sphere_identity(g.sphere_dim(n))),
            name="projection-after-section-is-identity",
        )
    ]


def _section_checks(g: _Group, m, n, **_) -> List[Verdict]:
    image = g.section(n).evaluate(spheres.basepoint(g.sphere_dim(n)))
    at_identity = Verdict(
        "exact-evaluation", image.coords == g.identity(n).coords, {},
        name="basepoint-to-identity-matrix",
    )
    return _projection_checks(g, m, n) + [at_identity]


def _agree(name: str, f, g, trials: int, seed: int) -> Verdict:
    return replace(equal_mod(f, g, trials=trials, seed=seed, height=50), name=name)


def _retract_checks(g: _Group, m, n, *, trials, seed, **_) -> List[Verdict]:
    projected = compose(g.first_column(n), m)
    target = constant_map(g.group(n), spheres.basepoint(g.sphere_dim(n)))
    checks = [_agree("image-projects-to-basepoint", projected, target, trials, seed)]
    if n == 1:
        # The embedded G(0) is trivial: fixing it means fixing the identity.
        identity = g.identity(1)
        fixed = m.evaluate(identity).coords == identity.coords
        return checks + [
            Verdict("exact-evaluation", fixed, {}, name="fixes-embedded-subgroup")
        ]
    embed = g.embed(n - 1, n)
    return checks + [_agree("fixes-embedded-subgroup", compose(m, embed), embed, trials, seed)]


def _chain_checks(m, total, sub, *, trials, seed, **_) -> List[Verdict]:
    embed = groups.embed_orthogonal(sub, total)
    checks = [_agree("fixes-embedded-subgroup", compose(m, embed), embed, trials, seed)]
    ok_block = True
    offset = total - sub
    points = sample_points(special_orthogonal(total), min(trials, 4), seed, height=4)
    for point in points:
        rows = m.codomain.matrix.rows(m.evaluate_raw(point.coords))
        for a, row in enumerate(rows):
            for b, value in enumerate(row):
                if a < offset or b < offset:
                    ok_block = ok_block and value == (1 if a == b else 0)
    checks.append(
        Verdict(
            "sampling", ok_block, {"points": len(points)}, name="image-in-embedded-subgroup"
        )
    )
    return checks


def _su_retract_checks(m, k, *, trials, seed, **_) -> List[Verdict]:
    fixed = compose(m, groups.embed_special_unitary(k))
    inclusion = identity_map(special_unitary(k))
    return [_agree("fixes-special-unitary-group", fixed, inclusion, trials, seed)]


def _realification_checks(m, k, **_) -> List[Verdict]:
    adjoint = matrix_transpose(identity_map(unitary(k)))
    # The real transpose of the image is the image of the conjugate transpose.
    intertwines = matrix_transpose(m) == compose(m, adjoint)
    return [Verdict("symbolic", intertwines, {}, name="intertwines-adjoints")]


def _jmap_checks(m, spec, *, samples, seed, **_) -> List[Verdict]:
    points = groups.fiber_points(spec, min(samples, 25), seed)
    e = spheres.basepoint(spec.matrix_size)
    fiber_ok = all(tuple(m.evaluate_raw(p.coords)) == e.coords for p in points)
    return [
        Verdict("sampling", fiber_ok, {"points": len(points)}, name="fiber-maps-to-basepoint"),
        replace(topology.regular_value_probe(m, points, value=e), name="regular-along-fiber"),
    ]


@dataclass(frozen=True)
class Family:
    """One catalog family.  ``parse`` turns the parameters after the prefix
    into the arguments of ``build``; ``checks`` gets the built map and the
    same arguments and returns the checks that follow the two generic ones
    (``None``: the generic checks say it all).  ``generic_height`` overrides
    the sample height of the generic checks.  ``max_parameter`` bounds the
    absolute value of every integer parameter in the name, for families whose
    build cost grows without limit in a parameter."""

    forms: Dict[str, str]
    parse: Callable[[List[str], str], list]
    build: Callable[..., RationalMap]
    checks: Optional[Callable[..., List[Verdict]]] = None
    generic_height: Optional[int] = None
    max_parameter: Optional[int] = None


# Building z^d expands and normalizes a degree-|d| polynomial pair: in
# process about 0.1 s at |d| = 200, 0.3-0.5 s at 400 and 2.1-2.4 s at 800.
# One fresh process each (2-vCPU Xeon, compiled bytecode): `build zpow:200`
# 0.4 s and `degree zpow:200` 5.3 s, most of it in its compose; the catalog
# stops at 200.
ZPOW_MAX_DEGREE = 200

# SO(n) and SU(k) have only degree-two Gram relations; det = 1 is one integer
# determinant per point.  Builds, one fresh process each on a 2-vCPU Xeon:
# p:8 0.2 s, s:8 0.2 s, r:8 0.4 s and embed-u:4 (which lands in SO(8))
# 0.2-0.3 s, at about 31 MB.  The SO bounds stay because chain:m:k shares
# SO_MAX_SIZE and build chain:5:2 still expands without limit.  su_retract
# itself expands its column times the k!-term conj(det): verify su-retract:5
# takes 2.0 s at 42 MB (2.7-5.4 s at 58-60 MB with dense exponent tuples);
# su-retract:6 was measured at 61 s and 1 GB peak RSS, with tuples.
SO_MAX_SIZE = 8
EMBED_U_MAX_SIZE = 4
SU_RETRACT_MAX_SIZE = 5

# Sphere maps carry one integer per monomial, its exponent fields as wide as
# the registry, so their cost grows with the dimension.  Each bound is the
# largest round size whose build took under 50 s (raw, one fresh process
# each, 2-vCPU Xeon) when a monomial was a dense exponent tuple, which leaves
# room for the host's speed swings below a 60 s budget.  With one integer per
# monomial: build id:3000 3.2 s at 125 MB (11.3 s at 452 MB with tuples),
# antipodal:3000 3.3 s and reflect:3000:2 3.0 s at 126 MB; stereo-inv:300
# 2.1 s at 165 MB (9.0 s at 478 MB with tuples).  The size-4000 builds were
# last timed at 49-58 s and 1 GB, with tuples, when sphere(n) still built its
# relation twice.
# Where a family's suite builds a costlier map, its verify sets the bound
# instead.  The stereo and phi suites build stereo-inv:n, whose symbolic
# codomain check needs memory cubic in n: build stereo-inv:400 6.3 s at
# 322 MB, verify stereo:400 7.7 s and phi:400 7.2 s (--samples 10 --trials 2)
# at 323 MB; with tuples 43 s at 1.3 GB, 49 s and 48 s, while build phi:1000
# took 5 s.  The oplus suite builds the chart route: verify oplus:100 2.5 s
# at 140 MB (35 s with tuples; oplus:80 took 24 s and build oplus:300 34 s at
# 1.2 GB).  build jmap:identity:700:700 17 s at 217 MB (32 s with tuples;
# 800:800 took 56 s, and k = n is the worst shape: 2:1000 38 s, 1000:2 6 s).
# U(k) stops at the round size 10, whose builds are short (build r-u:10
# 7-8 s, s-u:10 4-5 s, p-u:10 1 s); the verbs have not been timed above it.
SPHERE_MAX_DIM = 3000
CHART_MAX_DIM = 400
OPLUS_MAX_DIM = 100
JMAP_MAX_SIZE = 700
UNITARY_MAX_SIZE = 10

FAMILIES: Dict[str, Family] = {
    "stereo": Family({"stereo:n": "stereographic chart S^n -> R^n"},
                     _params(1), spheres.stereo, _chart_checks,
                     max_parameter=CHART_MAX_DIM),
    "stereo-inv": Family({"stereo-inv:n": "inverse stereographic parametrization R^n -> S^n"},
                         _params(1), spheres.stereo_inv, _chart_checks,
                         max_parameter=CHART_MAX_DIM),
    "oplus": Family({"oplus:n": "rational addition S^n x S^n -> S^n"},
                    _params(1), spheres.oplus, _oplus_checks,
                    max_parameter=OPLUS_MAX_DIM),
    "reflect": Family({"reflect:n:j": "reflection of S^n negating coordinate j"},
                      _params(2), spheres.reflect, _involution_checks,
                      max_parameter=SPHERE_MAX_DIM),
    "phi": Family({"phi:k": "meridian-doubling self-map of S^k"},
                  _params(1), spheres.phi_double, _phi_checks,
                  max_parameter=CHART_MAX_DIM),
    "zpow": Family({"zpow:d": "circle power z -> z^d"},
                   _params(1), spheres.circle_power, _winding_checks,
                   max_parameter=ZPOW_MAX_DEGREE),
    "rot": Family({"rot:c:s": "exact circle rotation by the rational point (c, s)"},
                  _params(2, Fraction), spheres.circle_rotation),
    "id": Family({"id:n": "identity self-map of S^n"},
                 _params(1), spheres.sphere_identity, max_parameter=SPHERE_MAX_DIM),
    "antipodal": Family({"antipodal:n": "antipodal self-map of S^n"},
                        _params(1), spheres.antipodal, max_parameter=SPHERE_MAX_DIM),
    "p": Family({"p:n": "first-column projection SO(n) -> S^{n-1}"},
                _params(1), groups.first_column, partial(_projection_checks, _SO),
                max_parameter=SO_MAX_SIZE),
    "s": Family({"s:n": "rational section S^{n-1} -> SO(n)"},
                _params(1), groups.section_so, partial(_section_checks, _SO),
                max_parameter=SO_MAX_SIZE),
    "p-u": Family({"p-u:k": "first-column projection U(k) -> S^{2k-1}"},
                  _params(1), groups.first_column_u, partial(_projection_checks, _U),
                  max_parameter=UNITARY_MAX_SIZE),
    "s-u": Family({"s-u:k": "rational section S^{2k-1} -> U(k)"},
                  _params(1), groups.section_u, partial(_section_checks, _U),
                  max_parameter=UNITARY_MAX_SIZE),
    "r": Family({"r:n": "retraction of SO(n) onto the basepoint stabilizer"},
                _params(1), groups.retract_so, partial(_retract_checks, _SO),
                max_parameter=SO_MAX_SIZE),
    "r-u": Family({"r-u:k": "retraction of U(k) onto the basepoint stabilizer"},
                  _params(1), groups.retract_u, partial(_retract_checks, _U),
                  max_parameter=UNITARY_MAX_SIZE),
    "chain": Family({"chain:m:k": "iterated retraction SO(m) -> embedded SO(k)"},
                    _params(2), groups.chain_retract, _chain_checks, generic_height=4,
                    max_parameter=SO_MAX_SIZE),
    "su-retract": Family({"su-retract:k": "determinant-correcting retraction U(k) -> SU(k)"},
                         _params(1), groups.su_retract, _su_retract_checks,
                         max_parameter=SU_RETRACT_MAX_SIZE),
    "embed-u": Family({"embed-u:k": "realification embedding U(k) -> SO(2k)"},
                      _params(1), groups.embed_u_in_so, _realification_checks,
                      max_parameter=EMBED_U_MAX_SIZE),
    "jmap": Family(
        {
            "jmap:identity:n:k": "join-style map from the constant identity family",
            "jmap:rotation": "join-style map from the 2x2 rotation family",
            "jmap:double-rotation": "join-style map from the quadratic rotation family",
            "jmap:<file>": "join-style map from a JSON family description",
        },
        _jmap_spec, groups.j_map, _jmap_checks, max_parameter=JMAP_MAX_SIZE,
    ),
}

NAME_FORMS = {form: text for row in FAMILIES.values() for form, text in row.forms.items()}


def _parse(name: str):
    """Split a catalog name into its table row and parsed arguments."""
    prefix, *rest = name.split(":")
    family = FAMILIES.get(prefix)
    if family is None:
        raise UnknownMapError(
            f"unknown map family {prefix!r}; known forms: {', '.join(sorted(NAME_FORMS))}"
        )
    return family, _bounded(family, family.parse(rest, name), name)


def _bounded(family: Family, args: list, name: str) -> list:
    """``args``, unless an integer among them exceeds ``family.max_parameter``."""
    bound = family.max_parameter
    if bound is not None and any(isinstance(a, int) and abs(a) > bound for a in args):
        raise UnknownMapError(
            f"{name!r}: {name.split(':')[0]} parameters are bounded by {bound} in absolute "
            f"value (the build cost grows without limit in them)"
        )
    return args


def _resolved(name: str):
    """The table row, the parsed arguments and the built map of a catalog name."""
    try:
        family, args = _parse(name)
        return family, args, family.build(*args)
    except UnknownMapError:
        raise
    except (ValueError, TypeError) as exc:
        raise UnknownMapError(f"cannot build {name!r}: {exc}") from exc


def resolve(name: str) -> RationalMap:
    """Build the catalog map with the given compact name."""
    return _resolved(name)[2]


def verification_suite(
    name: str, *, trials: int = 20, samples: int = 100, seed: int = 0
) -> List[Verdict]:
    """Family-specific checks for a catalog map, each a named :class:`Verdict`.

    The name is parsed and built once, and the family's checks get the map
    with the arguments that built it.  Every suite starts with the two
    generic checks (codomain membership, denominator signs) and adds the
    contracts that define the family: round-trips for charts, unit laws for
    the addition, section/retraction algebra for the group maps, fiber and
    regularity behavior for the join-style maps.  Membership that the map's
    construction proved symbolically (``codomain_proof``) is reported as
    proved, not proved again.
    """
    family, args, m = _resolved(name)
    group_like = not m.domain.block_reducible()
    sample_height = family.generic_height or (50 if group_like else 1000)
    generic_samples = min(samples, 8) if group_like else samples
    membership = m.codomain_proof or maps_into(
        m, samples=generic_samples, seed=seed, height=sample_height
    )
    checks = [
        replace(membership, name="maps-into-codomain"),
        replace(
            denominator_check(m, samples=generic_samples, seed=seed, height=sample_height),
            name="denominator-signs",
        ),
    ]
    if family.checks is not None:
        checks += family.checks(m, *args, trials=trials, samples=samples, seed=seed)
    return checks
