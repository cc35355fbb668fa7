"""Maps between spheres and the rotation/unitary groups.

The centerpiece is the bundle projection "first column" from a matrix
group to a sphere together with its rational section: an explicit
matrix of degree-two rational functions whose first column is the input
point.  Composing the two in the right order yields retractions of the
group onto the stabilizer subgroup of the basepoint, and iterating the
retraction down a flag of embedded subgroups gives the chain retraction
onto a small subgroup.

The section of SO(n) lives over S^{n-1} with real entries z_i = x_i; the
section of U(k) lives over S^{2k-1} with z_j = x_{2j-1} + i x_{2j}.  One
table gives both, with conj the identity on real entries.  Entry (i, j)
is F_ij / (1 + conj(z1)):

    column 1      z_i (1 + conj(z1))
    row 1, j>1    -(1 + z1) conj(z_j)
    diagonal i>1  (1 + conj(z1)) - z_i conj(z_i)
    i != j, >1    -z_i conj(z_j)

In the complex case every F_ij and the denominator are multiplied by
(1 + z1), so the denominator is the real |1 + z1|^2 = (1 + x1)^2 + x2^2.

Both sections send the basepoint to the identity matrix and are proved
orthogonal/unitary symbolically at construction time, by reducing the
lifted codomain relations to zero normal form over the domain sphere.
In the real case that proof gives det^2 = 1, so det is +1 or -1 on
the whole (irreducible) domain sphere, and one exact integer determinant
at one sampled image shows which (see :func:`~regmaps.ratmap.maps_into`).
Their denominators are sign-checked at sampled points.

The module also provides the determinant-correcting retraction onto the
special unitary group, the realification embedding of unitaries into
rotations, and the join-style map builder that turns a rational family
of rotations parametrized by a sphere into a map of a larger sphere,
quadratic in the fiber directions.

Every map here is a :class:`~regmaps.ratmap.RationalMap`; one into SO(n),
U(k) or SU(k) is a matrix because its codomain is, and takes its shape
from the codomain's ``MatrixGroup``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .polynomial import (
    ComplexPair,
    Polynomial,
    polynomial_from_obj,
    polynomial_to_obj,
    transport_polynomial,
)
from .ratmap import (
    RationalMap,
    compose,
    coordinate_map,
    denominator_check,
    identity_map,
    matrix_multiply,
    matrix_transpose,
    relabel,
    verified,
)
from .varieties import (
    PointOnVariety,
    Variety,
    euclidean,
    poly_matrix_determinant,
    sample_points,
    special_orthogonal,
    special_unitary,
    sphere,
    unitary,
)

# Construction-check sampling: (samples, seed, height).  Maps out of the
# groups are checked at sampled points; the sections, whose domain is a
# sphere, get a symbolic codomain proof and sampled denominator signs.
_CHECK = (4, 23, 8)


# ---------------------------------------------------------------------------
# Identity elements and subgroup embeddings
# ---------------------------------------------------------------------------


def _identity_point(group: Variety) -> PointOnVariety:
    """The identity matrix of ``group``."""
    n, complex_entries, _ = group.matrix
    one, zero = (ComplexPair(1, 0), ComplexPair(0, 0)) if complex_entries else (1, 0)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return PointOnVariety(group, group.matrix.coordinates(rows))


@lru_cache(maxsize=None)
def orthogonal_identity(n: int) -> PointOnVariety:
    return _identity_point(special_orthogonal(n))


@lru_cache(maxsize=None)
def unitary_identity(k: int) -> PointOnVariety:
    return _identity_point(unitary(k))


def _embed_block(sub: int, total: int, group, label: str) -> RationalMap:
    """group(sub) -> group(total) as the lower-right block, identity elsewhere:
    the identity's rows of constant picks (see
    :func:`~regmaps.ratmap.coordinate_map`) with the domain's rows of picks
    as their lower-right block."""
    if not 1 <= sub <= total:
        raise ValueError("need 1 <= sub <= total")
    dom, cod = group(sub), group(total)
    rows = cod.matrix.rows([(None, c) for c in _identity_point(cod).coords])
    block = dom.matrix.rows([(i, 1) for i in range(dom.ambient_dim)])
    for row, block_row in zip(rows[total - sub :], block):
        row[total - sub :] = block_row
    return coordinate_map(dom, cod, cod.matrix.coordinates(rows), label)


@lru_cache(maxsize=None)
def embed_orthogonal(sub: int, total: int) -> RationalMap:
    """SO(sub) -> SO(total) as the lower-right block, identity elsewhere."""
    return _embed_block(sub, total, special_orthogonal, f"embed_SO{sub}_in_SO{total}")


@lru_cache(maxsize=None)
def embed_unitary(sub: int, total: int) -> RationalMap:
    """U(sub) -> U(total) as the lower-right block, identity elsewhere."""
    return _embed_block(sub, total, unitary, f"embed_U{sub}_in_U{total}")


@lru_cache(maxsize=None)
def embed_special_unitary(k: int) -> RationalMap:
    """SU(k) -> U(k), the coordinate-wise inclusion."""
    dom = special_unitary(k)
    picks = [(i, 1) for i in range(dom.ambient_dim)]
    return coordinate_map(dom, unitary(k), picks, f"embed_SU{k}_in_U{k}")


# ---------------------------------------------------------------------------
# Bundle projections (first column) and their rational sections
# ---------------------------------------------------------------------------


def _block_column(m: int, size: int, label: str, complex_entries: bool = False) -> RationalMap:
    """SO(m) -> S^{size-1}, or U(m) -> S^{2 size-1} realified: the first
    column of the lower-right size x size block.  It lands on the sphere
    wherever the matrix is block-diagonal."""
    group = unitary(m) if complex_entries else special_orthogonal(m)
    offset = m - size
    rows = group.matrix.rows([(i, 1) for i in range(group.ambient_dim)])
    picks = group.matrix.coordinates(row[offset : offset + 1] for row in rows[offset:])
    return coordinate_map(group, sphere(len(picks) - 1), picks, label)


@lru_cache(maxsize=None)
def first_column(n: int) -> RationalMap:
    """SO(n) -> S^{n-1}, the image of the first basis vector."""
    if n < 2:
        raise ValueError("need n >= 2")
    return verified(_block_column(n, n, f"first_column_{n}"), *_CHECK)


@lru_cache(maxsize=None)
def first_column_u(k: int) -> RationalMap:
    """U(k) -> S^{2k-1}, the realified first column."""
    if k < 1:
        raise ValueError("need k >= 1")
    return verified(_block_column(k, k, f"first_column_u_{k}", True), *_CHECK)


def _section(group: Variety, excluded: str, label: str) -> RationalMap:
    """The section of the k x k ``group`` over the sphere of first columns,
    entries as in the module docstring's table.  Complex entries are
    multiplied by (1 + z1) above and below, so that the denominator
    |1 + z1|^2 is real."""
    k, complex_entries, _ = group.matrix
    dom = sphere((2 if complex_entries else 1) * k - 1)
    z = group.matrix.entries([Polynomial.variable(dom.registry, i) for i in range(dom.ambient_dim)])
    conj = ComplexPair.conjugate if complex_entries else lambda p: p
    lead = 1 + z[0]
    lead_bar = conj(lead)

    def entry(i: int, j: int):
        if j == 0:
            return z[i] * lead_bar
        if i == 0:
            return -lead * conj(z[j])
        if i == j:
            return lead_bar - z[i] * conj(z[i])
        return -z[i] * conj(z[j])

    rows = [[entry(i, j) for j in range(k)] for i in range(k)]
    den = lead_bar
    if complex_entries:
        rows = [[e * lead for e in row] for row in rows]
        den = (lead_bar * lead).re
    nums = group.matrix.coordinates(rows)
    return verified(RationalMap(dom, group, nums, den, excluded, label), *_CHECK)


@lru_cache(maxsize=None)
def section_so(n: int) -> RationalMap:
    """S^{n-1} -> SO(n): a rotation with prescribed first column."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _section(special_orthogonal(n), "x1 = -1", f"section_so_{n}")


@lru_cache(maxsize=None)
def section_u(k: int) -> RationalMap:
    """S^{2k-1} -> U(k): a unitary matrix with prescribed first column."""
    if k < 1:
        raise ValueError("need k >= 1")
    excluded = "x1 = -1, x2 = 0 (the antipode of the basepoint)"
    return _section(unitary(k), excluded, f"section_u_{k}")


# ---------------------------------------------------------------------------
# Retractions
# ---------------------------------------------------------------------------


def _retract(section: RationalMap, column: RationalMap, label: str) -> RationalMap:
    """g |-> section(column(g))^* g on the group of ``column``: the (conjugate)
    transpose of the lifted section times the group element."""
    lifted = compose(section, column)
    product = matrix_multiply(matrix_transpose(lifted), identity_map(column.domain))
    return verified(relabel(product, label, "first column at the antipode of e"), *_CHECK)


@lru_cache(maxsize=None)
def retract_so(n: int) -> RationalMap:
    """SO(n) -> SO(n) with image the stabilizer of the basepoint:
    g |-> section(first_column(g))^T * g.  Fixes the embedded SO(n-1)."""
    return _retract(section_so(n), first_column(n), f"retract_so_{n}")


@lru_cache(maxsize=None)
def retract_u(k: int) -> RationalMap:
    """U(k) -> U(k) onto the stabilizer of the basepoint (conjugate-transpose
    of the lifted section times the group element)."""
    return _retract(section_u(k), first_column_u(k), f"retract_u_{k}")


@lru_cache(maxsize=None)
def chain_retract(m: int, k: int) -> RationalMap:
    """SO(m) -> SO(m) with image the embedded SO(k), obtained by iterating
    the one-step retraction down the flag SO(m) > SO(m-1) > ... > SO(k).

    At each level the current map's image lies in an embedded block; its
    first block column is a sphere map, the section lifts it back to a
    block rotation, and multiplying by the (lifted) transpose pushes the
    image one level deeper.  Every embedded SO(k) element is fixed."""
    if not 2 <= k < m:
        raise ValueError("need 2 <= k < m")
    group = special_orthogonal(m)
    current = identity_map(group)
    for size in range(m, k, -1):
        column = compose(_block_column(m, size, f"block_column_{size}"), current)
        block = compose(section_so(size), column)
        lifted = compose(embed_orthogonal(size, m), block)
        current = matrix_multiply(matrix_transpose(lifted), current)
    return verified(
        relabel(
            current,
            f"chain_retract_{m}_{k}",
            "a block column hits the antipode at some level",
        ),
        samples=2,
        seed=23,
        height=3,
    )


@lru_cache(maxsize=None)
def su_retract(k: int) -> RationalMap:
    """U(k) -> SU(k): scale the first column by the conjugate determinant.

    On unitary matrices conj(det g) = det(g)^{-1}, so the result has
    determinant one and every special unitary matrix is fixed."""
    if k < 1:
        raise ValueError("need k >= 1")
    dom, cod = unitary(k), special_unitary(k)
    coords = [Polynomial.variable(dom.registry, i) for i in range(dom.ambient_dim)]
    entries = dom.matrix.rows(coords)
    det_conj = poly_matrix_determinant(entries).conjugate()
    nums = cod.matrix.coordinates([row[0] * det_conj, *row[1:]] for row in entries)
    one, label = Polynomial.one(dom.registry), f"su_retract_{k}"
    return verified(RationalMap(dom, cod, nums, one, label=label), *_CHECK)


@lru_cache(maxsize=None)
def embed_u_in_so(k: int) -> RationalMap:
    """U(k) -> SO(2k): replace each complex entry a + bi by the 2x2 block
    [[a, -b], [b, a]] (realification preserves products and adjoints)."""
    if k < 1:
        raise ValueError("need k >= 1")
    dom, cod = unitary(k), special_orthogonal(2 * k)
    plus, minus = (dom.matrix.rows([(i, c) for i in range(dom.ambient_dim)]) for c in (1, -1))
    rows = []
    for row, negated in zip(plus, minus):
        # each entry a + bi of the row becomes the block [[a, -b], [b, a]]
        rows.append([pick for z, w in zip(row, negated) for pick in (z.re, w.im)])
        rows.append([pick for z in row for pick in (z.im, z.re)])
    picks = cod.matrix.coordinates(rows)
    return verified(coordinate_map(dom, cod, picks, f"embed_u{k}_in_so{2 * k}"), *_CHECK)


# ---------------------------------------------------------------------------
# The join-style builder: a rotation family becomes a sphere map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JMapInput:
    """A rational family of k x k matrices over the ambient space of S^n.

    ``entries[i][j]`` are polynomials in the ambient coordinates
    ``X1..X{n+1}`` and ``scale`` is the common denominator polynomial, so
    the family is ``entries / scale``.  The builder does not assume the
    family is orthogonal; use :func:`~regmaps.ratmap.maps_into` on the
    result to find out whether the built map genuinely lands on the
    sphere (it does exactly when entries^T entries = scale^2 * identity
    holds as a polynomial identity).
    """

    entries: Tuple[Tuple[Polynomial, ...], ...]
    scale: Polynomial
    base_dim: int
    matrix_size: int
    label: str = ""

    def validate(self) -> None:
        n, k = self.base_dim, self.matrix_size
        registry = euclidean(n + 1).registry
        if len(self.entries) != k or any(len(row) != k for row in self.entries):
            raise ValueError(f"entry matrix must be {k} x {k}")
        for row in self.entries:
            for p in row:
                if p.registry != registry:
                    raise ValueError(
                        "entries must live over the ambient registry X1..X%d" % (n + 1)
                    )
        if self.scale.registry != registry:
            raise ValueError("scale must live over the ambient registry")
        if self.scale.is_zero():
            raise ValueError("scale polynomial must be nonzero")
        # the family must take the base point to the identity matrix
        e = [Fraction(1)] + [Fraction(0)] * n
        scale_at_e = self.scale.evaluate(e)
        for i in range(k):
            for j in range(k):
                expected = scale_at_e if i == j else 0
                if self.entries[i][j].evaluate(e) != expected:
                    raise ValueError(
                        f"family does not evaluate to the identity at the base "
                        f"point: entry ({i}, {j})"
                    )


def j_map(spec: JMapInput) -> RationalMap:
    """Build the sphere map S^{n+k} -> S^k from a matrix family.

    Writing points of S^{n+k} as (x, y) with x in R^{n+1} and y in R^k,
    and F = entries, Q = scale:

        (x, y)  |->  ( (Q(x)^2 - |y|^2),  2 * F(x)^T y ) / (Q(x)^2 + |y|^2)

    Every fiber point (x, 0) lands on the basepoint e of S^k.  The
    denominator is positive wherever Q(x) and y do not vanish together;
    on the unit sphere this excludes only the locus Q = 0, |x| = 1.
    """
    spec.validate()
    n, k = spec.base_dim, spec.matrix_size
    for pt in sample_points(sphere(n), 12, seed=29):
        value = spec.scale.evaluate(pt.coords)
        if value <= 0:
            raise ValueError(
                f"scale must be positive on the base sphere; "
                f"found {value} at {pt.coords}"
            )
    dom = sphere(n + k)
    reg = dom.registry
    var_map = list(range(n + 1))
    scale_t = transport_polynomial(spec.scale, reg, var_map)
    entries_t = [
        [transport_polynomial(p, reg, var_map) for p in row] for row in spec.entries
    ]
    ys = [Polynomial.variable(reg, n + 1 + j) for j in range(k)]
    y_norm = Polynomial.sum(reg, (y * y for y in ys))
    q_squared = scale_t * scale_t
    nums = [q_squared - y_norm]
    for j in range(k):
        nums.append(2 * Polynomial.sum(reg, (entries_t[i][j] * ys[i] for i in range(k))))
    den = q_squared + y_norm
    label = spec.label or f"j_map_{n}_{k}"
    built = RationalMap(
        dom,
        sphere(k),
        nums,
        den,
        excluded="scale and the fiber coordinates vanish together",
        label=label,
    )
    sign_report = denominator_check(built, samples=12, seed=29)
    if not sign_report.passed:
        raise AssertionError(
            f"{label}: denominator not positive at samples: {sign_report.info}"
        )
    return built


def _ambient_vars(n: int) -> List[Polynomial]:
    reg = euclidean(n + 1).registry
    return [Polynomial.variable(reg, i) for i in range(n + 1)]


@lru_cache(maxsize=None)
def jmap_constant_identity(n: int, k: int) -> JMapInput:
    """The trivial family: identity matrix, scale one."""
    reg = euclidean(n + 1).registry
    entries = tuple(
        tuple(
            Polynomial.constant(reg, 1 if i == j else 0) for j in range(k)
        )
        for i in range(k)
    )
    return JMapInput(entries, Polynomial.one(reg), n, k, label=f"jmap_identity_{n}_{k}")


@lru_cache(maxsize=None)
def jmap_rotation() -> JMapInput:
    """The 2x2 rotation family over the circle: ((X1, -X2), (X2, X1)).

    On S^1 each matrix is a rotation, but entries^T entries equals
    (X1^2 + X2^2) * identity, which is *not* scale^2 = 1 as an ambient
    identity; the built map therefore lands on the sphere only over the
    fiber locus, and `maps_into` honestly reports the failure."""
    x1, x2 = _ambient_vars(1)
    entries = ((x1, -x2), (x2, x1))
    return JMapInput(entries, Polynomial.one(x1.registry), 1, 2, label="jmap_rotation")


@lru_cache(maxsize=None)
def jmap_double_rotation() -> JMapInput:
    """The homogeneous angle-doubling family over the circle:

        ((X1^2 - X2^2, -2 X1 X2), (2 X1 X2, X1^2 - X2^2)),  scale X1^2 + X2^2.

    Here entries^T entries = scale^2 * identity holds identically, so the
    built S^3 -> S^2 map is a genuine sphere map (proved symbolically)."""
    x1, x2 = _ambient_vars(1)
    entries = (
        (x1 * x1 - x2 * x2, -2 * x1 * x2),
        (2 * x1 * x2, x1 * x1 - x2 * x2),
    )
    return JMapInput(entries, x1 * x1 + x2 * x2, 1, 2, label="jmap_double_rotation")


def fiber_points(spec: JMapInput, count: int, seed: int = 0) -> List[PointOnVariety]:
    """Points (x, 0) of S^{n+k} over sampled base points x of S^n."""
    n, k = spec.base_dim, spec.matrix_size
    dom = sphere(n + k)
    out = []
    for base in sample_points(sphere(n), count, seed):
        q, nums = base.scaled
        out.append(PointOnVariety.from_scaled(dom, q, nums + (0,) * k))
    return out


# ---------------------------------------------------------------------------
# JMapInput serialization (for the command-line `jmap:<file>` form)
# ---------------------------------------------------------------------------


def jmap_input_to_obj(spec: JMapInput) -> dict:
    return {
        "base_dim": spec.base_dim,
        "matrix_size": spec.matrix_size,
        "entries": [[polynomial_to_obj(p) for p in row] for row in spec.entries],
        "scale": polynomial_to_obj(spec.scale),
        "label": spec.label,
    }


def jmap_input_from_obj(obj: dict) -> JMapInput:
    n, k = obj["base_dim"], obj["matrix_size"]
    if type(n) is not int or type(k) is not int:
        raise TypeError("base_dim and matrix_size must be integers")
    registry = euclidean(n + 1).registry
    entries = tuple(
        tuple(polynomial_from_obj(p, registry) for p in row) for row in obj["entries"]
    )
    scale, label = polynomial_from_obj(obj["scale"], registry), obj.get("label", "")
    if type(label) is not str:
        raise ValueError(f"label must be a string, got {label!r}")
    spec = JMapInput(entries, scale, n, k, label=label)
    spec.validate()
    return spec
