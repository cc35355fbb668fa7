"""Maps between spheres and the rotation/unitary groups.

The centerpiece is the bundle projection "first column" from a matrix
group to a sphere together with its rational section: an explicit
matrix of degree-two rational functions whose first column is the input
point.  Composing the two in the right order yields retractions of the
group onto the stabilizer subgroup of the basepoint, and iterating the
retraction down a flag of embedded subgroups gives the chain retraction
onto a small subgroup.

Real case (n x n rotations, section over S^{n-1}, denominator 1 + x1):

    column 1      x_i
    row 1, j>1    -x_j
    diagonal i>1  1 - x_i^2 / (1 + x1)
    i != j, >1    -x_i x_j / (1 + x1)

Complex case (k x k unitaries over S^{2k-1}; z_j = x_{2j-1} + i x_{2j},
denominator (1 + z1)(1 + conj(z1)) = (1 + x1)^2 + x2^2):

    column 1      z_i
    row 1, j>1    -(1 + z1) conj(z_j) / (1 + conj(z1))
    diagonal i>1  1 - z_i conj(z_i) / (1 + conj(z1))
    i != j, >1    -z_i conj(z_j) / (1 + conj(z1))

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
    MatrixMap,
    RationalMap,
    compose,
    coordinate_map,
    denominator_check,
    identity_matrix_map,
    matrix_multiply,
    matrix_transpose,
    relabel,
    verified,
)
from .varieties import (
    PointOnVariety,
    Variety,
    complex_entry_polys,
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


def _identity_point(group: Variety, size: int, complex_entries: bool) -> PointOnVariety:
    width = 2 if complex_entries else 1
    coords = [Fraction(0)] * (width * size * size)
    for i in range(size):
        coords[width * (i * size + i)] = Fraction(1)
    return PointOnVariety(group, coords)


@lru_cache(maxsize=None)
def orthogonal_identity(n: int) -> PointOnVariety:
    return _identity_point(special_orthogonal(n), n, False)


@lru_cache(maxsize=None)
def unitary_identity(k: int) -> PointOnVariety:
    return _identity_point(unitary(k), k, True)


def _embed_block(sub: int, total: int, group, complex_entries: bool, label: str) -> MatrixMap:
    """group(sub) -> group(total) as the lower-right block, identity elsewhere.
    An entry is one coordinate, or an interleaved (re, im) pair."""
    if not 1 <= sub <= total:
        raise ValueError("need 1 <= sub <= total")
    width = 2 if complex_entries else 1
    offset = total - sub
    picks = []
    for a in range(total):
        for b in range(total):
            for part in range(width):
                if a < offset or b < offset:
                    picks.append((None, 1 if a == b and part == 0 else 0))
                else:
                    picks.append((width * ((a - offset) * sub + b - offset) + part, 1))
    shape = (total, total, complex_entries)
    return coordinate_map(group(sub), group(total), picks, label, shape)


@lru_cache(maxsize=None)
def embed_orthogonal(sub: int, total: int) -> MatrixMap:
    """SO(sub) -> SO(total) as the lower-right block, identity elsewhere."""
    return _embed_block(sub, total, special_orthogonal, False, f"embed_SO{sub}_in_SO{total}")


@lru_cache(maxsize=None)
def embed_unitary(sub: int, total: int) -> MatrixMap:
    """U(sub) -> U(total) as the lower-right block, identity elsewhere."""
    return _embed_block(sub, total, unitary, True, f"embed_U{sub}_in_U{total}")


@lru_cache(maxsize=None)
def embed_special_unitary(k: int) -> MatrixMap:
    """SU(k) -> U(k), the coordinate-wise inclusion."""
    dom = special_unitary(k)
    picks = [(i, 1) for i in range(dom.ambient_dim)]
    return coordinate_map(dom, unitary(k), picks, f"embed_SU{k}_in_U{k}", (k, k, True))


# ---------------------------------------------------------------------------
# Bundle projections (first column) and their rational sections
# ---------------------------------------------------------------------------


def _block_column(m: int, size: int, label: str) -> RationalMap:
    """SO(m) -> S^{size-1}: the first column of the lower-right size x size
    block.  It lands on the sphere wherever the matrix is block-diagonal."""
    offset = m - size
    picks = [(r * m + offset, 1) for r in range(offset, m)]
    return coordinate_map(special_orthogonal(m), sphere(size - 1), picks, label)


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
    picks = [(2 * i * k + part, 1) for i in range(k) for part in (0, 1)]
    return verified(
        coordinate_map(unitary(k), sphere(2 * k - 1), picks, f"first_column_u_{k}"), *_CHECK
    )


@lru_cache(maxsize=None)
def section_so(n: int) -> MatrixMap:
    """S^{n-1} -> SO(n): a rotation with prescribed first column."""
    if n < 2:
        raise ValueError("need n >= 2")
    dom = sphere(n - 1)
    reg = dom.registry
    x = [Polynomial.variable(reg, i) for i in range(n)]
    den = Polynomial.one(reg) + x[0]
    nums: List[Polynomial] = []
    for i in range(n):
        for j in range(n):
            if j == 0:
                nums.append(x[i] * den)
            elif i == 0:
                nums.append(-x[j] * den)
            elif i == j:
                nums.append(den - x[i] * x[i])
            else:
                nums.append(-x[i] * x[j])
    return verified(
        MatrixMap(
            dom,
            special_orthogonal(n),
            nums,
            den,
            rows=n,
            cols=n,
            excluded="x1 = -1",
            label=f"section_so_{n}",
        ),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def section_u(k: int) -> MatrixMap:
    """S^{2k-1} -> U(k): a unitary matrix with prescribed first column."""
    if k < 1:
        raise ValueError("need k >= 1")
    dom = sphere(2 * k - 1)
    reg = dom.registry
    z = [
        ComplexPair(Polynomial.variable(reg, 2 * j), Polynomial.variable(reg, 2 * j + 1))
        for j in range(k)
    ]
    zbar = [p.conjugate() for p in z]
    lead = 1 + z[0]
    lead_bar = lead.conjugate()
    den_complex = lead * lead_bar
    den_re, den_im = den_complex
    assert den_im.is_zero()
    nums: List[Polynomial] = []
    for i in range(k):
        for j in range(k):
            if j == 0:
                entry = z[i] * den_complex
            elif i == 0:
                entry = -(lead * lead) * zbar[j]
            elif i == j:
                entry = lead * (lead_bar - z[i] * zbar[i])
            else:
                entry = -z[i] * zbar[j] * lead
            nums.extend(entry)
    return verified(
        MatrixMap(
            dom,
            unitary(k),
            nums,
            den_re,
            rows=k,
            cols=k,
            complex_entries=True,
            excluded="x1 = -1, x2 = 0 (the antipode of the basepoint)",
            label=f"section_u_{k}",
        ),
        *_CHECK,
    )


# ---------------------------------------------------------------------------
# Retractions
# ---------------------------------------------------------------------------


def _retract(section: MatrixMap, column: RationalMap, label: str) -> MatrixMap:
    """g |-> section(column(g))^* g on the group of ``column``: the (conjugate)
    transpose of the lifted section times the group element."""
    lifted = compose(section, column)
    identity = identity_matrix_map(column.domain, section.rows, section.complex_entries)
    product = matrix_multiply(matrix_transpose(lifted), identity)
    return verified(relabel(product, label, "first column at the antipode of e"), *_CHECK)


@lru_cache(maxsize=None)
def retract_so(n: int) -> MatrixMap:
    """SO(n) -> SO(n) with image the stabilizer of the basepoint:
    g |-> section(first_column(g))^T * g.  Fixes the embedded SO(n-1)."""
    return _retract(section_so(n), first_column(n), f"retract_so_{n}")


@lru_cache(maxsize=None)
def retract_u(k: int) -> MatrixMap:
    """U(k) -> U(k) onto the stabilizer of the basepoint (conjugate-transpose
    of the lifted section times the group element)."""
    return _retract(section_u(k), first_column_u(k), f"retract_u_{k}")


@lru_cache(maxsize=None)
def chain_retract(m: int, k: int) -> MatrixMap:
    """SO(m) -> SO(m) with image the embedded SO(k), obtained by iterating
    the one-step retraction down the flag SO(m) > SO(m-1) > ... > SO(k).

    At each level the current map's image lies in an embedded block; its
    first block column is a sphere map, the section lifts it back to a
    block rotation, and multiplying by the (lifted) transpose pushes the
    image one level deeper.  Every embedded SO(k) element is fixed."""
    if not 2 <= k < m:
        raise ValueError("need 2 <= k < m")
    group = special_orthogonal(m)
    current = identity_matrix_map(group, m)
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
def su_retract(k: int) -> MatrixMap:
    """U(k) -> SU(k): scale the first column by the conjugate determinant.

    On unitary matrices conj(det g) = det(g)^{-1}, so the result has
    determinant one and every special unitary matrix is fixed."""
    if k < 1:
        raise ValueError("need k >= 1")
    dom = unitary(k)
    entries = complex_entry_polys(dom.registry, k)
    det_conj = poly_matrix_determinant(entries).conjugate()
    nums: List[Polynomial] = []
    for i in range(k):
        for j in range(k):
            nums.extend(entries[i][j] * det_conj if j == 0 else entries[i][j])
    return verified(
        MatrixMap(
            dom,
            special_unitary(k),
            nums,
            Polynomial.one(dom.registry),
            rows=k,
            cols=k,
            complex_entries=True,
            label=f"su_retract_{k}",
        ),
        *_CHECK,
    )


@lru_cache(maxsize=None)
def embed_u_in_so(k: int) -> MatrixMap:
    """U(k) -> SO(2k): replace each complex entry a + bi by the 2x2 block
    [[a, -b], [b, a]] (realification preserves products and adjoints)."""
    if k < 1:
        raise ValueError("need k >= 1")
    total = 2 * k
    picks = []
    for r in range(total):
        for c in range(total):
            # row s, column t of the block [[a, -b], [b, a]] of entry (i, j)
            (i, s), (j, t) = divmod(r, 2), divmod(c, 2)
            picks.append((2 * (i * k + j) + (s ^ t), -1 if s < t else 1))
    embedding = coordinate_map(
        unitary(k), special_orthogonal(total), picks, f"embed_u{k}_in_so{total}",
        (total, total, False),
    )
    return verified(embedding, *_CHECK)


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
    scale = polynomial_from_obj(obj["scale"], registry)
    spec = JMapInput(entries, scale, n, k, label=obj.get("label", ""))
    spec.validate()
    return spec
