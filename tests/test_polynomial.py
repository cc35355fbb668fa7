"""Exact polynomial arithmetic: ring axioms, normal forms, serialization."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmaps.polynomial import (
    DEGREE_LIMIT,
    ComplexPair,
    MissingAssignmentError,
    OverlappingBlocksError,
    Polynomial,
    RegistryMismatchError,
    SphereBlock,
    UnknownVariableError,
    VarRegistry,
    exponents,
    normal_form,
    pack,
    polynomial_from_json,
    polynomial_from_obj,
    polynomial_to_json,
    polynomial_to_obj,
    scale_point,
    transport_polynomial,
)
import reference_polynomial as ref
from reference_linalg import sphere_coords_from_parameters

REG = VarRegistry(["x1", "x2", "x3", "y1"])
X1 = Polynomial.variable(REG, 0)
X2 = Polynomial.variable(REG, 1)
X3 = Polynomial.variable(REG, 2)
Y1 = Polynomial.variable(REG, 3)
ONE = Polynomial.one(REG)


def random_poly(rng, registry=REG, terms=5, max_exp=3, height=9):
    out = Polynomial.zero(registry)
    for _ in range(rng.randrange(terms + 1)):
        coeff = Fraction(rng.randint(-height, height), rng.randint(1, height))
        mono = Polynomial.constant(registry, coeff)
        for var_id in range(registry.size):
            mono = mono * Polynomial.variable(registry, var_id) ** rng.randrange(
                max_exp
            )
        out = out + mono
    return out


def random_point(rng, registry=REG, height=7):
    return [
        Fraction(rng.randint(-height, height), rng.randint(1, height))
        for _ in range(registry.size)
    ]


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for case in range(220):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a, f"case {case}: addition not commutative"
        assert (a + b) + c == a + (b + c), f"case {case}: addition not associative"
        assert a * b == b * a, f"case {case}: multiplication not commutative"
        assert (a * b) * c == a * (b * c), f"case {case}: multiplication not associative"
        assert a * (b + c) == a * b + a * c, f"case {case}: not distributive"
        assert a + Polynomial.zero(REG) == a
        assert a * ONE == a
        assert (a - a).is_zero()
        assert (a * Polynomial.zero(REG)).is_zero()


def test_arithmetic_commutes_with_evaluation():
    rng = random.Random(77)
    for _ in range(60):
        a = random_poly(rng)
        b = random_poly(rng)
        point = random_point(rng)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_small_identities():
    assert X1 + (-1) * X1 == Polynomial.zero(REG)
    assert (X1 ** 2 + ONE) + X2 == X1 ** 2 + X2 + ONE
    assert (X1 + ONE) * (X1 - ONE) == X1 ** 2 - ONE
    # the product expansion used by the sphere-addition denominator
    assert (ONE + X1) * (ONE + Y1) == ONE + X1 + Y1 + X1 * Y1


def test_power_matches_repeated_multiplication():
    p = X1 + 2 * X2 - ONE
    q = ONE
    for k in range(7):
        assert p ** k == q
        q = q * p


# ---------------------------------------------------------------------------
# accumulation: the constructor adds repeated monomials, ``sum`` feeds it
# ---------------------------------------------------------------------------


def test_constructor_adds_repeated_pairs():
    e, f = pack((1, 0, 0, 0), REG), pack((0, 2, 0, 0), REG)
    # 1/2, 3, 1/3 and -3 over the denominator 6
    pairs = [(e, 3), (f, 18), (e, 2), (f, -18)]
    p = Polynomial(REG, pairs, 6)
    assert {x: Fraction(c, p.den) for x, c in p.terms.items()} == {e: Fraction(5, 6)}
    assert p == Polynomial(REG, iter(pairs), 6) == Fraction(5, 6) * X1
    assert Polynomial(REG, ((e, 1) for _ in range(4))) == 4 * X1
    assert Polynomial(REG, [(e, 2), (e, -2)], 3).is_zero()
    shuffled = list((X1 + X2**2 + X3 * Y1 + 1).terms.items())[::-1]
    assert list(Polynomial(REG, shuffled).terms) == list((X1 + X2**2 + X3 * Y1 + 1).terms)


def test_sum_matches_a_left_fold_of_addition():
    rng = random.Random(606)
    for _ in range(60):
        polys = [random_poly(rng) for _ in range(rng.randrange(7))]
        folded = Polynomial.zero(REG)
        for p in polys:
            folded = folded + p
        total = Polynomial.sum(REG, (p for p in polys))
        assert total == folded
        assert list(total.terms.items()) == list(folded.terms.items())
    p = X1 * X2 - Fraction(3, 7) * Y1**2 + 2
    assert Polynomial.sum(REG, (q for q in (p, -p, 2 * p, -2 * p))).is_zero()
    assert Polynomial.sum(REG, iter(())) == Polynomial.zero(REG)


def test_sum_rejects_a_summand_over_another_registry():
    other = VarRegistry(["a", "b"])
    with pytest.raises(RegistryMismatchError):
        Polynomial.sum(REG, (q for q in (X1, Polynomial.variable(other, 0))))
    with pytest.raises(RegistryMismatchError):
        Polynomial.sum(other, [X1])


def test_complex_dot_matches_its_fold():
    rng = random.Random(707)
    zero = ComplexPair(Polynomial.zero(REG), Polynomial.zero(REG))
    for _ in range(30):
        lefts, rights = (
            [ComplexPair(random_poly(rng), random_poly(rng)) for _ in range(3)] for _ in range(2)
        )
        length = rng.randrange(4)
        folded = zero
        for x, y in zip(lefts[:length], rights[:length]):
            folded = folded + ComplexPair(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)
        assert ComplexPair.dot(REG, lefts[:length], rights[:length]) == folded
    assert ComplexPair.dot(REG, [], []) == zero
    with pytest.raises(RegistryMismatchError):
        other = Polynomial.zero(VarRegistry(["a"]))
        ComplexPair.dot(REG, [ComplexPair(X1, X2)] * 2, [ComplexPair(X1, X2), ComplexPair(other, X1)])


def test_registry_mismatch_rejected():
    other = VarRegistry(["x1", "x2"])
    with pytest.raises(RegistryMismatchError):
        X1 + Polynomial.variable(other, 0)
    with pytest.raises(RegistryMismatchError):
        X1 * Polynomial.variable(other, 1)


def test_duplicate_registry_names_are_listed_once_each():
    with pytest.raises(ValueError) as exc:
        VarRegistry(["x1", "x2", "x1", "y1", "x2", "x1"])
    assert str(exc.value) == "duplicate variable names in registry: ['x1', 'x2']"


def test_unknown_variable_rejected():
    for var_id in (4, -1):
        with pytest.raises(UnknownVariableError):
            Polynomial.variable(REG, var_id)
        with pytest.raises(UnknownVariableError):
            X1.differentiate(var_id)


# ---------------------------------------------------------------------------
# complex pairs
# ---------------------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = ComplexPair(Fraction(1, 2), Fraction(3))
    b = ComplexPair(Fraction(-2), Fraction(1, 3))
    assert a + b == ComplexPair(Fraction(-3, 2), Fraction(10, 3))
    assert a * b == ComplexPair(Fraction(-2), Fraction(-35, 6))
    i = ComplexPair(0, 1)
    assert i * i == ComplexPair(Fraction(-1), Fraction(0))
    assert a.conjugate() == ComplexPair(Fraction(1, 2), Fraction(-3))
    # |a|^2 = a * conj(a) is real
    norm = a * a.conjugate()
    assert norm.im == 0 and norm.re == Fraction(1, 4) + 9


def test_gaussian_polynomial_round_trip_to_real_parts():
    # (X1 + i X2)^2 = (X1^2 - X2^2) + i (2 X1 X2), carried as (re, im) pairs.
    z = ComplexPair(X1, X2)
    re, im = z * z
    assert re == X1 ** 2 - X2 ** 2
    assert im == 2 * X1 * X2
    assert z ** 2 == z * z
    assert z ** 0 == (Polynomial.one(REG), Polynomial.zero(REG))
    # The conjugate flips the imaginary part, and z * conj(z) = |z|^2 is real.
    assert z.conjugate() == (X1, -X2)
    assert z.conjugate() * z.conjugate() == (X1 ** 2 - X2 ** 2, -2 * X1 * X2)
    assert z * z.conjugate() == (X1 ** 2 + X2 ** 2, Polynomial.zero(REG))
    assert z + z.conjugate() == (2 * X1, Polynomial.zero(REG))
    assert z - z.conjugate() == (Polynomial.zero(REG), 2 * X2)
    assert -z == (-X1, -X2)
    with pytest.raises(TypeError):
        z + X1  # a real polynomial must enter as a pair


def test_complex_pair_serves_polynomials_and_scalars_alike():
    # Evaluating an operation on polynomial pairs part by part gives the same
    # operation on the evaluated pairs: one (a + bi)(c + di) serves both.
    rng = random.Random(1515)
    for _ in range(25):
        z = ComplexPair(random_poly(rng), random_poly(rng))
        w = ComplexPair(random_poly(rng), random_poly(rng))
        point = random_point(rng)

        def at(pair):
            return ComplexPair(pair.re.evaluate(point), pair.im.evaluate(point))

        zv, wv = at(z), at(w)
        assert at(z * w) == zv * wv
        assert at(z + w) == zv + wv
        assert at(z - w) == zv - wv
        assert at(z.conjugate()) == zv.conjugate()
        assert at(z ** 3) == zv ** 3
        for scalar in (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9)):
            assert at(scalar * z) == scalar * zv == zv * scalar == at(z * scalar)
            assert at(scalar + z) == scalar + zv == zv + scalar == at(z + scalar)
            assert at(scalar - z) == scalar - zv == -(zv - scalar) == -at(z - scalar)
            if scalar:
                assert (zv / scalar) * scalar == zv
        if wv:
            assert (zv / wv) * wv == zv
    assert not ComplexPair(0, 0)
    assert not ComplexPair(Fraction(0), Fraction(0))
    assert not ComplexPair(Polynomial.zero(REG), Polynomial.zero(REG))
    assert ComplexPair(0, Fraction(1, 2)) and ComplexPair(Polynomial.zero(REG), X1)
    quotient = ComplexPair(1, 2) / ComplexPair(3, 4)
    assert quotient == (Fraction(11, 25), Fraction(2, 25))
    assert all(type(part) is Fraction for part in quotient)
    for zero in (ComplexPair(0, 0), ComplexPair(Fraction(0), Fraction(0)), 0):
        with pytest.raises(ZeroDivisionError):
            ComplexPair(1, 2) / zero


def test_gaussian_integer_floor_division_is_exact():
    rng = random.Random(12)

    def gaussian(bound):
        return ComplexPair(rng.randint(-bound, bound), rng.randint(-bound, bound))

    for _ in range(300):
        a, b = gaussian(10**12), gaussian(50)
        c = rng.randint(-50, 50)
        if b:
            quotient = (a * b) // b
            assert quotient == a and all(type(part) is int for part in quotient)
        if c:
            assert (a * c) // c == a and all(type(part) is int for part in (a * c) // c)
    assert ComplexPair(5, 0) // ComplexPair(2, 1) == ComplexPair(2, -1)
    assert ComplexPair(0, 0) // ComplexPair(3, -7) == ComplexPair(0, 0)
    # an exact rational quotient that is no Gaussian integer raises
    inexact = ((ComplexPair(1, 0), ComplexPair(1, 1)), (ComplexPair(3, 2), 2), (ComplexPair(5, 0), 3))
    for a, b in inexact:
        with pytest.raises(ValueError):
            a // b
    for zero in (ComplexPair(0, 0), 0):
        with pytest.raises(ZeroDivisionError):
            ComplexPair(1, 2) // zero


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_differentiate_basics():
    assert (X1 ** 2).differentiate(0) == 2 * X1
    assert (X1 ** 2).differentiate(1).is_zero()
    # d/dy of Q^2 + ||y||^2 style expressions: the y-part contributes 2y
    q = X1 ** 2 + X2 ** 2 + Y1 ** 2
    assert q.differentiate(3) == 2 * Y1


def test_differentiate_linear_and_leibniz():
    rng = random.Random(4242)
    for _ in range(80):
        a = random_poly(rng)
        b = random_poly(rng)
        var = rng.choice(range(REG.size))
        assert (a + b).differentiate(var) == a.differentiate(var) + b.differentiate(var)
        assert (a * b).differentiate(var) == a.differentiate(
            var
        ) * b + a * b.differentiate(var)


# ---------------------------------------------------------------------------
# normal form modulo sphere blocks
# ---------------------------------------------------------------------------

S1_REG = VarRegistry(["x1", "x2"])
S1_BLOCK = SphereBlock((0, 1))


def test_normal_form_kills_the_relation():
    p = Polynomial.variable(S1_REG, 0) ** 2 + Polynomial.variable(S1_REG, 1) ** 2
    assert normal_form(p, [S1_BLOCK]) == Polynomial.one(S1_REG)


def test_normal_form_x2_cubed():
    # x2^3 = x2 * x2^2 -> x2 * (1 - x1^2)
    x1 = Polynomial.variable(S1_REG, 0)
    x2 = Polynomial.variable(S1_REG, 1)
    assert normal_form(x2 ** 3, [S1_BLOCK]) == x2 - x1 ** 2 * x2


def test_normal_form_idempotent_and_degree_bounded():
    rng = random.Random(11)
    for _ in range(120):
        p = random_poly(rng, S1_REG, terms=6, max_exp=5)
        nf = normal_form(p, [S1_BLOCK])
        assert normal_form(nf, [S1_BLOCK]) == nf
        # eliminated variable appears with exponent <= 1 after rewriting
        for m in nf.terms:
            assert exponents(m, S1_REG)[1] <= 1


def test_normal_form_sound_at_exact_circle_points():
    rng = random.Random(12)
    for trial in range(50):
        p = random_poly(rng, S1_REG, terms=6, max_exp=5)
        nf = normal_form(p, [S1_BLOCK])
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        point = sphere_coords_from_parameters([t])
        assert p.evaluate(point) == nf.evaluate(point), f"trial {trial} at t={t}"


def test_normal_form_two_blocks_and_overlap_error():
    reg = VarRegistry(["x1", "x2", "y1", "y2"])
    bx = SphereBlock((0, 1))
    by = SphereBlock((2, 3))
    p = Polynomial.variable(reg, 0) ** 2 + Polynomial.variable(reg, 1) ** 2
    q = Polynomial.variable(reg, 2) ** 2 + Polynomial.variable(reg, 3) ** 2
    assert normal_form(p * q, [bx, by]) == Polynomial.one(reg)
    with pytest.raises(OverlappingBlocksError):
        normal_form(p, [bx, SphereBlock((1, 2))])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    p = X1 ** 2 + X2 ** 2
    assert p.evaluate([Fraction(3, 5), Fraction(4, 5), 0, 0]) == 1
    # constant term at the origin
    q = 7 * X1 * X2 + Polynomial.constant(REG, Fraction(5, 3))
    assert q.evaluate([0, 0, 0, 0]) == Fraction(5, 3)


def test_evaluate_sphere_addition_denominator_fixture():
    # (1+x1)(1+y1) + 2 - 2 x1 y1 + 2 x2 y2 at x = y = (0, 1) gives 1 + 2 + 2 = 5
    reg = VarRegistry(["x1", "x2", "y1", "y2"])
    x1, x2, y1, y2 = (Polynomial.variable(reg, i) for i in range(4))
    one = Polynomial.one(reg)
    den = (one + x1) * (one + y1) + 2 * one - 2 * x1 * y1 + 2 * x2 * y2
    point = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    assert den.evaluate(point) == 5
    assert abs(float(den.evaluate([0.0, 1.0, 0.0, 1.0])) - 5.0) < 1e-12


def test_evaluate_requires_full_assignment():
    with pytest.raises(MissingAssignmentError):
        (X1 + X2).evaluate([Fraction(1)])
    # variables the polynomial does not use may be omitted
    assert X1.evaluate([Fraction(2)]) == 2


def naive_evaluate(p, values):
    """Reference: the plain sum of c * prod(v ** e) in Fraction arithmetic."""
    total = Fraction(0)
    for m, coeff in p.terms.items():
        term = Fraction(coeff, p.den)
        for v, e in zip(values, exponents(m, p.registry)):
            term *= Fraction(v) ** e
        total += term
    return total


def test_evaluate_matches_the_naive_sum():
    rng = random.Random(20)
    for _ in range(300):
        p = random_poly(rng, terms=6, max_exp=4, height=rng.choice([1, 9, 1000]))
        # Two points in a row: the first call builds the plan, the second reuses it.
        for extra in (0, 2):
            point = random_point(rng, height=rng.choice([1, 7, 10 ** 6]))
            for k in range(len(point)):
                if rng.random() < 0.2:
                    point[k] = Fraction(0)
            expected = naive_evaluate(p, point)
            assert p.evaluate(point) == expected
            # coordinates past the registry are never read
            assert p.evaluate(tuple(point) + (Fraction(5, 3),) * extra) == expected
            as_ints = [int(v) for v in point]
            assert p.evaluate(as_ints) == naive_evaluate(p, as_ints)
            assert type(p.evaluate(as_ints)) is Fraction


def test_the_integer_core_has_the_sign_and_the_zeros_of_the_value():
    rng = random.Random(23)
    zeros = 0
    for _ in range(300):
        p = random_poly(rng, terms=6, max_exp=4, height=rng.choice([1, 9, 1000]))
        point = random_point(rng, height=rng.choice([1, 7, 10 ** 6]))
        if rng.random() < 0.3:  # shift p so that it vanishes at the point
            p = p - p.evaluate(point)
        q, nums = scale_point(point)
        # an unreduced form: q shares the factor k with every numerator
        k = rng.choice([2, 3, 30, 10 ** 9])
        for form in ((q, nums), (k * q, [k * n for n in nums])):
            value = p.evaluate([Fraction(n, form[0]) for n in form[1]])
            assert value == p.evaluate(point) == naive_evaluate(p, point)
            numerator = p.scaled_numerator(form[1], form[0])
            assert type(numerator) is int
            assert (numerator > 0) - (numerator < 0) == (value > 0) - (value < 0)
            zeros += not numerator
    assert zeros >= 100  # the zero test is exercised, not only the signs


def test_the_evaluation_plan_is_built_on_first_use_and_kept():
    p = 3 * X1 ** 2 * Y1 - Fraction(1, 6) * X2 + 1
    fresh = Polynomial(REG, p.terms, p.den)
    assert not hasattr(p, "_plan") and not hasattr(fresh, "_plan")
    assert p.evaluate([1, 6, 9, Fraction(1, 3)]) == 1
    plan = p._plan
    # used ids, L, D, the distinct powers as (position in used, exponent),
    # then per term (c * L / den, indices into the powers, D - deg)
    assert plan == (
        (0, 1, 3),
        6,
        3,
        ((0, 2), (2, 1), (1, 1)),
        ((18, (0, 1), 0), (-1, (2,), 2), (6, (), 3)),
    )
    assert p.evaluate((2, 0, 7, Fraction(1, 4), 8)) == 4
    assert p._plan is plan
    assert p.variables_used() == (0, 1, 3)
    # the plan is a cache: equality and hashing ignore it
    assert p == fresh and hash(p) == hash(fresh)
    assert not hasattr(fresh, "_plan")


def test_evaluate_edge_cases():
    zero = Polynomial.zero(REG)
    assert zero.evaluate([]) == 0 and type(zero.evaluate([])) is Fraction
    third = Polynomial.constant(REG, Fraction(1, 3))
    assert third.evaluate([]) == Fraction(1, 3)
    # a longer sequence is fine; only the used ids are read
    assert (X1 * Y1).evaluate([2, 5, 5, Fraction(1, 2), 9]) == 1
    # a zero coordinate kills every monomial it divides, whatever the others
    p = X1 ** 3 * X2 + Fraction(1, 7) * X2 ** 2 - 2
    assert p.evaluate([0, Fraction(7, 2), 0, 0]) == Fraction(7, 4) - 2
    # values that are neither Fraction nor int are read through Fraction
    assert p.evaluate(["1/2", 2.0, 0, 0]) == naive_evaluate(p, [Fraction(1, 2), 2, 0, 0])
    with pytest.raises(MissingAssignmentError, match="x2"):
        p.evaluate([1])
    with pytest.raises(MissingAssignmentError, match="x1"):
        p.evaluate([None, 1, 0, 0])
    with pytest.raises(MissingAssignmentError, match="x2"):
        p.evaluate([1, None])


# ---------------------------------------------------------------------------
# canonical form and serialization
# ---------------------------------------------------------------------------


def test_canonical_term_order_is_graded():
    p = X1 + X3 ** 2 + ONE + X1 * X2
    degrees = [sum(exponents(m, REG)) for m, _ in sorted(p.terms.items(), key=lambda kv: kv[0])]
    obj = polynomial_to_obj(p)
    listed = [sum(e for _, e in term["m"]) for term in obj]
    assert listed == sorted(listed, reverse=True), "terms not in graded order"
    assert set(degrees) == set(listed)


def test_serialization_round_trip_exact():
    rng = random.Random(31)
    for _ in range(60):
        p = random_poly(rng)
        text = polynomial_to_json(p)
        again = polynomial_from_json(text, REG)
        assert again == p
        assert polynomial_to_json(again) == text, "round trip not byte stable"


def test_serialized_coefficients_are_fraction_strings():
    p = Polynomial.constant(REG, Fraction(-7, 3)) * X1
    obj = polynomial_to_obj(p)
    assert obj[0]["c"] == "-7/3"
    assert obj[0]["m"] == [[0, 1]]


def test_transport_polynomial_renames_variables():
    small = VarRegistry(["X1", "X2"])
    big = VarRegistry(["x1", "x2", "x3", "x4"])
    p = Polynomial.variable(small, 0) ** 2 + 3 * Polynomial.variable(small, 1)
    moved = transport_polynomial(p, big, {0: 2, 1: 3})
    x3 = Polynomial.variable(big, 2)
    x4 = Polynomial.variable(big, 3)
    assert moved == x3 ** 2 + 3 * x4


# ---------------------------------------------------------------------------
# integer coefficients over one denominator, against a Fraction reference
# ---------------------------------------------------------------------------

# Derandomized, with no example database: the same examples on every run.
REFERENCE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
REFERENCE_BLOCKS = ((0, 1, 2), (3,))

fractions = st.builds(
    Fraction,
    st.integers(-60, 60) | st.integers(-(10**30), 10**30),
    st.integers(1, 12) | st.sampled_from([2**40, 3**25 * 7]),
)
references = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * REG.size), fractions, max_size=6
).map(lambda d: {e: c for e, c in d.items() if c})
points = st.lists(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
    min_size=REG.size,
    max_size=REG.size,
)


def assert_canonical(p):
    """Integer coefficients over a positive denominator, in lowest terms."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1


@REFERENCE_SETTINGS
@given(references, references)
def test_ring_operations_agree_with_the_fraction_reference(a, b):
    p, q = ref.to_polynomial(REG, a), ref.to_polynomial(REG, b)
    assert ref.from_polynomial(p) == a
    for result, expected in (
        (p + q, ref.add(a, b)),
        (p - q, ref.sub(a, b)),
        (p * q, ref.mul(a, b)),
        (-p, ref.neg(a)),
        (Polynomial.sum(REG, [p, q, -p]), b),
    ):
        assert_canonical(result)
        assert ref.from_polynomial(result) == expected


@REFERENCE_SETTINGS
@given(references, st.integers(0, 3), fractions)
def test_powers_and_scalar_products_agree_with_the_fraction_reference(a, exponent, scalar):
    p = ref.to_polynomial(REG, a)
    for result, expected in (
        (p**exponent, ref.power(a, exponent, REG.size)),
        (p * scalar, ref.mul(a, {(0,) * REG.size: scalar})),
        (scalar * p, ref.mul(a, {(0,) * REG.size: scalar})),
        (p * exponent, ref.mul(a, {(0,) * REG.size: Fraction(exponent)})),
    ):
        assert_canonical(result)
        assert ref.from_polynomial(result) == expected


@REFERENCE_SETTINGS
@given(references)
def test_derivatives_and_normal_forms_agree_with_the_fraction_reference(a):
    p = ref.to_polynomial(REG, a)
    for var_id in range(REG.size):
        derivative = p.differentiate(var_id)
        assert_canonical(derivative)
        assert ref.from_polynomial(derivative) == ref.differentiate(a, var_id)
    reduced = normal_form(p, [SphereBlock(block) for block in REFERENCE_BLOCKS])
    assert_canonical(reduced)
    assert ref.from_polynomial(reduced) == ref.normal_form(a, REFERENCE_BLOCKS)


@REFERENCE_SETTINGS
@given(references)
def test_the_gradient_holds_the_nonzero_partials(a):
    p = ref.to_polynomial(REG, a)
    gradient = p.gradient()
    assert tuple(gradient) == p.variables_used()
    for var_id in range(REG.size):
        derivative = p.differentiate(var_id)
        if var_id in gradient:
            assert gradient[var_id] == derivative and not derivative.is_zero()
        else:
            assert derivative.is_zero()
    assert p.gradient() is gradient  # built once and kept, as the evaluation plan is


@REFERENCE_SETTINGS
@given(references, points)
def test_values_agree_with_the_fraction_reference(a, point):
    p = ref.to_polynomial(REG, a)
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == ref.evaluate(a, point)
    q, nums = scale_point(point)
    numerator = p.scaled_numerator(nums, q)
    assert Fraction(numerator, p.den * q ** p.total_degree()) == value


@REFERENCE_SETTINGS
@given(references)
def test_the_serialized_form_is_the_fraction_references(a):
    p = ref.to_polynomial(REG, a)
    assert polynomial_to_obj(p) == ref.to_obj(a)
    text = polynomial_to_json(p)
    assert text == json.dumps(ref.to_obj(a), separators=(",", ":"))
    again = polynomial_from_json(text, REG)
    assert again == p and again.den == p.den
    assert list(again.terms.items()) == list(p.terms.items())
    assert polynomial_to_json(again) == text


# ---------------------------------------------------------------------------
# the accumulator of sums of products, against the Fraction reference
# ---------------------------------------------------------------------------

coefficients = st.integers(-5, 5) | st.integers(-(10**20), 10**20)
product_terms = st.lists(st.tuples(coefficients, references, st.none() | references), max_size=5)


def _reference_sum(terms) -> dict:
    """The sum of ``coeff * left * right`` over reference triples."""
    out: dict = {}
    for coeff, left, right in terms:
        product = left if right is None else ref.mul(left, right)
        out = ref.add(out, ref.mul(product, {(0,) * REG.size: Fraction(coeff)}))
    return out


@REFERENCE_SETTINGS
@given(product_terms, st.booleans())
def test_the_accumulator_agrees_with_the_fraction_reference(terms, cancel):
    """Denominators above one, lone factors, and, when ``cancel``, every term
    again with its coefficient negated, so that the sum cancels to zero."""
    if cancel:
        terms = terms + [(-coeff, left, right) for coeff, left, right in terms]
    built = [
        (coeff, ref.to_polynomial(REG, left), None if right is None else ref.to_polynomial(REG, right))
        for coeff, left, right in terms
    ]
    total = Polynomial.sum_of_products(REG, built)
    assert_canonical(total)
    assert ref.from_polynomial(total) == _reference_sum(terms)
    assert total.is_zero() or not cancel
    # the canonical order of the terms: that of any other route to the sum
    folded = Polynomial.zero(REG)
    for coeff, left, right in built:
        folded = folded + coeff * (left if right is None else left * right)
    assert (total.den, list(total.terms.items())) == (folded.den, list(folded.terms.items()))


def test_the_accumulator_of_no_terms_is_zero():
    total = Polynomial.sum_of_products(REG, [])
    assert total == Polynomial.zero(REG) and total.den == 1
    assert Polynomial.sum_of_products(REG, iter([(0, X1, X2), (3, ONE - ONE, None)])).is_zero()
    assert Polynomial.dot(REG, [], []) == Polynomial.zero(REG)


pairs_of_references = st.tuples(references, references)


@REFERENCE_SETTINGS
@given(st.lists(st.tuples(pairs_of_references, pairs_of_references), max_size=4))
def test_a_complex_matrix_product_entry_agrees_with_the_fraction_reference(pairs):
    """One entry of a product of complex matrices: the sum over ``j`` of
    ``(a + bi)(c + di)``, Re and Im each one sum of products."""
    lefts = [ComplexPair(*(ref.to_polynomial(REG, p) for p in x)) for x, _ in pairs]
    rights = [ComplexPair(*(ref.to_polynomial(REG, p) for p in y)) for _, y in pairs]
    re, im = ComplexPair.dot(REG, lefts, rights)
    expected_re = _reference_sum(t for (a, b), (c, d) in pairs for t in ((1, a, c), (-1, b, d)))
    expected_im = _reference_sum(t for (a, b), (c, d) in pairs for t in ((1, a, d), (1, b, c)))
    for part, expected in ((re, expected_re), (im, expected_im)):
        assert_canonical(part)
        assert ref.from_polynomial(part) == expected


def test_the_accumulator_refuses_what_a_product_refuses():
    other = VarRegistry(["x1", "x2"])
    stranger = Polynomial.variable(other, 0)
    message = (
        r"operands use different registries: \('x1', 'x2', 'x3', 'y1'\) vs \('x1', 'x2'\)$"
    )
    for terms in ([(1, X1, None), (2, stranger, None)], [(1, X1, stranger)], [(1, stranger, X1)]):
        with pytest.raises(RegistryMismatchError, match=message):
            Polynomial.sum_of_products(REG, terms)
    full = X2**TOP
    limit = f"^a product of degree {DEGREE_LIMIT} reaches the limit {DEGREE_LIMIT}$"
    for terms in ([(1, full, X1)], [(1, X1 + X3, full + 1)], [(1, ONE, X1), (-1, full, Y1)]):
        with pytest.raises(OverflowError, match=limit):
            Polynomial.sum_of_products(REG, terms)
    # a lone factor of full degree, and a product just below the limit, are fine
    assert Polynomial.sum_of_products(REG, [(1, full, None), (1, X2 ** (TOP - 1), X1)]) == (
        full + X2 ** (TOP - 1) * X1
    )


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------


def _exps(size: int, fields=()) -> tuple:
    """The exponent tuple over ``size`` variables with ``{id: exponent}`` set."""
    return tuple(dict(fields).get(i, 0) for i in range(size))


WIDE = VarRegistry([f"w{i}" for i in range(20)])

# name: (registry, reference polynomial), each at an edge of the writer.
WRITER_CASES = {
    "zero": (REG, {}),
    "constant": (REG, {_exps(4): Fraction(5)}),
    "two-byte-exponent": (REG, {_exps(4, {1: 300}): 1, _exps(4, {2: 256, 3: 1}): 2}),
    "variable-id-at-least-16": (WIDE, {_exps(20, {16: 2, 19: 1}): 1, _exps(20, {0: 1, 17: 3}): 4}),
    "denominator-above-one": (REG, {_exps(4, {0: 1}): Fraction(1, 6), _exps(4): Fraction(5, 4)}),
    "negative-coefficients": (REG, {_exps(4, {0: 2}): -3, _exps(4, {1: 1}): Fraction(-7, 2)}),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_the_writer_matches_the_reference_encoding(case):
    registry, a = WRITER_CASES[case]
    p = ref.to_polynomial(registry, a)
    text = polynomial_to_json(p)
    assert text == json.dumps(ref.to_obj(a), separators=(",", ":"))
    assert polynomial_to_obj(p) == ref.to_obj(a)
    assert polynomial_from_json(text, registry) == p


def _word_edges(size: int) -> list:
    """Reference polynomials over ``size`` variables with exponents in the
    first, a middle and the last 64-bit word of a key (four exponent fields
    each), across words, and in the empty monomial."""
    last = size - 1
    return [
        {_exps(size): Fraction(3), _exps(size, {0: 2, 3: 1}): 1},
        {_exps(size, {5: 1, 6: 4}): Fraction(-2, 3), _exps(size, {last: 7}): 5},
        {_exps(size, {1: 1, 4: 2, last: 1}): -1, _exps(size, {3: 300, 4: 1}): Fraction(7, 2)},
        {_exps(size, {0: 2, 3: 1, last: 2}): 4, _exps(size, {5: 1, 6: 4, 8: 1}): 1},
        {},
    ]


def test_a_shared_word_cache_writes_what_fresh_caches_write():
    """Over 9 and 13 variables, so that the last word is partly empty.  A
    word's text depends on its position, not on the registry around it, so
    one cache serves both."""
    shared: dict = {}
    for size in (9, 13, 9):
        registry = VarRegistry(f"v{i}" for i in range(size))
        cases = _word_edges(size)
        polys = [ref.to_polynomial(registry, a) for a in cases]
        expected = [json.dumps(ref.to_obj(a), separators=(",", ":")) for a in cases]
        assert [polynomial_to_json(p) for p in polys] == expected
        assert [polynomial_to_json(p, shared) for p in polys] == expected
        assert [polynomial_to_json(p, shared) for p in reversed(polys)] == expected[::-1]
        assert [polynomial_from_json(text, registry) for text in expected] == polys
    assert shared


@REFERENCE_SETTINGS
@given(references, st.integers(1, 10**6))
def test_equal_polynomials_built_by_different_routes_compare_and_hash_equal(a, k):
    """From ``Fraction`` input, from integers over an unreduced denominator,
    from the serialized form and by integer arithmetic: one canonical form."""
    p = ref.to_polynomial(REG, a)
    common = 1
    for c in a.values():
        common = common * c.denominator // gcd(common, c.denominator)
    over_integers = Polynomial(
        REG, {pack(e, REG): int(c * common) * k for e, c in a.items()}, common * k
    )
    routes = [
        over_integers,
        polynomial_from_json(json.dumps(ref.to_obj(a)), REG),
        (p * 3 + p) * Fraction(1, 4),
        (p + ONE) - ONE,
        Polynomial(REG, reversed(list(p.terms.items())), p.den),
    ]
    for other in routes:
        assert_canonical(other)
        assert other == p and hash(other) == hash(p)
        assert (other.den, list(other.terms.items())) == (p.den, list(p.terms.items()))


def test_the_constructor_takes_integer_coefficients_over_a_positive_denominator():
    e = pack((1, 0, 0, 0), REG)
    with pytest.raises(TypeError):
        Polynomial(REG, {e: Fraction(1, 2)})
    with pytest.raises(ValueError, match="must be positive"):
        Polynomial(REG, {e: 1}, 0)
    with pytest.raises(ValueError, match="must be positive"):
        Polynomial(REG, {e: 1}, -2)
    p = Polynomial(REG, {e: 4, pack((0,) * 4, REG): -6}, 10)
    assert (p.den, list(p.terms.values())) == (5, [2, -3])
    zero = Polynomial(REG, {e: 0}, 7)
    assert zero.is_zero() and zero.den == 1 and zero == Polynomial.zero(REG)


# ---------------------------------------------------------------------------
# the monomial layout: one integer per monomial, degree below 2**16
# ---------------------------------------------------------------------------

TOP = DEGREE_LIMIT - 1  # the largest exponent and degree a monomial holds


def _below_the_limit(exps):
    """``exps`` with each entry cut to the degree still free, so the total
    stays at most ``TOP``; a first large entry keeps up to ``TOP``."""
    room, out = TOP, []
    for e in exps:
        out.append(min(e, room))
        room -= out[-1]
    return out


def exponent_tuples(size):
    entries = st.integers(0, 3) | st.integers(0, TOP) | st.just(TOP)
    return (
        st.lists(entries, min_size=size, max_size=size)
        .map(_below_the_limit)
        .flatmap(st.permutations)
        .map(tuple)
    )


@REFERENCE_SETTINGS
@given(st.integers(1, 30).flatmap(lambda n: st.lists(exponent_tuples(n), min_size=1, max_size=12)))
def test_packed_monomials_sort_in_graded_reverse_lexicographic_order(tuples):
    registry = VarRegistry(f"v{i}" for i in range(len(tuples[0])))
    keys = [pack(e, registry) for e in tuples]
    assert [exponents(m, registry) for m in keys] == tuples
    p = Polynomial(registry, [(m, 1) for m in keys])
    expected = sorted(set(tuples), key=lambda e: (-sum(e), e[::-1]))
    assert [exponents(m, registry) for m in p.terms] == expected


def test_a_product_that_reaches_the_degree_limit_overflows():
    full = X2**TOP
    assert exponents(next(iter(full.terms)), REG) == (0, TOP, 0, 0)
    assert full.total_degree() == TOP
    for product in (
        lambda: full * X1,
        lambda: X1**DEGREE_LIMIT,
        lambda: (X1**40000 + X3) * (Y1**25536 - 1),
        lambda: ComplexPair(full, ONE) * ComplexPair(ONE, X3),
    ):
        with pytest.raises(OverflowError, match=str(DEGREE_LIMIT)):
            product()
    with pytest.raises(OverflowError):
        pack((0, DEGREE_LIMIT, 0, 0), REG)
    # a product just below the limit is exact and leaves its neighbours alone
    assert (X1**40000 * Y1**25535).evaluate([2, 3, 5, 1]) == 2**40000
    assert exponents(next(iter((X1**40000 * Y1**25535).terms)), REG) == (40000, 0, 0, 25535)


def test_a_serialized_monomial_at_the_degree_limit_is_refused():
    assert polynomial_from_obj([{"c": "1/1", "m": [[1, TOP]]}], REG) == X2**TOP
    for mono in ([[1, DEGREE_LIMIT]], [[0, 30000], [3, 35536]]):
        with pytest.raises(ValueError, match=f"below {DEGREE_LIMIT}"):
            polynomial_from_obj([{"c": "1/1", "m": mono}], REG)


def test_calculus_and_normal_forms_at_a_full_exponent_field():
    # x2 holds 65535: lowering it, or a field beside it, borrows nothing
    full = 3 * X2**TOP
    assert full.differentiate(1) == 3 * TOP * X2 ** (TOP - 1)
    assert full.differentiate(0).is_zero() and full.differentiate(2).is_zero()
    beside = X3 * X2 ** (TOP - 1) + X1
    assert beside.differentiate(2) == X2 ** (TOP - 1)
    assert beside.differentiate(1) == (TOP - 1) * X3 * X2 ** (TOP - 2)
    assert exponents(next(iter(beside.differentiate(1).terms)), REG) == (0, TOP - 2, 1, 0)
    # the block x2**2 = 1 rewrites x2**65535 to x2, the block x1**2 + x2**2 = 1
    # leaves x1 at 65535
    assert normal_form(full + X1, [SphereBlock((1,))]) == 3 * X2 + X1
    x1, x2 = Polynomial.variable(S1_REG, 0), Polynomial.variable(S1_REG, 1)
    assert normal_form(x1 ** (TOP - 2) * x2**2, [S1_BLOCK]) == x1 ** (TOP - 2) - x1**TOP
    reduced = normal_form(x1 ** (TOP - 3) * x2**3, [S1_BLOCK])
    assert [exponents(m, S1_REG) for m in reduced.terms] == [(TOP - 1, 1), (TOP - 3, 1)]
    assert reduced == x1 ** (TOP - 3) * x2 - x1 ** (TOP - 1) * x2
