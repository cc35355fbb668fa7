"""Exact polynomial arithmetic: ring axioms, normal forms, serialization."""

import random
from fractions import Fraction

import pytest

from regmaps.polynomial import (
    ComplexPair,
    MissingAssignmentError,
    OverlappingBlocksError,
    Polynomial,
    RegistryMismatchError,
    SphereBlock,
    UnknownVariableError,
    VarRegistry,
    normal_form,
    polynomial_from_json,
    polynomial_to_json,
    polynomial_to_obj,
    scale_point,
    transport_polynomial,
)
from reference_linalg import sphere_coords_from_parameters

REG = VarRegistry(["x1", "x2", "x3", "y1"])
X1 = Polynomial.variable(REG, "x1")
X2 = Polynomial.variable(REG, "x2")
X3 = Polynomial.variable(REG, "x3")
Y1 = Polynomial.variable(REG, "y1")
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
    e, f = (1, 0, 0, 0), (0, 2, 0, 0)
    pairs = [(e, Fraction(1, 2)), (f, Fraction(3)), (e, Fraction(1, 3)), (f, Fraction(-3))]
    p = Polynomial(REG, pairs)
    assert p.terms == {e: Fraction(5, 6)}
    assert p == Polynomial(REG, iter(pairs)) == Fraction(5, 6) * X1
    assert Polynomial(REG, ((e, Fraction(1)) for _ in range(4))) == 4 * X1
    assert Polynomial(REG, [(e, Fraction(2)), (e, Fraction(-2))]).is_zero()
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
        Polynomial.sum(REG, (q for q in (X1, Polynomial.variable(other, "a"))))
    with pytest.raises(RegistryMismatchError):
        Polynomial.sum(other, [X1])


def test_complex_sum_matches_its_fold():
    rng = random.Random(707)
    zero = ComplexPair(Polynomial.zero(REG), Polynomial.zero(REG))
    for _ in range(30):
        pairs = [
            ComplexPair(random_poly(rng), random_poly(rng))
            for _ in range(rng.randrange(6))
        ]
        folded = zero
        for z in pairs:
            folded = folded + z
        assert ComplexPair.sum(REG, (z for z in pairs)) == folded
    assert ComplexPair.sum(REG, iter(())) == zero
    with pytest.raises(RegistryMismatchError):
        other = Polynomial.zero(VarRegistry(["a"]))
        ComplexPair.sum(REG, [ComplexPair(X1, X2), ComplexPair(other, other)])


def test_registry_mismatch_rejected():
    other = VarRegistry(["x1", "x2"])
    with pytest.raises(RegistryMismatchError):
        X1 + Polynomial.variable(other, "x1")
    with pytest.raises(RegistryMismatchError):
        X1 * Polynomial.variable(other, "x2")


def test_duplicate_registry_names_are_listed_once_each():
    with pytest.raises(ValueError) as exc:
        VarRegistry(["x1", "x2", "x1", "y1", "x2", "x1"])
    assert str(exc.value) == "duplicate variable names in registry: ['x1', 'x2']"


def test_unknown_variable_rejected():
    with pytest.raises(UnknownVariableError):
        Polynomial.variable(REG, "z9")
    with pytest.raises(UnknownVariableError):
        X1.differentiate("z9")


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
    assert (X1 ** 2).differentiate("x1") == 2 * X1
    assert (X1 ** 2).differentiate("x2").is_zero()
    # d/dy of Q^2 + ||y||^2 style expressions: the y-part contributes 2y
    q = X1 ** 2 + X2 ** 2 + Y1 ** 2
    assert q.differentiate("y1") == 2 * Y1


def test_differentiate_linear_and_leibniz():
    rng = random.Random(4242)
    for _ in range(80):
        a = random_poly(rng)
        b = random_poly(rng)
        var = rng.choice(REG.names)
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
        for exps in nf.terms:
            assert exps[1] <= 1


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
        (X1 + X2).evaluate({0: Fraction(1)})
    # variables the polynomial does not use may be omitted
    assert X1.evaluate({0: Fraction(2)}) == 2


def naive_evaluate(p, values):
    """Reference: the plain sum of c * prod(v ** e) in Fraction arithmetic."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, exps):
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
            assert p.evaluate(dict(enumerate(point))) == expected
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
    fresh = Polynomial(REG, p.terms)
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
    assert third.evaluate({}) == Fraction(1, 3)
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
        p.evaluate({0: 1, 1: None})


# ---------------------------------------------------------------------------
# canonical form and serialization
# ---------------------------------------------------------------------------


def test_canonical_term_order_is_graded():
    p = X1 + X3 ** 2 + ONE + X1 * X2
    degrees = [sum(exps) for exps, _ in sorted(p.terms.items(), key=lambda kv: kv[0])]
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
