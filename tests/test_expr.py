"""Parser/renderer round trips and error reporting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nullflow.diffalg import (
    NonZeroConstantTerm,
    NotExact,
    const,
    gen,
    param,
    total_derivative,
    zero,
)
from nullflow.expr import MAX_NESTING, ParseError, parse_expr, parse_field, parse_flow, render

K1 = gen("k1")
K2 = gen("k2")


def test_parse_simple_forms():
    assert parse_expr("0").is_zero()
    assert parse_expr("k1") == K1
    assert parse_expr("k2'''") == gen("k2", 3)
    assert parse_expr("k1^(5)") == gen("k1", 5)
    assert parse_expr("3/2*k1^2") == Fraction(3, 2) * K1 * K1
    assert parse_expr("1/2*a^-1*k1''") == (
        Fraction(1, 2) * param("a", -1) * gen("k1", 2)
    )
    assert parse_expr("eps1*eps2*k2") == param("eps1") * param("eps2") * K2
    assert parse_expr("k1^(4)^2") == gen("k1", 4) ** 2


def test_precedence():
    # Unary minus binds between '^' and '*'.
    assert parse_expr("-k1^2") == -(K1**2)
    assert parse_expr("-k1^2*k2") == -(K1**2) * K2
    assert parse_expr("k1'^2") == gen("k1", 1) ** 2
    assert parse_expr("2*k1+3*k2'") == 2 * K1 + 3 * gen("k2", 1)
    assert parse_expr("(k1+k2)^2") == (K1 + K2) ** 2
    assert parse_expr("1 - 2 - 3") == const(-4)


def test_derivative_operators_evaluate():
    assert parse_expr("D(k1^2)") == 2 * K1 * gen("k1", 1)
    assert parse_expr("Dinv(k1')") == K1
    assert parse_expr("Dinv(2*k1*k1')") == K1**2
    with pytest.raises(NotExact):
        parse_expr("Dinv(k1)")
    with pytest.raises(NonZeroConstantTerm):
        parse_expr("Dinv(b + k1')")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("k1 + ")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        parse_expr("2 k1")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_expr("k1 + qq")
    assert err.value.offset == 5
    # Separated components are parsed in one pass over the whole text.
    with pytest.raises(ParseError) as err:
        parse_flow("k1, k2 + qq")
    assert err.value.offset == 9
    with pytest.raises(ParseError) as err:
        parse_field("k1; 0; 0; k2 + qq")
    assert err.value.offset == 15
    with pytest.raises(ParseError) as err:
        parse_field("k1; 0; 0")
    assert err.value.offset == 8
    with pytest.raises(ParseError) as err:
        parse_flow("k1, k2, k1")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse_expr("k1, k2")
    assert err.value.offset == 2
    for bad in ("", "(k1", "k1^", "k1'^(3)", "k1/k2", "1/0", "k1/b", "k1^-2"):
        with pytest.raises(ParseError):
            parse_expr(bad)


@pytest.mark.parametrize(
    "opener, closer, value",
    [("(", ")", const(1)), ("D(", ")", zero()), ("-", "", const(1))],
)
def test_nesting_past_the_limit_is_a_parse_error(opener, closer, value):
    assert parse_expr(opener * MAX_NESTING + "1" + closer * MAX_NESTING) == value
    with pytest.raises(ParseError) as err:
        parse_expr(opener * 5000 + "1" + closer * 5000)
    # The first token nested deeper than the limit.
    assert err.value.offset == (MAX_NESTING + 1) * len(opener)


def test_division_of_invertible_monomials():
    assert parse_expr("k1/2") == Fraction(1, 2) * K1
    assert parse_expr("k1/a") == param("a", -1) * K1
    assert parse_expr("k2/(2*a^2)") == Fraction(1, 2) * param("a", -2) * K2
    assert parse_expr("k1/eps1") == param("eps1") * K1
    # A rational, a power of a and both signs in one divisor.
    got = parse_expr("k1/(3*a^2*eps1*eps2)")
    assert got == Fraction(1, 3) * param("a", -2) * param("eps1") * param("eps2") * K1
    assert str(got) == "1/3*a^-2*eps1*eps2*k1"
    # A negative power inverts the whole product.
    assert parse_expr("(2*a)^-2*k1") == Fraction(1, 4) * param("a", -2) * K1


def _random_poly(rng: random.Random):
    out = zero()
    for _ in range(rng.randrange(1, 4)):
        term = const(rng.choice([1, -2, Fraction(1, 2), Fraction(-5, 3)]))
        for name in ("a", "b", "c1"):
            if rng.random() < 0.25:
                term = term * param(name, rng.choice([-1, 1, 2]) if name == "a" else 1)
        if rng.random() < 0.3:
            term = term * param("eps1")
        for _ in range(rng.randrange(0, 3)):
            term = term * gen(rng.choice(["k1", "k2"]), rng.randrange(0, 6))
        out = out + term
    return out


def test_round_trip_on_random_canonical_forms():
    rng = random.Random(101)
    for _ in range(60):
        poly = _random_poly(rng)
        text = str(poly)
        again = parse_expr(text)
        assert again == poly
        assert str(again) == text


def test_parse_flow():
    flow = parse_flow("k1', k2'")
    assert flow.p1 == gen("k1", 1)
    assert flow.p2 == gen("k2", 1)
    flow = parse_flow("Dinv(k1*k1' + k2*k2'), 0")
    assert flow.p2.is_zero()
    with pytest.raises(ParseError):
        parse_flow("k1'")
    assert parse_flow(render(flow, "plain")) == flow


def test_alternate_variable_universe():
    poly = parse_expr("u*u' - 2*v*v'", variables=("u", "v"))
    assert poly == gen("u") * gen("u", 1) - 2 * gen("v") * gen("v", 1)
    with pytest.raises(ParseError):
        parse_expr("k1", variables=("u", "v"))


def test_latex_rendering():
    poly = parse_expr("1/2*a^-1*k1'' + 3/2*k1^2")
    assert render(poly, "latex") == "\\frac{1}{2} a^{-1} k_1'' + \\frac{3}{2} k_1^{2}"
    assert render(parse_expr("eps1*eps2*k2'"), "latex") == (
        "\\varepsilon_1 \\varepsilon_2 k_2'"
    )
    assert render(parse_expr("k1'^2"), "latex") == "\\left(k_1'\\right)^{2}"
    assert render(parse_expr("k1^(7)"), "latex") == "k_1^{(7)}"
    assert render(parse_expr("-c1*k1"), "latex") == "-c_1 k_1"
    assert render(zero(), "latex") == "0"
    # A two-digit constant subscript, eps2 without eps1, and a powered
    # coordinate of order above 3; each in plain text and LaTeX.
    for text, plain, latex in (
        ("c10*k1 - 2/3*c12^2*k2", "c10*k1 - 2/3*c12^2*k2",
         "c_{10} k_1 - \\frac{2}{3} c_{12}^{2} k_2"),
        ("eps2*k1^(4)^3 - a^-2*eps2", "-a^-2*eps2 + eps2*k1^(4)^3",
         "-a^{-2} \\varepsilon_2 + \\varepsilon_2 \\left(k_1^{(4)}\\right)^{3}"),
        ("-k1^(5)^2*k2^(4)", "-k1^(5)^2*k2^(4)",
         "-\\left(k_1^{(5)}\\right)^{2} k_2^{(4)}"),
    ):
        poly = parse_expr(text)
        assert str(poly) == plain
        assert render(poly, "latex") == latex
        assert parse_expr(str(poly)) == poly
    with pytest.raises(ValueError):
        render(zero(), "html")


def test_total_derivative_matches_d_token():
    rng = random.Random(113)
    for _ in range(20):
        poly = _random_poly(rng)
        assert parse_expr("D(%s)" % (poly,)) == total_derivative(poly)
