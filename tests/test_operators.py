"""Recursion-operator identities and the classical two-component hierarchy."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from nullflow import diffalg
from nullflow.diffalg import (
    DiffAlgError,
    DiffPoly,
    FlowPair,
    NotExact,
    anti_derivative,
    const,
    euler_operator,
    gen,
    lie_bracket_flows,
    param,
    specialize,
    total_derivative,
    zero,
)
from nullflow.expr import parse_expr, parse_flow
from nullflow.operators import (
    a_matrix_apply,
    b_matrix_apply,
    hs_classic_sigma,
    j_matrix_apply,
    omega_apply,
    recursion_curvature,
    s_apply,
    theta_apply,
    theta_matrix_apply,
)

K1 = gen("k1")
K2 = gen("k2")


def test_omega_known_values():
    assert omega_apply(gen("k1", 1)) == parse_expr("k1''/a + 3/2*k1^2")
    got = omega_apply(zero(), (param("c1"), const(2)))
    assert got == parse_expr("c1*k1 + 2")


def test_theta_and_s_known_values():
    assert theta_apply(param("b")) == param("b") * gen("k1", 1)
    assert theta_apply(K1) == parse_expr("k1'''/a + 3*k1*k1'")
    assert s_apply(K2) == 3 * K2 * gen("k2", 1)
    assert s_apply(param("b")) == param("b") * gen("k2", 1)


# The definitions, D of a product and all, as oracles for the Leibniz-rule kernel.
def _theta_oracle(f: DiffPoly) -> DiffPoly:
    return (
        param("a", -1) * total_derivative(f, 3)
        + K1 * total_derivative(f)
        + total_derivative(K1 * f)
    )


def _s_oracle(f: DiffPoly) -> DiffPoly:
    return total_derivative(K2 * f) + K2 * total_derivative(f)


def _random_operand(rng: random.Random) -> DiffPoly:
    """k1, k2 up to order 4, rational coefficients and a, eps1, eps2, c1."""
    scalars = [param("a"), param("a", -1), param("eps1"), param("eps2"), param("c1"), const(1)]
    f = zero()
    for _ in range(rng.randrange(1, 5)):
        term = const(Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 3, 5])))
        term = term * rng.choice(scalars)
        for _ in range(rng.randrange(3)):
            term = term * gen(rng.choice(["k1", "k2"]), rng.randrange(5))
        f = f + term
    return f


def test_theta_and_s_equal_their_definitions():
    rng = random.Random(241)
    operands = [zero(), const(Fraction(-2, 3)), param("c1") * param("eps2")]
    operands += [_random_operand(rng) for _ in range(30)]
    for f in operands:
        assert theta_apply(f) == _theta_oracle(f)
        assert s_apply(f) == _s_oracle(f)
    eps12 = param("eps1") * param("eps2")
    for p, q in zip(operands, operands[::-1]):
        first = param("a", -1) * (_theta_oracle(p) + _s_oracle(q))
        second = param("a", -1) * (_s_oracle(p) - eps12 * _theta_oracle(q))
        assert theta_matrix_apply((p, q)) == FlowPair(first, second)


def test_theta_matrix_takes_three_d_per_operand(monkeypatch):
    # D f and D^2 of it per operand; D of k1 f and k2 f is never taken.
    passes = []
    d_once = diffalg._d_once

    def counted(f):
        passes.append(f)
        return d_once(f)

    monkeypatch.setattr(diffalg, "_d_once", counted)
    theta_matrix_apply((K1 * gen("k2", 2), param("c1") * gen("k1", 1) + K2))
    assert len(passes) == 6


def test_theta_matrix_reproduces_seed_flows():
    ab = param("a") * param("b")
    translation = theta_matrix_apply((ab, zero()))
    assert translation == parse_flow("b*k1', b*k2'")

    p = param("a", 2) * param("c") * K1
    q = 2 * param("eps1") * param("eps2") * param("a", 2) * param("c") * K2
    third_order = theta_matrix_apply((p, q))
    assert third_order == parse_flow(
        "c*(k1''' + 3*a*k1*k1' + 6*eps1*eps2*a*k2*k2'),"
        " -c*(2*k2''' + 3*a*k1*k2')"
    )


def test_j_matrix_constant_seed():
    c1 = -2 * param("eps1") * param("a", 2) * param("c")
    j1, j2 = j_matrix_apply((zero(), zero()), (c1, 0))
    assert j1 == parse_expr("a^2*c*k1")
    assert j2 == parse_expr("2*eps1*eps2*a^2*c*k2")


def test_a_matrix_constant_seed():
    pp = a_matrix_apply(zero(), zero(), (param("c1"), param("c2")))
    assert pp.phi == parse_expr("-eps1*c1*k1/2 + a*c2")
    assert pp.psi == parse_expr("eps2*c1*k2")


def test_non_constant_integration_constants_are_refused_at_every_site():
    calls = {
        "omega k1-site": lambda c: omega_apply(zero(), (c, 0)),
        "omega bare site": lambda c: omega_apply(zero(), (0, c)),
        "j first site": lambda c: j_matrix_apply((zero(), zero()), (c, 0)),
        "j second site": lambda c: j_matrix_apply((zero(), zero()), (0, c)),
        "make_X c1": lambda c: a_matrix_apply(zero(), zero(), (c, 0)),
        "make_X c2": lambda c: a_matrix_apply(zero(), zero(), (0, c)),
    }
    for site, call in calls.items():
        with pytest.raises(DiffAlgError, match="at %s must be constant" % site):
            call(K1)
        # A float would be taken as its binary fraction, a string would not parse.
        for wrong in (1.5, "b", None):
            message = "at %s must be a DiffPoly, int or Fraction" % site
            with pytest.raises(DiffAlgError, match=message):
                call(wrong)
        call(Fraction(1, 3))
        call(2)


def test_not_exact_aborts():
    with pytest.raises(NotExact):
        omega_apply(K2 * K2)
    with pytest.raises(NotExact):
        j_matrix_apply((K2 * K2, zero()))
    with pytest.raises(NotExact):
        a_matrix_apply(K1 * gen("k1", 2), zero())


def _random_admissible_pair(rng: random.Random) -> tuple[DiffPoly, DiffPoly]:
    """Random (h, l) with h and k1*h - k2*l both exact."""
    h = zero()
    l = zero()
    for _ in range(rng.randrange(1, 4)):
        w = const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        kind = rng.randrange(5)
        if kind == 0:
            x = sum((rng.randrange(-2, 3)) * K1**d for d in range(2 + 1))
            h = h + w * x * gen("k1", 1)
        elif kind == 1:
            y = sum((rng.randrange(-2, 3)) * K2**d for d in range(2 + 1))
            l = l + w * y * gen("k2", 1)
        elif kind == 2:
            h = h + w * K2 * gen("k2", 1)
            l = l + w * K1 * gen("k2", 1)
        elif kind == 3:
            h = h + w * gen("k1", rng.choice([1, 3]))
        else:
            l = l + w * gen("k2", rng.choice([1, 3]))
    return h, l


def test_factored_routes_agree():
    # The b(a(h,l)) route and the recursion route must agree exactly,
    # including the integration-constant plumbing.
    rng = random.Random(211)
    eps12 = param("eps1") * param("eps2")
    for _ in range(25):
        h, l = _random_admissible_pair(rng)
        constants = (
            rng.choice([const(0), param("c1"), 2 * param("c1")]),
            rng.choice([const(0), param("c2")]),
        )
        via_projections = b_matrix_apply(a_matrix_apply(h, l, constants))
        via_recursion = recursion_curvature((2 * h, -eps12 * l), constants)
        assert via_projections == via_recursion


def test_theta_and_s_are_skew():
    rng = random.Random(223)
    for _ in range(12):
        f = sum(
            rng.randrange(-2, 3) * gen(v, o)
            for v in ("k1", "k2")
            for o in range(3)
        ) + const(rng.randrange(-1, 2)) * K1 * K2
        g = K1 * gen("k2", 1) + rng.randrange(-2, 3) * gen("k1", 2)
        for op in (theta_apply, s_apply):
            combo = f * op(g) + g * op(f)
            assert euler_operator(combo, "k1").is_zero()
            assert euler_operator(combo, "k2").is_zero()


def test_classic_seed_flows():
    sigma0 = hs_classic_sigma(0)
    assert sigma0 == parse_flow("u', v'", ("u", "v"))
    sigma1 = hs_classic_sigma(1)
    assert sigma1 == parse_flow(
        "u'''/2 + 3*u*u' - 6*v*v', -v''' - 3*u*v'", ("u", "v")
    )
    with pytest.raises(ValueError, match="hierarchy index must be nonnegative"):
        hs_classic_sigma(-1)


def test_classic_first_recursion_is_known():
    # J applied to the translation flow, at the classical specialization;
    # the factor 2 matches the classical normalization sigma_n = 4 R(...).
    jx, jy = (
        specialize(2 * c, {"a": 2, "eps1": 1, "eps2": -1}, {"k1": "u", "k2": "v"})
        for c in j_matrix_apply((gen("k1", 1), gen("k2", 1)))
    )
    assert jx == parse_expr("u''/2 + 3/2*u^2 - v^2", ("u", "v"))
    assert jy == parse_expr("-2*u*v - 2*v''", ("u", "v"))


# SHA-256 of the canonical text of hs_classic_sigma(2..5), one component per
# line, recorded from an independent hand-written implementation of the
# classical (u, v) operators, so it checks the specialized recursion route.
CLASSIC_SHA256 = "91f30a7ab653e1efc0fae1baac7d0de4a8987512da44f837860eb7f77c7480bb"


def test_classic_flows_are_bit_identical_to_pinned_digest():
    text = "\n".join(
        str(c) for n in range(2, 6) for c in hs_classic_sigma(n).components()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIC_SHA256


def test_classic_flows_commute():
    flows = [hs_classic_sigma(n) for n in range(4)]
    assert lie_bracket_flows(flows[0], flows[1]).is_zero()
    assert lie_bracket_flows(flows[1], flows[2]).is_zero()
    assert lie_bracket_flows(flows[1], flows[3]).is_zero()
    assert lie_bracket_flows(flows[0], flows[3]).is_zero()
