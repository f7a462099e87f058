"""sympy as an independent oracle for D, the Euler operator, products and
the finite-difference stencil weights.

hypothesis draws low-degree differential polynomials as term lists; each
list is built once as a DiffPoly and once as a sympy expression in k1(x),
k2(x) and their x-derivatives, and the results are compared after
expansion.  The signs eps1, eps2 are plain symbols on the sympy side,
reduced mod 2 in their exponents.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from nullflow.diffalg import (  # noqa: E402
    DiffPoly,
    const,
    euler_operator,
    gen,
    param,
    total_derivative,
    zero,
)
from nullflow.numsim import fd_weights  # noqa: E402

X = sp.Symbol("x")
FUNCS = {name: sp.Function(name)(X) for name in ("k1", "k2")}
EPS = {name: sp.Symbol(name) for name in ("eps1", "eps2")}
# Parameter factors as (diffalg name, exponent); exponents of eps add mod 2.
PARAMS = [("a", 1), ("a", -1), ("b", 1), ("c1", 1), ("eps1", 1), ("eps2", 1)]
TOP_ORDER = 2

_term = st.tuples(
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
    st.lists(st.tuples(st.sampled_from(sorted(FUNCS)), st.integers(0, TOP_ORDER)),
             max_size=3),
    st.lists(st.sampled_from(PARAMS), max_size=2),
)
_terms = st.lists(_term, max_size=4)
_settings = hypothesis.settings(max_examples=40, deadline=None, database=None,
                                derandomize=True)


def _symbol(name: str):
    return EPS.get(name) or sp.Symbol(name)


def _coordinate(var: str, order: int):
    return FUNCS[var].diff(X, order)


def _reduce_signs(expr):
    """Expand and take every power of eps1, eps2 mod 2."""
    return sp.expand(sp.expand(expr).replace(
        lambda e: e.is_Pow and e.base in EPS.values() and e.exp.is_Integer,
        lambda e: e.base ** (e.exp % 2),
    ))


def _build(terms) -> tuple[DiffPoly, object]:
    poly, expr = zero(), sp.Integer(0)
    for q, factors, params in terms:
        p_term, s_term = const(q), sp.Rational(q.numerator, q.denominator)
        for var, order in factors:
            p_term = p_term * gen(var, order)
            s_term = s_term * _coordinate(var, order)
        for name, exp in params:
            p_term = p_term * param(name, exp)
            s_term = s_term * _symbol(name) ** exp
        poly, expr = poly + p_term, expr + s_term
    return poly, _reduce_signs(expr)


def _to_sympy(f: DiffPoly):
    expr = sp.Integer(0)
    for gens, rational, powers, eps1, eps2 in f.terms():
        term = sp.Rational(rational.numerator, rational.denominator)
        for name, exp in powers:
            term *= _symbol(name) ** exp
        term *= EPS["eps1"] ** eps1 * EPS["eps2"] ** eps2
        for (var, order), exp in gens:
            term *= _coordinate(var, order) ** exp
        expr += term
    return expr


def _same(f: DiffPoly, expr) -> bool:
    return _reduce_signs(_to_sympy(f) - expr) == 0


@_settings
@hypothesis.given(_terms)
def test_construction_matches_sympy(terms):
    poly, expr = _build(terms)
    assert _same(poly, expr)


@_settings
@hypothesis.given(_terms)
def test_total_derivative_matches_sympy(terms):
    poly, expr = _build(terms)
    assert _same(total_derivative(poly), sp.diff(expr, X))
    assert _same(total_derivative(poly, 2), sp.diff(expr, X, 2))


@_settings
@hypothesis.given(_terms)
def test_euler_operator_matches_sympy(terms):
    poly, expr = _build(terms)
    for var, func in FUNCS.items():
        # Olver's variational derivative: sum over m of (-D)^m d/dv^(m).
        expected = sum(
            (-1) ** m * sp.diff(sp.diff(expr, _coordinate(var, m)), X, m)
            for m in range(TOP_ORDER + 1)
        )
        assert _same(euler_operator(poly, var), expected)


@_settings
@hypothesis.given(_terms, _terms)
def test_product_matches_sympy(left, right):
    p_left, s_left = _build(left)
    p_right, s_right = _build(right)
    assert _same(p_left * p_right, s_left * s_right)
    assert _same(p_left * p_right * p_left, s_left * s_right * s_left)


def test_fd_weights_match_sympy():
    # The NLIE needs m = 3 and central6 exists; the classical tables in
    # test_numsim stop at m = 2, accuracy 4.
    for accuracy in (4, 6):
        for m in range(1, 9):
            offsets, weights = fd_weights(m, accuracy)
            expected = sp.finite_diff_weights(m, offsets, 0)[m][-1]
            assert [sp.Rational(w.numerator, w.denominator) for w in weights] == expected
