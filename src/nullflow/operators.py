"""Integro-differential operators generating the curvature flow hierarchy.

The building blocks are the scalar operators

    omega(f) = (1/a) f' + k1 * Dinv(f) + Dinv(k1 f)
    theta(f) = (1/a) f''' + k1 f' + (k1 f)'
    s(f)     = (k2 f)' + k2 f'
    Theta    = (1/a) [[theta, s], [s, -eps1 eps2 theta]]

and the 2x2 matrix operators assembled from them.  _theta_s is the one
theta and s kernel: by the Leibniz rule it takes theta f = (1/a) f''' +
2 k1 f' + k1' f and s f = 2 k2 f' + k2' f from D f and D^3 f alone, as
product lists for diffalg's accumulate-products kernel _sum_products.
theta_apply and s_apply sum one list each; theta_matrix_apply takes the
lists with the factors of Theta's rows and sums each component in one
call, and omega_apply and j_matrix_apply build each output the same way.  The
recursion operator R = Theta J is computed once, as theta_matrix_apply after
j_matrix_apply.  nullcurve.variational_flow does not use Theta: it reads a
field's flow off its frame coefficients, which on a flat field with rho = 0
gives Theta (phi, -psi).
The projection route a_matrix_apply / b_matrix_apply goes through the
frame field instead (nullcurve.make_X, then nullcurve.projections, then
Theta with the sign of psi flipped), so the two routes share Theta but
not J, and the tests compare them.  The classical (u, v) hierarchy is R
itself, specialized at a = 2, eps1 = 1, eps2 = -1.  Two conventions matter
throughout and are covered by tests:

* Anti-derivatives of sums are always taken of the combined integrand
  (e.g. Dinv(k1 h - k2 l), never Dinv(k1 h) - Dinv(k2 l)): the admissible
  input class constrains the combination, and splitting it would reject
  admissible inputs with a spurious NotExact.
* Integration constants enter at two fixed sites per operator application.
  a_matrix_apply(h, l, (c1, c2)) hands them to make_X, which adds c1 to
  g = -eps1 a Dinv(h) and c2 to f; j_matrix_apply puts -2*eps1*c1/a on
  Dinv(x) and +4*c2 on the combined integral, which makes the two routes
  to the recursion operator agree term for term.

NotExact from any anti-derivative site aborts the whole application.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .diffalg import (
    DiffPoly,
    FlowPair,
    anti_derivative,
    gen,
    param,
    specialize,
    total_derivative,
    zero,
    _ONE,
    _as_poly,
    _sum_products,
)
from .nullcurve import Projections, _as_constant, make_X, projections
from .nullcurve import _A, _A_INV, _EPS1, _EPS12, _EPS2_K2, _K1, _K2  # the named monomials

# The factors of (f''', f', f) in theta f and of (f', f) in s f, then as Theta's rows take them.
_THETA, _S = (_A_INV, 2 * _K1, gen("k1", 1)), (2 * _K2, gen("k2", 1))
_THETA_ROW1, _S_ROW = (tuple(_A_INV * c for c in t) for t in (_THETA, _S))
_THETA_ROW2 = tuple(-_EPS12 * c for c in _THETA_ROW1)
# j_matrix_apply's factors, its integration constants folded in.
_QUARTER, _QUARTER_A, _QUARTER_A_K1 = (Fraction(1, 4) * c for c in (_ONE, _A, _A * _K1))
_HALF_EPS1_K1 = Fraction(1, 2) * _EPS1 * _K1
_HALF_EPS12_A_K2, _TWO_EPS12_K2 = Fraction(1, 2) * _EPS12 * _A * _K2, 2 * _EPS12 * _K2

Constant = Union[DiffPoly, int, Fraction]


def omega_apply(f: DiffPoly, constants: tuple[Constant, Constant] = (0, 0)) -> DiffPoly:
    """omega(f) with integration constants at its two Dinv sites.

    The first constant rides with the k1*Dinv(f) site (so it surfaces as
    c*k1), the second with the bare Dinv(k1 f) site.
    """
    ca = _as_constant(constants[0], "integration constant at omega k1-site")
    cb = _as_constant(constants[1], "integration constant at omega bare site")
    return _sum_products([(_A_INV, total_derivative(f), 1), (_K1, anti_derivative(f), 1),
                          (_K1, ca, 1), (_ONE, anti_derivative(_K1 * f), 1), (_ONE, cb, 1)])


def _theta_s(f: DiffPoly, theta=_THETA, s=_S) -> tuple[list, list]:
    """The _sum_products lists of (theta f, s f), with the factors given.

    By the Leibniz rule D f and D^3 f are the only D taken.
    """
    f1 = total_derivative(f)
    jets = (total_derivative(f1, 2), f1, _as_poly(f))
    return [(c, x, 1) for c, x in zip(theta, jets)], [(c, x, 1) for c, x in zip(s, jets[1:])]


def theta_apply(f: DiffPoly) -> DiffPoly:
    """theta(f) = (1/a) f''' + k1 f' + (k1 f)'; purely differential, evaluated
    by the Leibniz rule, three D per operand."""
    return _sum_products(_theta_s(f)[0])


def s_apply(f: DiffPoly) -> DiffPoly:
    """s(f) = (k2 f)' + k2 f'; purely differential, evaluated
    by the Leibniz rule, three D per operand."""
    return _sum_products(_theta_s(f)[1])


def theta_matrix_apply(pq: tuple[DiffPoly, DiffPoly]) -> FlowPair:
    """(1/a) [[theta, s], [s, -eps1 eps2 theta]] applied to a column."""
    theta_p, s_p = _theta_s(pq[0], _THETA_ROW1, _S_ROW)
    theta_q, s_q = _theta_s(pq[1], _THETA_ROW2, _S_ROW)
    return FlowPair(_sum_products(theta_p + s_q), _sum_products(s_p + theta_q))


def j_matrix_apply(
    xy: tuple[DiffPoly, DiffPoly],
    constants: tuple[Constant, Constant] = (0, 0),
) -> tuple[DiffPoly, DiffPoly]:
    """Cosymplectic-side factor of the recursion operator.

    Applied to (2h, -eps1 eps2 l) this returns (phi, -psi), the projections
    of the vector field built from (h, l) with the same constants.
    """
    x, y = map(_as_poly, xy)
    c1 = _as_constant(constants[0], "integration constant at j first site")
    c2 = _as_constant(constants[1], "integration constant at j second site")
    # With i1 = Dinv(x) - 2 eps1 c1/a and i2 = Dinv(k1 x + 2 eps1 eps2 k2 y) + 4 c2,
    # j1 = (x' + a k1 i1 + a i2)/4 and j2 = eps1 eps2 (a k2 i1/2 + y').
    i1 = anti_derivative(x)
    i2 = anti_derivative(_sum_products([(_K1, x, 1), (_TWO_EPS12_K2, y, 1)]))
    j1 = _sum_products([(_QUARTER, total_derivative(x), 1), (_QUARTER_A_K1, i1, 1),
                        (_HALF_EPS1_K1, c1, -1), (_QUARTER_A, i2, 1), (_A, c2, 1)])
    y1 = total_derivative(y)
    j2 = _sum_products([(_HALF_EPS12_A_K2, i1, 1), (_EPS2_K2, c1, -1), (_EPS12, y1, 1)])
    return (j1, j2)


def a_matrix_apply(
    h: DiffPoly,
    l: DiffPoly,
    constants: tuple[Constant, Constant] = (0, 0),
) -> Projections:
    """Projections of the flat-space field make_X(h, l, c1, c2); rho is zero."""
    return projections(make_X(h, l, *constants))


def b_matrix_apply(pp: Projections) -> FlowPair:
    """Curvature flow from projections: Theta applied to (phi, -psi)."""
    return theta_matrix_apply((pp.phi, -pp.psi))


def recursion_curvature(
    pq: tuple[DiffPoly, DiffPoly],
    constants: tuple[Constant, Constant] = (0, 0),
) -> FlowPair:
    """The recursion operator: the theta-matrix applied after the j-matrix."""
    return theta_matrix_apply(j_matrix_apply(pq, constants))


# -- classical two-component hierarchy ---------------------------------------

_CLASSIC_VALUES = {"a": 2, "eps1": 1, "eps2": -1}
_CLASSIC_NAMES = {"k1": "u", "k2": "v"}


def hs_classic_sigma(n: int) -> FlowPair:
    """n-th flow of the classical coupled (u, v) hierarchy.

    The chain runs on the symbolic recursion operator R: sigma_0 =
    R(0; constants 0, 1) is translation, sigma_1 = R(0; -eps1 a^2, 0) the
    coupled third-order system, and sigma_n = 4 R(sigma_{n-2}) with zero
    integration constants.  Only the end result is specialized to a = 2,
    eps1 = 1, eps2 = -1 with (k1, k2) -> (u, v): on specialized input R's
    integrand k1 x + 2 eps1 eps2 k2 y is exact only at eps1 eps2 = -1, so
    the symbolic R raises NotExact there.  Raises NotExact if an
    anti-derivative site fails at some level.
    """
    if type(n) is not int:
        raise ValueError("hierarchy index must be an int, got %r" % (n,))
    if n < 0:
        raise ValueError("hierarchy index must be nonnegative")
    seed_constants = (-_EPS1 * param("a", 2), 0) if n % 2 else (0, 1)
    sigma = recursion_curvature((zero(), zero()), seed_constants).components()
    for _ in range(n // 2):
        sigma = tuple(4 * c for c in recursion_curvature(sigma).components())
    return FlowPair(
        *(specialize(c, _CLASSIC_VALUES, _CLASSIC_NAMES) for c in sigma), ("u", "v")
    )
