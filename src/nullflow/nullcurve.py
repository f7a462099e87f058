"""Vector fields along a null curve and their action on the curvatures.

A local field is written in the moving frame as V = f T + h W1 + g N + l W2
with differential-polynomial components.  The admissible classes are nested:

    X_P        all fields with polynomial components,
    X*_P       those preserving the causal character of the tangent
               (g' = -eps1 a h),
    T_PLambda  those additionally preserving the pseudo arc-length
               normalization; these are exactly the fields produced by
               make_X and exactly the X*_P fields with rho = 0.

The arc normalization a and the signs eps1, eps2 are symbols throughout
(the formulas divide by a); a concrete signature comes from
diffalg.specialize on a result.  A FrameMetric carries only the curvature
constant G, so only the functions that read G take one; FLAT has G = 0.

The induced curvature flow of a field is the operator Theta applied to
(phi, -psi), plus a rho term and a G term.  theta_matrix_apply is the one
Theta kernel: variational_flow uses it here, and operators builds the
recursion operator R = Theta J on it.  By the Leibniz rule it takes theta f =
(1/a) f''' + 2 k1 f' + k1' f and s f = 2 k2 f' + k2' f from D f and D^3 f alone.

The derivative d_v differentiates one field along the flow of another.  Its
scalar part is not the plain evolution derivation: parameter flows that do
not preserve arc length pick up the correction V(f)' + rho/(2a) f' when
differentiating f', and scalar_action implements that corrected derivation.
Both apply diffalg's one prolongation kernel (prolong, then
apply_prolongation) to the field's curvature flow with correction rho/(2a);
diffalg.frechet is its third caller, with no correction.  On T_PLambda
(rho = 0) the corrected derivation therefore coincides with the evolution
derivation of the field's curvature flow, which is what makes the
flow-level bracket identity of gamma_bracket hold there with the plain Lie
bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .diffalg import (
    DiffAlgError,
    DiffPoly,
    FlowPair,
    NotExact,
    anti_derivative,
    apply_prolongation,
    const,
    gen,
    jet_orders,
    param,
    prolong,
    total_derivative,
)

_K1 = gen("k1")
_K2 = gen("k2")
_A = param("a")
_A_INV = param("a", -1)
_EPS1 = param("eps1")
_EPS2 = param("eps2")
_EPS12 = _EPS1 * _EPS2
_TWO_K1, _TWO_K2, _K1P, _K2P = 2 * _K1, 2 * _K2, gen("k1", 1), gen("k2", 1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class FrameMetric:
    """Ambient data: the curvature constant G (the symbol G, or a constant).

    Set G to 0 (FLAT) for the flat ambient space.  The signs eps1, eps2 and
    the arc normalization a are always symbols; a concrete signature comes
    from diffalg.specialize on the result.
    """

    G: DiffPoly = field(default_factory=lambda: param("G"))

    def __post_init__(self) -> None:
        if not self.G.is_constant():
            raise DiffAlgError("metric G must be constant")


FLAT = FrameMetric(G=const(0))


@dataclass(frozen=True)
class LocalVectorField:
    """V = f T + h W1 + g N + l W2 in the moving frame."""

    f: DiffPoly
    h: DiffPoly
    g: DiffPoly
    l: DiffPoly

    def components(self) -> tuple[DiffPoly, DiffPoly, DiffPoly, DiffPoly]:
        return (self.f, self.h, self.g, self.l)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components())

    def __add__(self, other: "LocalVectorField") -> "LocalVectorField":
        return LocalVectorField(
            self.f + other.f, self.h + other.h, self.g + other.g, self.l + other.l
        )

    def __sub__(self, other: "LocalVectorField") -> "LocalVectorField":
        return LocalVectorField(
            self.f - other.f, self.h - other.h, self.g - other.g, self.l - other.l
        )

    def __neg__(self) -> "LocalVectorField":
        return LocalVectorField(-self.f, -self.h, -self.g, -self.l)

    def scale(self, factor: DiffPoly) -> "LocalVectorField":
        return LocalVectorField(
            factor * self.f, factor * self.h, factor * self.g, factor * self.l
        )

    def __str__(self) -> str:
        return "(%s; %s; %s; %s)" % self.components()


class Projections(NamedTuple):
    phi: DiffPoly
    psi: DiffPoly
    rho: DiffPoly


class FrameCoeffs(NamedTuple):
    alpha: DiffPoly
    beta: DiffPoly
    delta: DiffPoly


def projections(v: LocalVectorField) -> Projections:
    """Normal projections phi, psi and the arc-length defect rho of a field."""
    phi = _A * v.f + total_derivative(v.h) - _EPS1 * _K1 * v.g
    psi = total_derivative(v.l) + _EPS2 * _K2 * v.g
    rho = (
        -_A * total_derivative(v.f)
        + 2 * _A * _K1 * v.h
        - _A * _K2 * v.l
        - total_derivative(phi)
        + _EPS1 * _K1 * total_derivative(v.g)
    )
    return Projections(phi, psi, rho)


def frame_derivative_coeffs(
    v: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> FrameCoeffs:
    """The alpha, beta, delta coefficients of the frame transport along v."""
    return _frame_coeffs(v, projections(v), metric)


def _frame_coeffs(
    v: LocalVectorField, proj: Projections, metric: FrameMetric
) -> FrameCoeffs:
    phi, psi, rho = proj
    alpha = _A_INV * (total_derivative(phi) + _HALF * rho)
    beta = _A_INV * (
        total_derivative(alpha) + _K1 * phi - _K2 * psi - metric.G * v.g
    )
    delta = _A_INV * total_derivative(psi, 2) + _K1 * psi + _EPS12 * _K2 * phi
    return FrameCoeffs(alpha, beta, delta)


def _theta_s(f: DiffPoly) -> tuple[DiffPoly, DiffPoly]:
    """(theta f, s f) by the Leibniz rule: D f and D^3 f are the only D taken."""
    f1 = total_derivative(f)
    f3 = total_derivative(f1, 2)
    return _A_INV * f3 + _TWO_K1 * f1 + _K1P * f, _TWO_K2 * f1 + _K2P * f


def theta_apply(f: DiffPoly) -> DiffPoly:
    """theta(f) = (1/a) f''' + k1 f' + (k1 f)'; purely differential, evaluated
    by the Leibniz rule, three D per operand."""
    return _theta_s(f)[0]


def s_apply(f: DiffPoly) -> DiffPoly:
    """s(f) = (k2 f)' + k2 f'; purely differential, evaluated
    by the Leibniz rule, three D per operand."""
    return _theta_s(f)[1]


def theta_matrix_apply(pq: tuple[DiffPoly, DiffPoly]) -> FlowPair:
    """(1/a) [[theta, s], [s, -eps1 eps2 theta]] applied to a column."""
    (theta_p, s_p), (theta_q, s_q) = map(_theta_s, pq)
    first = _A_INV * (theta_p + s_q)
    second = _A_INV * (s_p - _EPS12 * theta_q)
    return FlowPair(first, second)


def variational_flow(
    v: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> FlowPair:
    """The induced curvature evolution (V(k1), V(k2)) of a field in X*_P."""
    return _variational_flow(v, projections(v), metric)


def _variational_flow(
    v: LocalVectorField, proj: Projections, metric: FrameMetric
) -> FlowPair:
    # Theta applied to (phi, -psi), plus the arc-length defect and G terms.
    phi, psi, rho = proj
    theta = theta_matrix_apply((phi, -psi))
    vk1 = theta.p1 + _A_INV * (
        _HALF * _A_INV * total_derivative(rho, 2)
        + _K1 * rho
        - 2 * metric.G * total_derivative(v.g)
    )
    vk2 = theta.p2 + _A_INV * _K2 * rho - _EPS2 * metric.G * v.l
    return FlowPair(vk1, vk2)


def _as_constant(value: DiffPoly | int | Fraction, site: str) -> DiffPoly:
    """value as a DiffPoly; DiffAlgError naming site if it is not constant."""
    if not isinstance(value, DiffPoly):
        value = const(value)
    if not value.is_constant():
        raise DiffAlgError("integration constant at %s must be constant" % (site,))
    return value


def make_X(
    h: DiffPoly,
    l: DiffPoly,
    c1: DiffPoly | int = 0,
    c2: DiffPoly | int = 0,
) -> LocalVectorField:
    """Arc-length preserving field with tangential data (h, l).

    Requires h and k1*h - k2*l to be exact; the two integration constants
    pick the member of the two-parameter family.  Every field returned here
    classifies as T_PLambda and has rho identically zero.
    """
    c1 = _as_constant(c1, "make_X c1")
    c2 = _as_constant(c2, "make_X c2")
    p = anti_derivative(h)
    q = anti_derivative(_K1 * h - _K2 * l)
    g = -_EPS1 * _A * p + c1
    f = (
        -_HALF
        * _A_INV
        * (
            total_derivative(h)
            + _A * _K1 * p
            - _A * q
            - _EPS1 * c1 * _K1
        )
        + c2
    )
    return LocalVectorField(f, h, g, l)


def scalar_action(
    v: LocalVectorField, target: DiffPoly, metric: FrameMetric = FrameMetric()
) -> DiffPoly:
    """Corrected derivation of a scalar along the flow of v.

    Acts as the evolution derivation of variational_flow(v) plus the
    arc-length correction rho/(2a) on each derivative slot; the two agree
    exactly when rho vanishes.
    """
    proj = projections(v)
    flow = _variational_flow(v, proj, metric)
    table = prolong(flow, jet_orders(target), _HALF * _A_INV * proj.rho)
    return apply_prolongation(target, table)


def d_v(
    v: LocalVectorField, u: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> LocalVectorField:
    """Derivative of the field u along the flow of v (v must be in X*_P)."""
    proj = projections(v)
    phi, psi, rho = proj
    alpha, beta, delta = _frame_coeffs(v, proj, metric)
    flow = _variational_flow(v, proj, metric)
    # One table serves all four components: it reaches their highest orders.
    table = prolong(flow, jet_orders(*u.components()), _HALF * _A_INV * rho)
    xf, xh, xg, xl = (apply_prolongation(c, table) for c in u.components())
    psi1 = total_derivative(psi)

    new_f = xf - alpha * u.f - beta * u.h + _EPS12 * _A_INV * delta * u.l
    new_h = xh + phi * u.f - _EPS1 * beta * u.g - _EPS12 * _A_INV * psi1 * u.l
    new_g = xg + _EPS1 * phi * u.h + alpha * u.g + _EPS2 * psi * u.l
    new_l = xl + psi * u.f + _A_INV * psi1 * u.h + _EPS1 * _A_INV * delta * u.g
    return LocalVectorField(new_f, new_h, new_g, new_l)


def gamma_bracket(
    v1: LocalVectorField, v2: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> LocalVectorField:
    """Bracket of fields along the curve: d_v(v1, v2) - d_v(v2, v1).

    Closed on X*_P and on T_PLambda; its induced curvature flow is the
    commutator of the corrected scalar actions, and for rho-free fields the
    plain Lie bracket of the induced flows.
    """
    return d_v(v1, v2, metric) - d_v(v2, v1, metric)


def inner(v: LocalVectorField, u: LocalVectorField) -> DiffPoly:
    """Frame inner product: -f1 g2 - g1 f2 + eps1 h1 h2 + eps2 l1 l2."""
    return -v.f * u.g - v.g * u.f + _EPS1 * v.h * u.h + _EPS2 * v.l * u.l


def curvature_identity_residual(
    v1: LocalVectorField,
    v2: LocalVectorField,
    u: LocalVectorField,
    metric: FrameMetric = FrameMetric(),
) -> LocalVectorField:
    """Defect of the constant-curvature commutation identity; zero when it holds.

    Compares d_v along the bracket with the commutator of nested d_v and the
    G-weighted curvature term on the right-hand side.
    """
    lhs = (
        d_v(gamma_bracket(v1, v2, metric), u, metric)
        - d_v(v1, d_v(v2, u, metric), metric)
        + d_v(v2, d_v(v1, u, metric), metric)
    )
    rhs = v2.scale(metric.G * inner(u, v1)) - v1.scale(metric.G * inner(u, v2))
    return lhs - rhs


def classify(v: LocalVectorField) -> str:
    """Largest admissible class: 'X_P', 'X*_P', or 'T_PLambda'.

    Membership in the smaller classes is decided up to the free additive
    constants: the candidate constants are read off from g and from the
    residual of f, and must come out constant.
    """
    if total_derivative(v.g) != -_EPS1 * _A * v.h:
        return "X_P"
    try:
        # g' = -eps1 a h, so D(c1) = 0: c1 is a constant.
        c1 = v.g + _EPS1 * _A * anti_derivative(v.h)
        base = make_X(v.h, v.l, c1, 0)
    except NotExact:
        return "X*_P"
    if (v.f - base.f).is_constant():
        return "T_PLambda"
    return "X*_P"
