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

The frame transport along a field has coefficients alpha, beta, delta, and
the frame equations' compatibility reads its curvature flow off them:
V(k1) = beta' + (k1 (phi' + rho) - k2 psi' - G g')/a and V(k2) =
(eps1 eps2 (delta' + k1 psi') + k2 (phi' + rho))/a - eps2 G l.  One kernel,
_transport, takes both in 12 passes of D.  Two of them repeat work:
projections takes D phi and D g for rho, and _transport takes them again
(dropping them waits on ROADMAP item 5, as it moves the pinned counts).
Each of phi, psi, rho, alpha, beta, delta, the flow, the f and g of make_X
and each component of d_v, gamma_bracket and curvature_identity_residual
is one call of diffalg's accumulate-products kernel _sum_products, its
constant factors module constants, so no partial sum is ever put in
canonical form: _d_v_products lists d_v's products with a sign, and the
bracket and the residual add their d_v terms' lists into one sum.

The derivative d_v differentiates one field along the flow of another.  Its
scalar part is not the plain evolution derivation: parameter flows that do
not preserve arc length pick up the correction V(f)' + rho/(2a) f' when
differentiating f', and scalar_action implements that corrected derivation.
Each makes one call of diffalg's prolongation kernel _prolonged on the
field's curvature flow with correction rho/(2a) and sums its products by
_sum_products; d_v adds its frame products to the same sum.
diffalg.frechet and lie_bracket_flows call the kernel with no correction.
On T_PLambda (rho = 0) the corrected derivation therefore coincides with
the evolution derivation of the field's curvature flow, which is what
makes the flow-level bracket identity of gamma_bracket hold there with the
plain Lie bracket.
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
    const,
    gen,
    param,
    total_derivative,
    _ONE,
    _prolonged,
    _sum_products,
)

_K1 = gen("k1")
_K2 = gen("k2")
_A = param("a")
_A_INV = param("a", -1)
_EPS1 = param("eps1")
_EPS2 = param("eps2")
_EPS12 = _EPS1 * _EPS2
_HALF = const(Fraction(1, 2))
# The constant factors of the products below, each named by its monomial.
_A_K2, _TWO_A_K1, _EPS1_A, _HALF_A_INV = _A * _K2, 2 * _A * _K1, _EPS1 * _A, _HALF * _A_INV
_EPS1_K1, _EPS2_K2, _EPS12_K2, _HALF_K1 = _EPS1 * _K1, _EPS2 * _K2, _EPS12 * _K2, _HALF * _K1
_A_INV_K1, _A_INV_K2, _EPS12_A_INV = _A_INV * _K1, _A_INV * _K2, _EPS12 * _A_INV
_EPS12_A_INV_K1, _HALF_EPS1_A_INV_K1 = _EPS12_A_INV * _K1, _HALF_A_INV * _EPS1_K1


def _as_constant(value: DiffPoly | int | Fraction, what: str) -> DiffPoly:
    """A constant DiffPoly, int or Fraction as a DiffPoly; else DiffAlgError naming what."""
    if isinstance(value, (int, Fraction)):
        value = const(value)
    elif not isinstance(value, DiffPoly):
        raise DiffAlgError("%s must be a DiffPoly, int or Fraction" % (what,))
    if not value.is_constant():
        raise DiffAlgError("%s must be constant" % (what,))
    return value


@dataclass(frozen=True)
class FrameMetric:
    """Ambient data: the curvature constant G (the symbol G, or a constant).

    Set G to 0 (FLAT) for the flat ambient space.  The signs eps1, eps2 and
    the arc normalization a are always symbols; a concrete signature comes
    from diffalg.specialize on the result.
    """

    G: DiffPoly = field(default_factory=lambda: param("G"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "G", _as_constant(self.G, "metric G"))


FLAT = FrameMetric(G=const(0))


@dataclass(frozen=True)
class LocalVectorField:
    """V = f T + h W1 + g N + l W2 in the moving frame."""

    f: DiffPoly
    h: DiffPoly
    g: DiffPoly
    l: DiffPoly

    def __post_init__(self) -> None:
        for name, comp in zip("fhgl", self.components()):
            if not isinstance(comp, DiffPoly):
                raise DiffAlgError("field component %s must be a DiffPoly, got %r" % (name, comp))

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
    phi = _sum_products([(_A, v.f, 1), (_ONE, total_derivative(v.h), 1), (_EPS1_K1, v.g, -1)])
    psi = _sum_products([(_ONE, total_derivative(v.l), 1), (_EPS2_K2, v.g, 1)])
    rho = _sum_products([(_A, total_derivative(v.f), -1), (_TWO_A_K1, v.h, 1), (_A_K2, v.l, -1),
                         (_ONE, total_derivative(phi), -1), (_EPS1_K1, total_derivative(v.g), 1)])
    return Projections(phi, psi, rho)


def frame_derivative_coeffs(
    v: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> FrameCoeffs:
    """The alpha, beta, delta coefficients of the frame transport along v."""
    return _transport(v, metric)[1]


def variational_flow(
    v: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> FlowPair:
    """The induced curvature evolution (V(k1), V(k2)) of a field in X*_P."""
    return _transport(v, metric)[2]


def _transport(
    v: LocalVectorField, metric: FrameMetric
) -> tuple[Projections, FrameCoeffs, FlowPair, DiffPoly]:
    """Projections, frame coefficients, curvature flow and D psi of a field."""
    proj, a_inv_g = projections(v), _A_INV * metric.G
    phi, psi, rho = proj
    phi1, psi1, g1 = (total_derivative(c) for c in (phi, psi, v.g))
    alpha = _sum_products([(_A_INV, phi1, 1), (_HALF_A_INV, rho, 1)])
    beta = _sum_products([(_A_INV, total_derivative(alpha), 1), (_A_INV_K1, phi, 1),
                          (_A_INV_K2, psi, -1), (a_inv_g, v.g, -1)])
    delta = _sum_products([(_A_INV, total_derivative(psi1), 1), (_K1, psi, 1),
                           (_EPS12_K2, phi, 1)])
    # The flow, read off the coefficients by the frame equations' compatibility.
    vk1 = _sum_products([(_ONE, total_derivative(beta), 1), (_A_INV_K1, phi1, 1),
                         (_A_INV_K1, rho, 1), (_A_INV_K2, psi1, -1), (a_inv_g, g1, -1)])
    vk2 = _sum_products([(_EPS12_A_INV, total_derivative(delta), 1), (_EPS12_A_INV_K1, psi1, 1),
                         (_A_INV_K2, phi1, 1), (_A_INV_K2, rho, 1), (_EPS2 * metric.G, v.l, -1)])
    return proj, FrameCoeffs(alpha, beta, delta), FlowPair(vk1, vk2), psi1


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
    c1 = _as_constant(c1, "integration constant at make_X c1")
    c2 = _as_constant(c2, "integration constant at make_X c2")
    p = anti_derivative(h)
    q = anti_derivative(_sum_products([(_K1, h, 1), (_K2, l, -1)]))
    g = _sum_products([(_EPS1_A, p, -1), (_ONE, c1, 1)])
    # f = -(h' + a k1 p - a q - eps1 c1 k1)/(2a) + c2
    f = _sum_products([(_HALF_A_INV, total_derivative(h), -1), (_HALF_K1, p, -1), (_HALF, q, 1),
                       (_HALF_EPS1_A_INV_K1, c1, 1), (_ONE, c2, 1)])
    return LocalVectorField(f, h, g, l)


def scalar_action(
    v: LocalVectorField, target: DiffPoly, metric: FrameMetric = FrameMetric()
) -> DiffPoly:
    """Corrected derivation of a scalar along the flow of v.

    Acts as the evolution derivation of variational_flow(v) plus the
    arc-length correction rho/(2a) on each derivative slot; the two agree
    exactly when rho vanishes.
    """
    if not isinstance(target, DiffPoly):
        raise DiffAlgError("scalar_action target must be a DiffPoly, got %r" % (target,))
    proj, _, flow, _ = _transport(v, metric)
    return _sum_products(_prolonged(flow, (target,), correction=_HALF_A_INV * proj.rho)[0])


def _d_v_products(
    v: LocalVectorField, u: LocalVectorField, metric: FrameMetric, sign: int = 1
) -> list[list]:
    """sign * d_v(v, u) as one product list per component, for _sum_products."""
    (phi, psi, rho), (alpha, beta, delta), flow, psi1 = _transport(v, metric)
    # One table serves all four components: it reaches their highest orders.
    xf, xh, xg, xl = _prolonged(flow, u.components(), sign, _HALF_A_INV * rho)
    f, h, g, l = u.components()
    l_scaled, g_scaled = _EPS12_A_INV * l, _EPS1 * g  # each in two products
    return [xf + [(alpha, f, -sign), (beta, h, -sign), (delta, l_scaled, sign)],
            xh + [(phi, f, sign), (beta, g_scaled, -sign), (psi1, l_scaled, -sign)],
            xg + [(phi, _EPS1 * h, sign), (alpha, g, sign), (psi, _EPS2 * l, sign)],
            xl + [(psi, f, sign), (psi1, _A_INV * h, sign), (delta, _A_INV * g_scaled, sign)]]


def d_v(
    v: LocalVectorField, u: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> LocalVectorField:
    """Derivative of the field u along the flow of v (v must be in X*_P)."""
    return LocalVectorField(*map(_sum_products, _d_v_products(v, u, metric)))


def gamma_bracket(
    v1: LocalVectorField, v2: LocalVectorField, metric: FrameMetric = FrameMetric()
) -> LocalVectorField:
    """Bracket of fields along the curve: d_v(v1, v2) - d_v(v2, v1).

    Closed on X*_P and on T_PLambda; its induced curvature flow is the
    commutator of the corrected scalar actions, and for rho-free fields the
    plain Lie bracket of the induced flows.  Each component is one sum.
    """
    along_1 = _d_v_products(v1, v2, metric)
    along_2 = _d_v_products(v2, v1, metric, -1)
    return LocalVectorField(*(_sum_products(x + y) for x, y in zip(along_1, along_2)))


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
    G-weighted curvature term on the right-hand side:
    d_v([v1, v2], u) - d_v(v1, d_v(v2, u)) + d_v(v2, d_v(v1, u))
    - G <u, v1> v2 + G <u, v2> v1, each component one sum.
    """
    outer = zip(_d_v_products(gamma_bracket(v1, v2, metric), u, metric),
                _d_v_products(v1, d_v(v2, u, metric), metric, -1),
                _d_v_products(v2, d_v(v1, u, metric), metric))
    g1, g2 = metric.G * inner(u, v1), metric.G * inner(u, v2)
    return LocalVectorField(*(
        _sum_products(x + y + z + [(g1, c2, -1), (g2, c1, 1)])
        for (x, y, z), c1, c2 in zip(outer, v1.components(), v2.components())))


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
