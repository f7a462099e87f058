"""Geometry of fields along a null curve: projections, brackets, classes."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from nullflow import diffalg, nullcurve
from nullflow.diffalg import (
    DiffAlgError,
    DiffPoly,
    FlowPair,
    const,
    frechet,
    gen,
    lie_bracket_flows,
    param,
    total_derivative,
    zero,
)
from nullflow.expr import parse_expr, parse_flow
from nullflow.nullcurve import (
    FLAT,
    FrameMetric,
    LocalVectorField,
    classify,
    curvature_identity_residual,
    d_v,
    frame_derivative_coeffs,
    gamma_bracket,
    inner,
    make_X,
    projections,
    scalar_action,
    variational_flow,
)
from nullflow.operators import theta_matrix_apply

K1 = gen("k1")
K2 = gen("k2")
EPS1 = param("eps1")
EPS2 = param("eps2")
A = param("a")

V0 = LocalVectorField(param("b"), zero(), zero(), zero())
V1 = LocalVectorField(
    -A * param("c") * K1, zero(), -2 * EPS1 * A**2 * param("c"), zero()
)


def _field(f="0", h="0", g="0", l="0") -> LocalVectorField:
    return LocalVectorField(*(parse_expr(s) for s in (f, h, g, l)))


def test_metric_validation():
    FrameMetric(G=const(0))
    # a, eps1 and eps2 are always symbols, not fields; specialize sets signs.
    for name in ("a", "eps1", "eps2"):
        with pytest.raises(TypeError):
            FrameMetric(**{name: const(-1)})
    with pytest.raises(DiffAlgError, match="metric G must be constant"):
        FrameMetric(G=K1)
    # Exact numbers are taken as constants; any other value is refused.
    assert FrameMetric(G=1) == FrameMetric(G=const(1))
    assert FrameMetric(G=Fraction(-1, 2)).G == const(Fraction(-1, 2))
    for bad in ("G", 1.5, None):
        with pytest.raises(DiffAlgError, match="metric G must be a DiffPoly"):
            FrameMetric(G=bad)


def test_projections_of_seed_fields():
    phi, psi, rho = projections(V0)
    assert phi == A * param("b")
    assert psi.is_zero()
    assert rho.is_zero()

    phi, psi, rho = projections(V1)
    assert phi == parse_expr("a^2*c*k1")
    assert psi == parse_expr("-2*eps1*eps2*a^2*c*k2")
    assert rho.is_zero()


def test_frame_coeffs_of_translation_field():
    alpha, beta, delta = frame_derivative_coeffs(V0)
    assert alpha.is_zero()
    assert beta == param("b") * K1
    assert delta == parse_expr("eps1*eps2*a*b*k2")


def test_variational_flow_of_seed_fields():
    assert variational_flow(V0) == parse_flow("b*k1', b*k2'")
    assert variational_flow(V1) == parse_flow(
        "c*(k1''' + 3*a*k1*k1' + 6*eps1*eps2*a*k2*k2'),"
        " -c*(2*k2''' + 3*a*k1*k2')"
    )


# Oracles: alpha, beta, delta from their definitions, and the flow in its Theta
# form, Theta (phi, -psi) plus its rho and G terms.
def _coeffs_oracle(v: LocalVectorField, metric: FrameMetric) -> tuple:
    phi, psi, rho = projections(v)
    a_inv = param("a", -1)
    alpha = a_inv * (total_derivative(phi) + Fraction(1, 2) * rho)
    beta = a_inv * (total_derivative(alpha) + K1 * phi - K2 * psi - metric.G * v.g)
    delta = a_inv * total_derivative(psi, 2) + K1 * psi + EPS1 * EPS2 * K2 * phi
    return alpha, beta, delta


def _flow_oracle(v: LocalVectorField, metric: FrameMetric) -> FlowPair:
    phi, psi, rho = projections(v)
    a_inv = param("a", -1)
    theta = theta_matrix_apply((phi, -psi))
    vk1 = theta.p1 + a_inv * (
        Fraction(1, 2) * a_inv * total_derivative(rho, 2)
        + K1 * rho
        - 2 * metric.G * total_derivative(v.g)
    )
    vk2 = theta.p2 + a_inv * K2 * rho - EPS2 * metric.G * v.l
    return FlowPair(vk1, vk2)


def _general_field(rng: random.Random) -> LocalVectorField:
    """A field in X_P: four nonzero components of order at most 3, rho != 0."""
    scalars = [const(1), const(-2), const(Fraction(1, 3)), A, param("c1"), EPS1]
    while True:
        parts = []
        for _ in range(4):
            out = zero()
            for _ in range(rng.randrange(1, 3)):
                term = rng.choice(scalars)
                for _ in range(rng.randrange(3)):
                    term = term * gen(rng.choice(("k1", "k2")), rng.randrange(4))
                out = out + term
            parts.append(out)
        v = LocalVectorField(*parts)
        if not any(c.is_zero() for c in parts) and not projections(v).rho.is_zero():
            return v


def test_transport_matches_theta_form_on_general_fields():
    rng = random.Random(409)
    for _ in range(20):
        v = _general_field(rng)
        for metric in (FrameMetric(), FLAT):
            assert tuple(frame_derivative_coeffs(v, metric)) == _coeffs_oracle(v, metric)
            assert variational_flow(v, metric) == _flow_oracle(v, metric)


def test_flow_and_d_v_take_ten_d_passes(monkeypatch):
    # Five D in the projections (of h, l, f, phi and g), then D of psi, psi',
    # alpha, beta and delta once each: the transport reuses rho's D phi and D g.
    # With a constant target d_v's prolongation table takes none.
    v = _general_field(random.Random(419))
    passes = []
    d_once = diffalg._d_once

    def counted(f):
        passes.append(f)
        return d_once(f)

    monkeypatch.setattr(diffalg, "_d_once", counted)
    variational_flow(v)
    assert len(passes) == 10
    passes.clear()
    d_v(v, LocalVectorField(const(1), zero(), zero(), zero()))
    assert len(passes) == 10


def test_each_call_takes_each_fields_transport_once(monkeypatch):
    # The residual transports v1, v2 and their bracket; composed from d_v and
    # gamma_bracket it took seven.
    v1, v2, u = _field(f="k1", h="k2"), _field(g="k1", l="1"), _field(h="k2", g="1")
    transported = []
    transport = nullcurve._transport

    def counted(v, metric):
        transported.append(v)
        return transport(v, metric)

    monkeypatch.setattr(nullcurve, "_transport", counted)
    curvature_identity_residual(v1, v2, u)
    assert transported[:2] == [v1, v2] and len(transported) == 3
    transported.clear()
    gamma_bracket(v1, v2)
    assert transported == [v1, v2]


def test_each_linear_combination_is_built_in_one_accumulator(monkeypatch):
    # Every polynomial the kernels build passes through _normalized once: one
    # per D pass, partial derivative, prolongation entry and scaled factor,
    # and one per linear combination, however many products it sums.  Built
    # from binary *, + and - these were 65, 123 and 27.
    rng = random.Random(419)
    v, u = _general_field(rng), _general_field(rng)
    column = (K1 * gen("k2", 2), param("c1") * gen("k1", 1) + K2)
    built = []
    normalized = diffalg._normalized

    def counted(acc, den):
        built.append(den)
        return normalized(acc, den)

    monkeypatch.setattr(diffalg, "_normalized", counted)
    counts = []
    for call in (lambda: variational_flow(v), lambda: d_v(v, u),
                 lambda: theta_matrix_apply(column), lambda: gamma_bracket(v, u),
                 lambda: inner(v, u)):
        built.clear()
        call()
        counts.append(len(built))
    # gamma_bracket sums both d_v product lists in one accumulator per
    # component: two whole d_v fields and their difference would make 97.
    # inner scales two factors and sums its four products; binary operators made 9.
    # The flow, d_v and the bracket made 22, 47 and 93 while the transport
    # took D phi and D g again after the projections.
    assert counts == [20, 45, 8, 89, 3]


def test_make_x_reproduces_seed_fields():
    built = make_X(zero(), zero(), 0, param("b"))
    assert built == V0
    built = make_X(zero(), zero(), -2 * EPS1 * A**2 * param("c"), 0)
    assert built == V1


def test_make_x_fields_have_zero_rho():
    rng = random.Random(307)
    for _ in range(15):
        h, l = _admissible_pair(rng)
        v = make_X(h, l, rng.randrange(-2, 3), rng.randrange(-2, 3))
        assert projections(v).rho.is_zero()
        assert classify(v) == "T_PLambda"


def test_classify_boundaries():
    assert classify(_field(h="k1")) == "X_P"
    assert classify(_field(g="c1")) == "X*_P"
    assert classify(_field()) == "T_PLambda"
    assert classify(V0) == "T_PLambda"
    assert classify(V1) == "T_PLambda"
    # g' = -eps1 a h holds but k1 h - k2 l is not exact.
    v = _field(h="-eps1*k1'/a", g="k1", l="k2")
    assert classify(v) == "X*_P"


def test_inner_reproduces_metric_table():
    t = _field(f="1")
    w1 = _field(h="1")
    n = _field(g="1")
    w2 = _field(l="1")
    assert inner(t, n) == const(-1)
    assert inner(t, t).is_zero()
    assert inner(n, n).is_zero()
    assert inner(w1, w1) == EPS1
    assert inner(w2, w2) == EPS2
    assert inner(t, w1).is_zero()
    assert inner(w1, w2).is_zero()


def _admissible_pair(rng: random.Random) -> tuple[DiffPoly, DiffPoly]:
    h = zero()
    l = zero()
    for _ in range(rng.randrange(1, 3)):
        w = const(rng.choice([1, -1, Fraction(1, 2)]))
        kind = rng.randrange(4)
        if kind == 0:
            h = h + w * (K1 + rng.randrange(-1, 2)) * gen("k1", 1)
        elif kind == 1:
            l = l + w * (K2 + rng.randrange(-1, 2)) * gen("k2", 1)
        elif kind == 2:
            h = h + w * K2 * gen("k2", 1)
            l = l + w * K1 * gen("k2", 1)
        else:
            l = l + w * gen("k2", 1)
    return h, l


def _star_field(rng: random.Random) -> LocalVectorField:
    """Random member of X*_P, usually with nonzero rho."""
    g = zero()
    for _ in range(rng.randrange(1, 3)):
        g = g + rng.randrange(-2, 3) * gen("k1", rng.randrange(0, 2))
        if rng.random() < 0.4:
            g = g + rng.randrange(-1, 2) * K2
    h = -EPS1 * param("a", -1) * total_derivative(g)
    f = rng.randrange(-2, 3) * K1 + const(rng.randrange(-1, 2))
    l = rng.randrange(-2, 3) * gen("k2", rng.randrange(0, 2))
    return LocalVectorField(f, h, g, l)


def test_gamma_bracket_is_antisymmetric_and_closed():
    rng = random.Random(311)
    metric = FrameMetric()
    for _ in range(8):
        v1 = _star_field(rng)
        v2 = _star_field(rng)
        br = gamma_bracket(v1, v2, metric)
        assert (br + gamma_bracket(v2, v1, metric)).is_zero()
        assert gamma_bracket(v1, v1, metric).is_zero()
        # Closure in X*_P: the causal-character constraint survives.
        assert total_derivative(br.g) == -EPS1 * A * br.h


def test_bracket_flow_is_corrected_action_commutator():
    # On all of X*_P the bracket's induced flow equals the commutator of the
    # corrected scalar actions (not of the plain evolution derivations).
    rng = random.Random(313)
    metric = FrameMetric()
    for _ in range(6):
        v1 = _star_field(rng)
        v2 = _star_field(rng)
        flow1 = variational_flow(v1, metric)
        flow2 = variational_flow(v2, metric)
        br_flow = variational_flow(gamma_bracket(v1, v2, metric), metric)
        for idx, var in enumerate(("k1", "k2")):
            lhs = br_flow.components()[idx]
            rhs = scalar_action(v1, flow2.components()[idx], metric) - scalar_action(
                v2, flow1.components()[idx], metric
            )
            assert lhs == rhs


def test_rho_free_pairs_realize_plain_flow_bracket():
    rng = random.Random(317)
    metric = FrameMetric()
    for _ in range(6):
        v1 = make_X(*_admissible_pair(rng), rng.randrange(-1, 2), 0)
        v2 = make_X(*_admissible_pair(rng), 0, rng.randrange(-1, 2))
        br_flow = variational_flow(gamma_bracket(v1, v2, metric), metric)
        plain = lie_bracket_flows(
            variational_flow(v1, metric), variational_flow(v2, metric)
        )
        assert br_flow == plain


def _random_poly(rng: random.Random) -> DiffPoly:
    out = zero()
    for _ in range(rng.randrange(1, 4)):
        term = const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        for _ in range(rng.randrange(1, 3)):
            term = term * gen(rng.choice(("k1", "k2")), rng.randrange(0, 3))
        out = out + term
    return out


def test_scalar_action_of_rho_free_field_is_the_frechet_derivative():
    # With rho = 0 the corrected derivation is the plain evolution derivation
    # of the field's curvature flow: the prolongation kernel with and without
    # its arc-length correction.
    rng = random.Random(349)
    for _ in range(8):
        v = make_X(*_admissible_pair(rng), rng.randrange(-1, 2), rng.randrange(-1, 2))
        p = _random_poly(rng)
        plain = frechet(FlowPair(p, zero()), variational_flow(v)).p1
        assert scalar_action(v, p) == plain


def test_a_target_over_a_variable_the_flow_lacks_is_refused():
    # A field's flow is over k1, k2: a target in u is refused by name.
    u = gen("u", 1)
    with pytest.raises(DiffAlgError, match="a target uses 'u'"):
        scalar_action(V1, K1 * u)
    with pytest.raises(DiffAlgError, match="a target uses 'u'"):
        d_v(V1, LocalVectorField(zero(), u, zero(), zero()))


def test_plain_flow_bracket_needs_zero_rho():
    # Witness that the previous identity genuinely needs rho = 0: this pair
    # has rho != 0 and the two sides differ.
    metric = FrameMetric()
    v1 = _field(f="k1")
    v2 = V0
    br_flow = variational_flow(gamma_bracket(v1, v2, metric), metric)
    plain = lie_bracket_flows(
        variational_flow(v1, metric), variational_flow(v2, metric)
    )
    assert plain.is_zero()
    assert br_flow == parse_flow("-b*k1'^2, -b*k1'*k2'")


def test_curvature_identity_with_symbolic_g():
    rng = random.Random(331)
    metric = FrameMetric()
    for _ in range(4):
        v1 = _star_field(rng)
        v2 = _star_field(rng)
        u = LocalVectorField(
            rng.randrange(-1, 2) * K1,
            rng.randrange(-1, 2) * K2,
            const(rng.randrange(-1, 2)),
            rng.randrange(-1, 2) * gen("k1", 1),
        )
        assert curvature_identity_residual(v1, v2, u, metric).is_zero()


def _flat_star_field(rng: random.Random) -> LocalVectorField:
    # Degree- and order-light member of X*_P: two nested brackets of these
    # stay comfortably under the derivative-order cap.
    g = K1 + rng.randrange(-1, 2) * K2 + const(rng.randrange(-1, 2))
    h = -EPS1 * param("a", -1) * total_derivative(g)
    f = const(rng.randrange(-1, 2)) + rng.randrange(-1, 2) * K1
    l = rng.randrange(-1, 2) * K2
    return LocalVectorField(f, h, g, l)


def _composed_residual(v1, v2, u, metric):
    lhs = (d_v(gamma_bracket(v1, v2, metric), u, metric) - d_v(v1, d_v(v2, u, metric), metric)
           + d_v(v2, d_v(v1, u, metric), metric))
    return lhs - (v2.scale(metric.G * inner(u, v1)) - v1.scale(metric.G * inner(u, v2)))


def test_fused_bracket_and_residual_equal_their_composed_routes():
    # gamma_bracket and curvature_identity_residual each sum every product of a
    # component once; the oracle builds them from whole d_v fields, scale and -.
    rng = random.Random(421)
    plain = [(_field(f="k1", h="k2"), _field(g="k1", l="1"), _field(h="k2", g="1")),
             (_field(f="1", g="k2"), _field(h="k1"), _field(f="k1", l="k2"))]
    stars = [(_star_field(rng), _star_field(rng), _field(f="k1", h="k2", g="1", l="k1'"))
             for _ in range(2)]
    # The X_P triples break the identity, so there the oracle compares nonzero sums.
    for triples, holds in ((plain, False), (stars, True)):
        for (v1, v2, u), metric in itertools.product(triples, (FrameMetric(), FLAT)):
            assert gamma_bracket(v1, v2, metric) == d_v(v1, v2, metric) - d_v(v2, v1, metric)
            residual = curvature_identity_residual(v1, v2, u, metric)
            assert residual == _composed_residual(v1, v2, u, metric)
            assert residual.is_zero() == holds


@pytest.mark.parametrize("call, name", [
    (lambda: FlowPair(1, 2), "flow component p1"),
    (lambda: d_v(V1, LocalVectorField(1, 0, 0, 0)), "field component f"),
    (lambda: scalar_action(V1, 3), "scalar_action target"),
])
def test_a_component_that_is_not_a_diffpoly_is_refused(call, name):
    with pytest.raises(DiffAlgError, match=name + " must be a DiffPoly"):
        call()


def test_gamma_bracket_jacobi():
    rng = random.Random(337)
    metric = FrameMetric()
    for _ in range(3):
        fields = [_flat_star_field(rng) for _ in range(3)]
        total = gamma_bracket(gamma_bracket(fields[0], fields[1], metric), fields[2], metric)
        total = total + gamma_bracket(
            gamma_bracket(fields[1], fields[2], metric), fields[0], metric
        )
        total = total + gamma_bracket(
            gamma_bracket(fields[2], fields[0], metric), fields[1], metric
        )
        assert total.is_zero()


def _golden_fields() -> list[LocalVectorField]:
    """Fixed criterion-4 X*_P fields (rho != 0) and criterion-3 make_X fields."""
    rng = random.Random(401)
    stars = [_star_field(rng) for _ in range(3)]
    arcs = [
        make_X(*_admissible_pair(rng), rng.randrange(-1, 2), rng.randrange(-1, 2))
        for _ in range(2)
    ]
    return stars + arcs


def _golden_texts() -> dict[str, list[DiffPoly]]:
    """Outputs of d_v, gamma_bracket and scalar_action on the golden fields."""
    fields = _golden_fields()
    u = LocalVectorField(K1, -K2, const(1), gen("k1", 1))
    out: dict[str, list[DiffPoly]] = {"d_v": [], "gamma_bracket": [], "scalar_action": []}
    for v, w in zip(fields, fields[1:] + fields[:1]):
        out["d_v"] += d_v(v, u).components() + d_v(v, w).components()
        out["gamma_bracket"] += gamma_bracket(v, w).components()
        targets = variational_flow(w).components() + (w.f, w.g)
        out["scalar_action"] += [scalar_action(v, t) for t in targets]
    return out


# SHA-256 of the canonical text of _golden_texts(), one polynomial per line.
# A refactor of the derivation kernel must reproduce these bytes.
GOLDEN_SHA256 = {
    "d_v": "c1c179b0e5e26e913253e00896708b384a7181b117173235eed1fafe257189e8",
    "gamma_bracket": "f114a3f4105060d4e75666ed295a19981119d2fea02aa97d7a8dea74b1990a84",
    "scalar_action": "fc96c295d65ee4189888f38a4541e58c4d0bea402e98a46432367609a3f69d80",
}


def test_field_actions_are_bit_identical_to_pinned_digests():
    for name, polys in _golden_texts().items():
        text = "\n".join(str(p) for p in polys)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name], name


def test_reflected_operators_and_renderings():
    # The reflected -, a comparison with a non-polynomial, and the three text forms.
    assert 1 - K1 == parse_expr("1 - k1")
    assert (K1 == 0) is False and K1 != 0
    assert repr(gen("k1", 1)) == "DiffPoly(k1')"
    assert str(FlowPair(gen("k1", 1), gen("k2", 1))) == "(k1', k2')"
    field = LocalVectorField(param("b"), K1, zero(), -gen("k2", 2))
    assert str(field) == "(b; k1; 0; -k2'')"
