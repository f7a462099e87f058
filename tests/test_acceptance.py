"""Acceptance suite: one test per shipped criterion.

Run with -v to get one pass/fail line per criterion.  Symbolic criteria
are exact (rational arithmetic, zero tolerance); numeric criteria carry
explicit bounds and per-run wall-clock caps.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nullflow.diffalg import (
    NotExact,
    anti_derivative,
    const,
    euler_operator,
    gen,
    lie_bracket_flows,
    param,
    total_derivative,
    zero,
)
from nullflow.expr import parse_expr, parse_flow
from nullflow.hierarchy import generate, verify_reference_forms
from nullflow.nullcurve import (
    FrameMetric,
    LocalVectorField,
    classify,
    curvature_identity_residual,
    gamma_bracket,
    make_X,
    variational_flow,
)
from nullflow.operators import (
    a_matrix_apply,
    b_matrix_apply,
    hs_classic_sigma,
    recursion_curvature,
)
from nullflow.numsim import (
    SimConfig,
    compile_flow,
    evolve,
    reconstruct_curve,
    run_report,
    standard_initial_frame,
    uniform_grid,
)

K1 = gen("k1", 0)
K2 = gen("k2", 0)
EPS1 = param("eps1")


def test_criterion_1_reference_forms_reproduced_exactly():
    started = time.perf_counter()
    report = verify_reference_forms(generate(3))
    elapsed = time.perf_counter() - started
    failed = [c for c in report["checks"] if not c["ok"]]
    assert report["ok"], failed
    covered = {(c["index"], c["component"]) for c in report["checks"]}
    # the third-order flow, both index-2 displays, and the index-3 field
    assert {(1, "flow.k1"), (2, "field.f"), (2, "flow.k1"), (3, "field.f")} <= covered
    assert elapsed < 10.0


def test_criterion_2_hierarchy_flows_commute():
    started = time.perf_counter()
    entries = generate(3)
    for i in range(4):
        for j in range(i + 1, 4):
            if i + j > 4:
                continue
            bracket = lie_bracket_flows(entries[i].flow, entries[j].flow)
            assert bracket.is_zero(), (i, j)
    assert time.perf_counter() - started < 300.0


def _low_degree_member(rng: random.Random) -> LocalVectorField:
    """Arc-length class member with component degree <= 2 and order <= 3."""
    alpha, beta, delta = (rng.randrange(-2, 3) for _ in range(3))
    h = alpha * gen("k1", 1) + beta * gen("k2", 1)
    l = -beta * gen("k1", 1) + delta * gen("k2", 1)
    return make_X(h, l, rng.randrange(-1, 2), rng.randrange(-1, 2))


def test_criterion_3_bracket_flow_matches_flow_commutator():
    rng = random.Random(401)
    metric = FrameMetric()
    for trial in range(25):
        v1 = _low_degree_member(rng)
        v2 = _low_degree_member(rng)
        assert classify(v1) == classify(v2) == "T_PLambda"
        left = variational_flow(gamma_bracket(v1, v2, metric), metric)
        right = lie_bracket_flows(
            variational_flow(v1, metric), variational_flow(v2, metric)
        )
        assert left == right, trial


def _bounded_star_field(rng: random.Random) -> LocalVectorField:
    g = K1 + rng.randrange(-1, 2) * K2 + const(rng.randrange(-1, 2))
    h = -EPS1 * param("a", -1) * total_derivative(g)
    f = const(rng.randrange(-1, 2)) + rng.randrange(-1, 2) * K1
    l = rng.randrange(-1, 2) * K2
    return LocalVectorField(f, h, g, l)


def test_criterion_4_bracket_algebra_identities():
    rng = random.Random(409)
    metric = FrameMetric()
    for _ in range(10):
        v1 = _bounded_star_field(rng)
        v2 = _bounded_star_field(rng)
        v3 = _bounded_star_field(rng)
        assert (gamma_bracket(v1, v2, metric) + gamma_bracket(v2, v1, metric)).is_zero()
        u = LocalVectorField(
            rng.randrange(-1, 2) * K1,
            rng.randrange(-1, 2) * K2,
            const(rng.randrange(-1, 2)),
            rng.randrange(-1, 2) * gen("k1", 1),
        )
        assert curvature_identity_residual(v1, v2, u, metric).is_zero()
        jacobi = gamma_bracket(gamma_bracket(v1, v2, metric), v3, metric)
        jacobi = jacobi + gamma_bracket(gamma_bracket(v2, v3, metric), v1, metric)
        jacobi = jacobi + gamma_bracket(gamma_bracket(v3, v1, metric), v2, metric)
        assert jacobi.is_zero()


def _tangential_data(rng: random.Random):
    """Random (h, l) with h and k1*h - k2*l both exact."""
    h = zero()
    l = zero()
    for _ in range(rng.randrange(1, 4)):
        w = const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        kind = rng.randrange(5)
        if kind == 0:
            x = sum(rng.randrange(-2, 3) * K1**d for d in range(3))
            h = h + w * x * gen("k1", 1)
        elif kind == 1:
            y = sum(rng.randrange(-2, 3) * K2**d for d in range(3))
            l = l + w * y * gen("k2", 1)
        elif kind == 2:
            h = h + w * K2 * gen("k2", 1)
            l = l + w * K1 * gen("k2", 1)
        elif kind == 3:
            h = h + w * gen("k1", rng.choice([1, 3]))
        else:
            l = l + w * gen("k2", rng.choice([1, 3]))
    return h, l


def test_criterion_5_factored_and_direct_recursion_agree():
    rng = random.Random(419)
    eps12 = param("eps1") * param("eps2")
    constants = (param("c1"), param("c2"))
    for trial in range(25):
        h, l = _tangential_data(rng)
        via_projections = b_matrix_apply(a_matrix_apply(h, l, constants))
        via_recursion = recursion_curvature((2 * h, -eps12 * l), constants)
        assert via_projections == via_recursion, trial


def _constant_free_poly(rng: random.Random):
    out = zero()
    for _ in range(rng.randrange(1, 5)):
        monomial = const(Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4)))
        if rng.random() < 0.3:
            monomial = monomial * param("a", rng.randrange(-1, 2))
        if rng.random() < 0.2:
            monomial = monomial * param("eps1")
        for _ in range(rng.randrange(1, 3)):
            monomial = monomial * gen(
                rng.choice(["k1", "k2"]), rng.randrange(0, 3)
            ) ** rng.randrange(1, 3)
        out = out + monomial
    return out if not out.is_zero() else K1


def test_criterion_6_exactness_oracle():
    rng = random.Random(421)
    for trial in range(100):
        f = _constant_free_poly(rng)
        image = total_derivative(f)
        assert euler_operator(image, "k1").is_zero(), trial
        assert euler_operator(image, "k2").is_zero(), trial
        assert anti_derivative(image) == f, trial
    with pytest.raises(NotExact):
        anti_derivative(K1 * gen("k1", 2))
    with pytest.raises(NotExact):
        anti_derivative(K2 * K2)


def test_criterion_7_classical_flows_cross_check():
    sigma0 = hs_classic_sigma(0)
    sigma1 = hs_classic_sigma(1)
    sigma2 = hs_classic_sigma(2)
    uv = ("u", "v")
    assert sigma0.p1 == parse_expr("u'", uv)
    assert sigma0.p2 == parse_expr("v'", uv)
    assert sigma1.p1 == parse_expr("1/2*u''' + 3*u*u' - 6*v*v'", uv)
    assert sigma1.p2 == parse_expr("-v''' - 3*u*v'", uv)
    assert lie_bracket_flows(sigma0, sigma1).is_zero()
    assert lie_bracket_flows(sigma1, sigma2).is_zero()


def _soliton(amplitude, a=1.0, center=0.0):
    width = math.sqrt(a * amplitude) / 2.0
    return lambda sigma: amplitude / np.cosh(width * (sigma - center)) ** 2


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, "run exceeded the 60 s budget"
    return result


def test_criterion_8a_translation_flow_linf():
    def run():
        config = SimConfig(
            domain_length=2 * np.pi, grid_points=512, dt=1.0 / 1024, t_end=1.0
        )
        state = uniform_grid(config, np.sin)
        rhs = compile_flow(parse_flow("b*k1', b*k2'"), {"b": 1.0}, config)
        return config, evolve(state, rhs, config)[1][-1]

    config, final = _timed(run)
    sigma = np.arange(config.grid_points) * config.dx
    assert np.abs(final[0] - np.sin(sigma + 1.0)).max() < 1e-4


def test_criterion_8b_soliton_linf_mass_and_convergence():
    from nullflow.hierarchy import seed

    amplitude, length, t_end = 0.5, 60.0, 1.0
    errors = {}
    drifts = {}
    for n in (512, 256):
        def run(n=n):
            config = SimConfig(
                domain_length=length, grid_points=n, dt=1.25e-4, t_end=t_end
            )
            state = uniform_grid(config, _soliton(amplitude, center=length / 2))
            rhs = compile_flow(seed(1).flow, {"c": 1.0}, config)
            return config, evolve(state, rhs, config)

        config, (times, states) = _timed(run)
        sigma = np.arange(config.grid_points) * config.dx
        exact = _soliton(amplitude, center=length / 2 - amplitude * t_end)(sigma)
        errors[n] = np.abs(states[-1, 0] - exact).max()
        mass = run_report(config, times, states)["mass_k1"]
        drifts[n] = abs(mass[-1] - mass[0])
    assert errors[512] < 1e-4
    assert drifts[512] < 1e-10
    assert 12.0 < errors[256] / errors[512] < 20.0


def test_criterion_8c_constant_curvature_matches_matrix_exponential():
    from scipy.linalg import expm

    def run():
        a, k1v, k2v = 1.0, 0.4, 0.0
        config = SimConfig(domain_length=2 * np.pi, grid_points=512, a=a)
        state = uniform_grid(config, k1v, k2v)
        path = reconstruct_curve(state, config)
        gamma0, t0, w10, n0, w20, _ = standard_initial_frame(1, 1)
        y0 = np.stack([gamma0, t0, w10, n0, w20])
        m = np.array(
            [
                [0, 1, 0, 0, 0],
                [0, 0, a, 0, 0],
                [0, -k1v, 0, a, 0],
                [0, 0, -k1v, 0, k2v],
                [0, k2v, 0, 0, 0],
            ],
            dtype=float,
        )
        worst = 0.0
        for node in (128, 384, 512):
            expected = expm(path.sigma[node] * m) @ y0
            got = np.stack(
                [
                    path.gamma[node],
                    path.tangent[node],
                    path.w1[node],
                    path.normal[node],
                    path.w2[node],
                ]
            )
            worst = max(worst, float(np.abs(got - expected).max()))
        return worst

    assert _timed(run) < 1e-8


def test_criterion_8d_null_condition_drift():
    def run():
        config = SimConfig(domain_length=2 * np.pi, grid_points=512)
        state = uniform_grid(
            config, lambda s: 0.4 + 0.1 * np.sin(s), lambda s: 0.3 + 0.1 * np.cos(s)
        )
        return reconstruct_curve(state, config)

    path = _timed(run)
    assert path.null_drift() < 1e-8
    assert path.gram_drift() < 1e-8
