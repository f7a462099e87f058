"""Grid evolution and reconstruction against independent oracles."""

import csv
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nullflow import numsim
from nullflow.diffalg import specialize
from nullflow.expr import parse_flow
from nullflow.hierarchy import generate, seed
from nullflow.numsim import (
    MAX_GRID_POINTS,
    MAX_SAVED_SAMPLES,
    MAX_STEPS,
    BlowUp,
    FramePath,
    SimConfig,
    UnboundParameter,
    compile_flow,
    evolve,
    fd_weights,
    nlie_run,
    reconstruct_curve,
    run_flow,
    run_report,
    spatial_derivative,
    standard_initial_frame,
    stencil_plan,
    uniform_grid,
    write_curvature_csv,
    write_path_csv,
    write_report_json,
)

TRANSLATION = parse_flow("b*k1', b*k2'")
# Pairs a whole block with unit coefficients (k1 with -k2) and swapped rows
# with a broadcast factor (k2*k2' with k1*k2'); the third-degree terms, with
# their squares, stay one row each.
PAIRED = parse_flow("k1 + k2*k2' - k1^2*k1'', k1*k2' - k2 + 3*k2''*k2'^2")
FIFTH_ORDER = parse_flow("k1^(5) + 10*k1*k1''', k2^(5) + 5*k1*k2'''")


def _soliton(amplitude, a=1.0, center=0.0):
    width = math.sqrt(a * amplitude) / 2.0
    return lambda sigma: amplitude / np.cosh(width * (sigma - center)) ** 2


def _nodes(config):
    """The sigma of every column of a (2, n) curvature state."""
    return np.arange(config.grid_points) * config.dx


def test_fd_weights_match_classical_tables():
    offsets, weights = fd_weights(1, 4)
    assert offsets == [-2, -1, 0, 1, 2]
    assert weights == [
        Fraction(1, 12),
        Fraction(-2, 3),
        Fraction(0),
        Fraction(2, 3),
        Fraction(-1, 12),
    ]
    _, w2 = fd_weights(2, 4)
    assert w2 == [
        Fraction(-1, 12),
        Fraction(4, 3),
        Fraction(-5, 2),
        Fraction(4, 3),
        Fraction(-1, 12),
    ]
    assert sum(w2) == 0
    for bad in (0, 3, -2):
        with pytest.raises(ValueError, match="accuracy must be a positive even int"):
            fd_weights(1, bad)
    with pytest.raises(ValueError, match="derivative order must be >= 1"):
        fd_weights(0, 4)


def test_spatial_derivative_orders_of_accuracy():
    # d^3 sin = -cos in row 0 and d^3 cos = sin in row 1.
    for acc, floor in ((4, 4.0), (6, 6.0)):
        errors = []
        for n in (64, 128):
            sigma = np.arange(n) * (2 * np.pi / n)
            plan = stencil_plan([3], n, 2 * np.pi / n, acc)
            approx = spatial_derivative(np.array([np.sin(sigma), np.cos(sigma)]), plan)[0]
            errors.append([np.abs(approx[0] + np.cos(sigma)).max(),
                           np.abs(approx[1] - np.sin(sigma)).max()])
        for coarse, fine in zip(*errors):
            assert math.log2(coarse / fine) > floor - 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(domain_length=2 * np.pi, eps1=-1, eps2=-1)
    for bad in (8, MAX_GRID_POINTS + 1):
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            SimConfig(domain_length=2 * np.pi, grid_points=bad)
    with pytest.raises(ValueError):
        SimConfig(domain_length=2 * np.pi, derivative_stencil="central5")
    with pytest.raises(ValueError):
        SimConfig(domain_length=-1.0)
    with pytest.raises(ValueError):
        SimConfig(domain_length=1.0, a=0.0)
    for name, bad, message in (("dt", -1e-3, "dt and t_end must be nonnegative"),
                               ("t_end", -1.0, "dt and t_end must be nonnegative"),
                               ("output_stride", -1, "output_stride must be nonnegative"),
                               ("eps1", 2, "eps1 and eps2 must be")):
        with pytest.raises(ValueError, match=message):
            SimConfig(**{"domain_length": 1.0, name: bad})
    # An int past the float range is refused as inf is, not by the
    # OverflowError of its conversion.
    for name in ("domain_length", "dt", "t_end", "a"):
        for bad in (math.nan, math.inf, 10**400):
            with pytest.raises(ValueError, match="%s must be finite" % name):
                SimConfig(**{"domain_length": 1.0, name: bad})
    config = SimConfig(domain_length=2 * np.pi, grid_points=64)
    for bad in (math.nan, math.inf, -math.inf, 10**400, -10**400):
        with pytest.raises(ValueError, match="parameter c must be finite"):
            compile_flow(seed(1).flow, {"c": bad}, config)
        with pytest.raises(ValueError, match="parameter b must be finite"):
            compile_flow(TRANSLATION, {"b": bad}, config)
    # Only exact ints and floats, the rule SimConfig applies to its float
    # fields: float() would take each of these silently.
    for bad in ("2", True, b"3", np.float32(0.1), np.float64(0.1), Fraction(1, 2)):
        with pytest.raises(ValueError, match="parameter c must be an int or a float, got"):
            compile_flow(seed(1).flow, {"c": bad}, config)


def test_config_refuses_counts_and_signs_that_are_not_exact_ints():
    # 16.5 points would not tile the period, stride 2.5 would save every
    # 5th step against a budget of one in 2.5, True would echo as true in
    # report.json and np.int64 would fail inside json.dump.
    cases = {
        "grid_points": (16.5, 32.0, True, np.int64(32)),
        "output_stride": (2.5, 2.0, True, np.int64(2)),
        "eps1": (1.0, True, np.int64(1)),
        "eps2": (-1.0, True, np.int64(-1)),
    }
    for name, values in cases.items():
        for bad in values:
            with pytest.raises(ValueError, match="%s must be an int, got" % name):
                SimConfig(domain_length=2 * np.pi, **{name: bad})
    # The float fields take int or float only: np.float32 would fail in
    # json.dump only after the whole run, and True would echo as true.
    floats = {"domain_length": (True, np.float32(1.0), np.float64(1.0)),
              "dt": (True, np.float32(1e-3)), "t_end": (False, np.float32(0.01)),
              "a": (True, np.float64(1.5))}
    for name, values in floats.items():
        for bad in values:
            with pytest.raises(ValueError, match="%s must be an int or a float, got" % name):
                SimConfig(**{"domain_length": 2 * np.pi, name: bad})
    with pytest.raises(ValueError, match="domain_length must be an int or a float, got True"):
        SimConfig(domain_length=True, grid_points=16, dt=1e-3, t_end=np.float32(0.01))
    config = SimConfig(domain_length=2 * np.pi, grid_points=32, output_stride=2, eps2=-1)
    assert json.loads(json.dumps(dataclasses.asdict(config)))["eps2"] == -1
    config = SimConfig(domain_length=6, grid_points=32, dt=1e-3, t_end=1, a=2)
    assert json.loads(json.dumps(dataclasses.asdict(config)))["domain_length"] == 6


def test_reconstruction_rejects_non_finite_curvature():
    config = SimConfig(domain_length=2 * np.pi, grid_points=64)
    state = uniform_grid(config, 0.4, 0.3)
    nan_k1, inf_k2 = state.copy(), state.copy()
    nan_k1[0] = math.nan
    inf_k2[1, _nodes(config) > 3] = np.inf
    for bad in (nan_k1, inf_k2):
        with pytest.raises(ValueError, match="non-finite"):
            reconstruct_curve(bad, config)


def test_evolve_and_reconstruction_refuse_a_state_of_another_shape():
    n = 32
    config = SimConfig(domain_length=2 * np.pi, grid_points=n, dt=1e-3, t_end=1e-2)
    calls = []

    def rhs(state):
        calls.append(1)
        return state

    for shape in ((2, n + 1), (n,), (3, n)):
        message = re.escape("has shape (2, 32), got %s" % (shape,))
        with pytest.raises(ValueError, match=message):
            evolve(np.zeros(shape), rhs, config)
        with pytest.raises(ValueError, match=message):
            reconstruct_curve(np.zeros(shape), config)
    assert not calls


def test_evolve_and_reconstruction_refuse_a_state_that_is_not_a_real_array():
    n = 16
    config = SimConfig(domain_length=2 * np.pi, grid_points=n, dt=1e-3, t_end=1e-2)
    calls = []

    def rhs(state):
        calls.append(1)
        return np.zeros_like(state)

    real = np.ones((2, n))
    for bad, given in ((real.tolist(), "list"), (real.astype(complex), "complex128"),
                       (real.astype(object), "object"), (real.astype(bool), "bool")):
        message = "a curvature state must be a numpy array of real numbers, got %s$" % given
        with pytest.raises(ValueError, match=message):
            evolve(bad, rhs, config)
        with pytest.raises(ValueError, match=message):
            reconstruct_curve(bad, config)
        with pytest.raises(ValueError, match=message):
            compile_flow(seed(1).flow, {"c": 1.0}, config)(bad)
    assert not calls
    # An int state is real: it evolves as the float state with the same values.
    rhs = compile_flow(TRANSLATION, {"b": 1.0}, config)
    assert np.array_equal(evolve(real.astype(int), rhs, config)[1], evolve(real, rhs, config)[1])


def test_evolve_refuses_an_initial_state_out_of_range_and_a_zero_t_end():
    # A translated constant stays exactly steady, so only the initial
    # check can keep BlowUp.last_good within BLOWUP_LIMIT.
    config = SimConfig(domain_length=2 * np.pi, grid_points=16, dt=1e-3, t_end=1e-3)
    rhs = compile_flow(TRANSLATION, {"b": 1.0}, config)
    calls = []

    def counted(state):
        calls.append(1)
        return rhs(state)

    for k1, k2 in ((1e9, 0.0), (0.0, -2 * numsim.BLOWUP_LIMIT), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="initial state exceeds BLOWUP_LIMIT = 1e\\+08"):
            evolve(np.array([np.full(16, k1), np.full(16, k2)]), counted, config)
    with pytest.raises(ValueError, match="config.t_end must be positive to evolve"):
        evolve(uniform_grid(config, 1.0), counted, dataclasses.replace(config, t_end=0))
    assert not calls
    limit = uniform_grid(config, numsim.BLOWUP_LIMIT, -numsim.BLOWUP_LIMIT)
    assert np.array_equal(evolve(limit, counted, config)[1][-1], limit)


def test_uniform_grid_rejects_non_finite_profiles():
    config = SimConfig(domain_length=2 * np.pi, grid_points=64)
    inf_k2 = lambda s: np.where(s > 3, np.inf, 0.3)
    for k1, k2, name in ((math.nan, 0.3, "k1"), (0.4, inf_k2, "k2")):
        with pytest.raises(ValueError, match="%s profile holds non-finite" % name):
            uniform_grid(config, k1, k2)


def test_unbound_parameter_is_reported_by_name():
    config = SimConfig(domain_length=2 * np.pi, grid_points=64)
    with pytest.raises(UnboundParameter) as info:
        compile_flow(seed(1).flow, {}, config)
    assert info.value.name == "c"
    with pytest.raises(ValueError, match="fixed by the config"):
        compile_flow(seed(1).flow, {"c": 1.0, "a": 2.0}, config)
    compile_flow(TRANSLATION, {"b": 1.0, "a": 1.0}, config)
    with pytest.raises(ValueError, match="unused parameter bindings: zz"):
        compile_flow(TRANSLATION, {"b": 1.0, "zz": 3.0}, config)


def test_translation_flow_shifts_the_profile():
    config = SimConfig(
        domain_length=2 * np.pi, grid_points=256, dt=1.0 / 1024, t_end=0.5
    )
    state = uniform_grid(config, np.sin, lambda s: 0.25 * np.cos(s))
    rhs = compile_flow(TRANSLATION, {"b": 1.0}, config)
    final = evolve(state, rhs, config)[1][-1]
    sigma = _nodes(config)
    assert np.abs(final[0] - np.sin(sigma + 0.5)).max() < 1e-6
    assert np.abs(final[1] - 0.25 * np.cos(sigma + 0.5)).max() < 1e-6


def test_zero_flow_is_a_constant_trajectory():
    config = SimConfig(domain_length=2 * np.pi, grid_points=64, dt=1e-3, t_end=0.05)
    state = uniform_grid(config, np.sin)
    rhs = compile_flow(parse_flow("0, 0"), {}, config)
    final = evolve(state, rhs, config)[1][-1]
    assert np.array_equal(final, state)


def test_soliton_travels_at_its_exact_speed():
    amplitude, length = 0.5, 60.0
    config = SimConfig(domain_length=length, dt=1.25e-4, t_end=0.5)
    state = uniform_grid(config, _soliton(amplitude, center=length / 2))
    rhs = compile_flow(seed(1).flow, {"c": 1.0}, config)
    final = evolve(state, rhs, config)[1][-1]
    exact = _soliton(amplitude, center=length / 2 - amplitude * 0.5)(_nodes(config))
    assert np.abs(final[0] - exact).max() < 1e-6
    assert np.abs(final[1]).max() == 0.0


def test_sixth_order_stencil_sharpens_the_soliton():
    amplitude, length = 0.5, 60.0
    errors = {}
    for stencil in ("central4", "central6"):
        config = SimConfig(
            domain_length=length,
            dt=1.25e-4,
            t_end=0.2,
            derivative_stencil=stencil,
        )
        state = uniform_grid(config, _soliton(amplitude, center=length / 2))
        rhs = compile_flow(seed(1).flow, {"c": 1.0}, config)
        final = evolve(state, rhs, config)[1][-1]
        exact = _soliton(amplitude, center=length / 2 - amplitude * 0.2)(_nodes(config))
        errors[stencil] = np.abs(final[0] - exact).max()
    assert errors["central6"] < errors["central4"] / 10


def test_k1_mass_is_conserved_and_k2_mass_is_not():
    length = 60.0
    config = SimConfig(domain_length=length, grid_points=256, dt=2.5e-4, t_end=0.2)
    state = uniform_grid(
        config,
        _soliton(0.5, center=length / 2),
        lambda s: 0.2 * np.sin(2 * np.pi * s / length),
    )
    rhs = compile_flow(seed(1).flow, {"c": 1.0}, config)
    times, states = evolve(state, rhs, config)
    report = run_report(config, times, states)
    drift1 = abs(report["mass_k1"][-1] - report["mass_k1"][0])
    drift2 = abs(report["mass_k2"][-1] - report["mass_k2"][0])
    assert drift1 < 1e-12
    assert drift2 > 1e-6


def test_output_stride_keeps_ordered_snapshots():
    config = SimConfig(
        domain_length=2 * np.pi,
        grid_points=64,
        dt=1e-3,
        t_end=0.1,
        output_stride=20,
    )
    state = uniform_grid(config, np.sin)
    rhs = compile_flow(TRANSLATION, {"b": 1.0}, config)
    times, states = evolve(state, rhs, config)
    assert times[0] == 0.0
    assert list(times) == sorted(times)
    assert times[-1] == pytest.approx(0.1)
    assert times.shape == (6,)  # initial plus every 20th of 100 steps
    assert states.shape == (6, 2, 64)
    assert np.array_equal(states[0], state)


def test_blowup_carries_the_last_finite_state():
    config = SimConfig(domain_length=2 * np.pi, grid_points=64, dt=1e-3, t_end=0.5)
    state = uniform_grid(config, 10.0)
    rhs = compile_flow(parse_flow("k1^2, 0"), {}, config)
    with pytest.raises(BlowUp) as info:
        evolve(state, rhs, config)
    err = info.value
    assert err.time < 0.2
    assert err.step > 1
    assert err.last_good.shape == (2, 64)
    assert np.abs(err.last_good).max() <= numsim.BLOWUP_LIMIT


def test_evolve_copies_slopes_from_an_rhs_that_reuses_its_buffers():
    # The stage sums are formed in place, so evolve must not sum into
    # arrays the rhs hands out again on its next call.
    config = SimConfig(
        domain_length=2 * np.pi, grid_points=64, dt=1e-3, t_end=1e-2, output_stride=1
    )
    state = uniform_grid(config, np.sin)
    out = np.empty((2, 64))

    def reused(state):
        np.negative(state[0], out=out[0])
        np.divide(state[1], 2, out=out[1])
        return out

    fresh = evolve(state, lambda state: (-state[0], state[1] / 2), config)
    times, states = evolve(state, reused, config)
    assert len(states) == len(fresh[1]) == 11
    assert np.array_equal(times, fresh[0])
    assert np.array_equal(states, fresh[1])


def test_non_finite_slopes_stop_the_first_step():
    config = SimConfig(domain_length=2 * np.pi, grid_points=64, dt=1e-3, t_end=1e-2)
    state = uniform_grid(config, np.sin, 0.25)
    for bad in (math.nan, math.inf):
        with pytest.raises(BlowUp) as info:
            evolve(state, lambda state: (np.full_like(state[0], bad), state[1]), config)
        err = info.value
        assert err.step == 1
        assert err.time == pytest.approx(config.dt)
        assert np.array_equal(err.last_good, state)


def test_standard_frames_satisfy_the_pairing_table():
    for eps1, eps2 in ((1, 1), (1, -1), (-1, 1)):
        _, tangent, w1, normal, w2, eta = standard_initial_frame(eps1, eps2)
        inner = lambda x, y: float(x @ eta @ y)
        assert inner(tangent, tangent) == pytest.approx(0.0)
        assert inner(normal, normal) == pytest.approx(0.0)
        assert inner(tangent, normal) == pytest.approx(-1.0)
        assert inner(w1, w1) == pytest.approx(eps1)
        assert inner(w2, w2) == pytest.approx(eps2)
        for w in (w1, w2):
            assert inner(tangent, w) == pytest.approx(0.0)
            assert inner(normal, w) == pytest.approx(0.0)
        assert inner(w1, w2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        standard_initial_frame(-1, -1)


def test_constant_curvature_path_matches_matrix_exponential():
    from scipy.linalg import expm

    k1v, k2v, a = 0.4, 0.3, 1.0
    for eps1, eps2 in ((1, 1), (1, -1), (-1, 1)):
        config = SimConfig(
            domain_length=2 * np.pi, grid_points=128, a=a, eps1=eps1, eps2=eps2
        )
        state = uniform_grid(config, k1v, k2v)
        path = reconstruct_curve(state, config)
        gamma0, t0, w10, n0, w20, _ = standard_initial_frame(eps1, eps2)
        y0 = np.stack([gamma0, t0, w10, n0, w20])
        m = np.array(
            [
                [0, 1, 0, 0, 0],
                [0, 0, a, 0, 0],
                [0, -k1v, 0, a * eps1, 0],
                [0, 0, -eps1 * k1v, 0, eps2 * k2v],
                [0, k2v, 0, 0, 0],
            ],
            dtype=float,
        )
        for node in (37, 128):
            sigma = path.sigma[node]
            expected = expm(sigma * m) @ y0
            got = np.stack(
                [
                    path.gamma[node],
                    path.tangent[node],
                    path.w1[node],
                    path.normal[node],
                    path.w2[node],
                ]
            )
            assert np.abs(got - expected).max() < 1e-8


def test_zero_curvature_gives_the_null_cubic():
    a = 1.0
    for eps1 in (1, -1):
        config = SimConfig(domain_length=4.0, grid_points=64, a=a, eps1=eps1, eps2=1)
        state = uniform_grid(config, 0.0, 0.0)
        path = reconstruct_curve(state, config)
        _, t0, w10, n0, _, _ = standard_initial_frame(eps1, 1)
        s = path.sigma[:, None]
        cubic = s * t0 + (a * s**2 / 2) * w10 + (a**2 * eps1 * s**3 / 6) * n0
        assert np.abs(path.gamma - cubic).max() < 1e-10


def test_smooth_compact_reconstruction_stays_null():
    config = SimConfig(domain_length=2 * np.pi, grid_points=512)
    state = uniform_grid(
        config, lambda s: 0.4 + 0.1 * np.sin(s), lambda s: 0.3 + 0.1 * np.cos(s)
    )
    path = reconstruct_curve(state, config)
    assert max(path.drifts()) < 1e-8


def _per_pair_drift_series(path):
    """Reference drifts: one einsum per frame pairing, as a 4x4 double loop."""
    inner = lambda x, y: np.einsum("...i,ij,...j->...", x, path.eta, y)
    frames = (path.tangent, path.w1, path.normal, path.w2)
    table = np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, float(path.eps1), 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, float(path.eps2)],
        ]
    )
    gram = np.zeros(len(path.sigma))
    for i in range(4):
        for j in range(i, 4):
            gram = np.maximum(gram, np.abs(inner(frames[i], frames[j]) - table[i, j]))
    null = np.abs(inner(path.tangent, path.tangent))
    accel = np.abs(path.a**2 * inner(path.w1, path.w1) - path.eps1 * path.a**2)
    return gram, null, accel


def test_pairing_matrix_drifts_equal_the_per_pair_reference():
    paths = []
    for eps1, eps2 in ((1, 1), (1, -1), (-1, 1)):
        config = SimConfig(domain_length=2 * np.pi, grid_points=128, a=1.5, eps1=eps1, eps2=eps2)
        state = uniform_grid(config, lambda s: 0.4 + 0.1 * np.sin(s), lambda s: 0.3 * np.cos(s))
        paths.append(reconstruct_curve(state, config))
    config = SimConfig(domain_length=60.0)
    k2 = lambda s: 0.1 * np.sin(2 * np.pi * s / 60.0)
    state = uniform_grid(config, _soliton(0.5, center=30.0), k2)
    paths.append(reconstruct_curve(state, config))
    # Tilting T towards W1 moves <T,T> and <T,W1> off the table.
    paths += [dataclasses.replace(p, tangent=p.tangent + 1e-3 * p.w1) for p in paths]
    for path in paths:
        series, reference = path.drift_series(), _per_pair_drift_series(path)
        for got, want in zip(series, reference):
            assert np.array_equal(got, want)
        assert path.drifts() == tuple(float(r.max()) for r in reference)
        assert (path.gram_drift(), path.null_drift()) == path.drifts()[:2]
    assert min(p.drifts()[1] for p in paths[4:]) > 1e-7


def test_long_domain_drift_is_frame_growth_not_integrator_error():
    length = 60.0
    config = SimConfig(domain_length=length)
    state = uniform_grid(
        config,
        _soliton(0.5, center=length / 2),
        lambda s: 0.1 * np.sin(2 * np.pi * s / length),
    )
    path = reconstruct_curve(state, config)
    norms = (path.tangent**2).sum(axis=1)
    relative = (path.drift_series()[0] / (1.0 + norms)).max()
    assert relative < 1e-10
    assert norms.max() > 1e3  # the absolute drift scale comes from here


def test_nlie_run_keeps_constant_curvatures_stationary():
    config = SimConfig(
        domain_length=2 * np.pi, grid_points=64, dt=1e-4, t_end=0.02, output_stride=100
    )
    times, states, path, report = nlie_run(config, 0.4, 0.3, c=1.0)
    assert len(times) == len(states) == len(report["gram_drift"]) >= 2
    assert np.abs(states[:, 0] - 0.4).max() < 1e-12
    assert np.abs(states[:, 1] - 0.3).max() < 1e-12
    assert path.gram_drift() < 1e-8


def test_run_report_counts_steps_and_rhs_evaluations():
    # The README run: length 60, 512 points, dt 1.25e-4, t_end 1.
    config = SimConfig(domain_length=60.0, grid_points=512, dt=1.25e-4, t_end=1.0)
    report = run_report(config, np.array([0.0, 1.0]), np.zeros((2, 2, 512)))
    assert (report["steps"], report["rhs_evals"], report["dt_used"]) == (8000, 32000, 1.25e-4)
    assert report["dt_over_bound"] == 1.25e-4 / (0.1 * (60 / 512) ** 3)
    assert round(report["dt_over_bound"], 4) == 0.7767
    # The counters are the run's own: dt = 3e-3 rounds to 4 steps of 2.5e-3.
    config = SimConfig(domain_length=2 * np.pi, grid_points=32, dt=3e-3, t_end=0.01,
                       output_stride=3)
    calls = []

    def rhs(state):
        calls.append(1)
        return -state[1], state[0]

    times, states = evolve(uniform_grid(config, np.sin), rhs, config)
    report = run_report(config, times, states)
    assert (report["steps"], report["rhs_evals"], len(calls)) == (4, 16, 16)
    assert report["dt_used"] == 2.5e-3 and times[-1] == 4 * 2.5e-3
    assert report["dt_over_bound"] == 2.5e-3 / config.stability_bound()


def test_run_report_and_writers(tmp_path):
    config = SimConfig(
        domain_length=2 * np.pi, grid_points=32, dt=1e-3, t_end=0.01, output_stride=5
    )
    state = uniform_grid(config, np.sin)
    rhs = compile_flow(TRANSLATION, {"b": 1.0}, config)
    times, states = evolve(state, rhs, config)
    path = reconstruct_curve(states[-1], config)
    report = run_report(config, times, states, [(path.gram_drift(), path.null_drift(), 0.0)])
    assert report["stability_bound"] == pytest.approx(0.1 * config.dx**3)
    assert report["times"] == times.tolist()
    assert len(report["times"]) == len(states)
    assert "gram_drift" in report
    assert report["config"]["grid_points"] == 32

    k1_file = tmp_path / "k1.csv"
    write_curvature_csv(k1_file, config, times, states, "k1")
    with open(k1_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "sigma"
    assert rows[0][1] == "t=0"
    assert len(rows[0]) == 1 + len(states)
    assert len(rows) == 1 + config.grid_points
    with pytest.raises(ValueError):
        write_curvature_csv(tmp_path / "x.csv", config, times, states, "k3")

    path_file = tmp_path / "path.csv"
    write_path_csv(path_file, path)
    with open(path_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["sigma", "gamma_0", "gamma_1", "gamma_2", "gamma_3"]
    assert len(rows) == 1 + len(path.sigma)

    report_file = tmp_path / "report.json"
    write_report_json(report_file, report)
    with open(report_file) as fh:
        data = json.load(fh)
    assert data["config"]["derivative_stencil"] == "central4"


# SHA-256 of the bytes csv.writer produced for the fixed inputs below; the
# values are built with + - * / only, so they are the same IEEE doubles on
# every platform.
WRITER_DIGESTS = {
    "path": "47f088cb005769920d1e0c494f3291996958331b9499b4aa496cb538b159d6fb",
    "k1": "688cfa954c5ba7dcfc7dea4ad74a5bfb212aa666597a31b4686f5538eaac39ed",
    "k2": "05eff1a27c2d893b1d0858cf8bf333c2e583f374fa4c21d528e3b881cd3ce68b",
}


def test_writers_output_is_byte_stable(tmp_path):
    n = 9
    raw = (np.arange((n + 1) * 20, dtype=float).reshape(n + 1, 5, 4) - 61.0) / 7.0
    raw *= np.array([1.0, -1e-17, 3e5, 1.0 / 3.0, 2.0**-30])[None, :, None]
    raw[2, 1, 3] = -0.0
    sigma = np.arange(n + 1) * (2.0 / 3.0)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    path = FramePath(sigma, *raw.transpose(1, 0, 2), eta, 1.0, 1, 1)
    # The nodes are np.arange(16) * 0.1: 1.6 / 16 is the double 0.1.
    config = SimConfig(domain_length=1.6, grid_points=16)
    base = (np.arange(16, dtype=float) - 5.0) / 3.0
    times = np.array([t / 3.0 for t in range(3)])
    states = np.array([(base * (t + 1), base / (t + 7.0)) for t in range(3)])
    write_path_csv(tmp_path / "path.csv", path)
    write_curvature_csv(tmp_path / "k1.csv", config, times, states, "k1")
    write_curvature_csv(tmp_path / "k2.csv", config, times, states, "k2")
    for name, digest in WRITER_DIGESTS.items():
        data = (tmp_path / ("%s.csv" % name)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


# -- reference routes: per-sample loops the array code must match -----------

def _roll_derivative(values, m, dx, accuracy):
    offsets, weights = fd_weights(m, accuracy)
    out = np.zeros_like(values)
    for j, w in zip(offsets, weights):
        if w:
            out += float(w) * np.roll(values, -j)
    return out / dx**m


def _periodic_sampler(values):
    """6-point Lagrange interpolation in grid units (s = sigma / dx)."""
    n = len(values)
    nodes = list(range(-2, 4))

    def at(s):
        j0 = math.floor(s)
        u = s - j0
        total = 0.0
        for i in nodes:
            w = 1.0
            for m in nodes:
                if m != i:
                    w *= (u - m) / (i - m)
            total += w * values[(j0 + i) % n]
        return total

    return at


def _reference_reconstruction(state, config, substeps):
    """Scalar RK4 on the 20-vector (gamma, T, W1, N, W2), substep by substep."""
    gamma0, t0, w10, n0, w20, _ = standard_initial_frame(config.eps1, config.eps2)
    a, e1, e2 = float(config.a), float(config.eps1), float(config.eps2)
    k1_at, k2_at = _periodic_sampler(state[0]), _periodic_sampler(state[1])
    dx, n = config.dx, config.grid_points

    def rate(s, y):
        k1v, k2v = k1_at(s), k2_at(s)
        gamma, tangent, w1, normal, w2 = y.reshape(5, 4)
        return np.concatenate(
            [
                tangent,
                a * w1,
                -k1v * tangent + a * e1 * normal,
                -e1 * k1v * w1 + e2 * k2v * w2,
                k2v * tangent,
            ]
        )

    y = np.concatenate([gamma0, t0, w10, n0, w20]).astype(float)
    h = 1.0 / substeps
    out = np.empty((n + 1, 5, 4))
    out[0] = y.reshape(5, 4)
    s = 0.0
    for node in range(1, n + 1):
        for _ in range(substeps):
            f1 = rate(s, y)
            f2 = rate(s + 0.5 * h, y + 0.5 * h * dx * f1)
            f3 = rate(s + 0.5 * h, y + 0.5 * h * dx * f2)
            f4 = rate(s + h, y + h * dx * f3)
            y = y + (h * dx / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            s += h
        s = float(node)
        out[node] = y.reshape(5, 4)
    return out


def _assert_matches_reference(state, config):
    expected = _reference_reconstruction(state, config, numsim.SUBSTEPS)
    path = reconstruct_curve(state, config)
    got = np.stack([path.gamma, path.tangent, path.w1, path.normal, path.w2], axis=1)
    assert np.array_equal(path.sigma, np.arange(config.grid_points + 1) * config.dx)
    assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_reconstruction_matches_the_scalar_reference():
    # 100 is no power of two, so the last pass of the prefix scan is partial.
    for n in (64, 100):
        for eps1, eps2 in ((1, 1), (1, -1), (-1, 1)):
            config = SimConfig(
                domain_length=2 * np.pi, grid_points=n, a=1.3, eps1=eps1, eps2=eps2
            )
            state = uniform_grid(
                config, lambda s: 0.4 + 0.2 * np.sin(s), lambda s: 0.3 * np.cos(2 * s) - 0.1
            )
            _assert_matches_reference(state, config)


def _chain_by_loop(factors):
    """F_k ... F_0 for every k, one matmul per factor."""
    out = np.empty_like(factors)
    out[0] = factors[0]
    for k in range(1, len(factors)):
        np.matmul(factors[k], out[k - 1], out=out[k])
    return out


def test_prefix_scan_matches_the_chaining_loop():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 5, 16, 511, 512, 513):
        factors = np.eye(5) + 0.05 * rng.standard_normal((n, 5, 5))
        kept = factors.copy()
        got = numsim._prefix_products(factors)
        expected = _chain_by_loop(factors)
        assert np.array_equal(factors, kept)
        assert got.shape == (n, 5, 5)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_reconstruction_memory_is_a_small_multiple_of_its_path():
    # The peak sits in the RK4 stages, about 7.3x the FramePath's bytes; an
    # (n, n) array or a stack of log2(n) chain copies would pass 8x.
    config = SimConfig(domain_length=2 * np.pi, grid_points=4096, a=1.3)
    state = uniform_grid(config, lambda s: 0.4 + 0.2 * np.sin(s), np.cos)
    tracemalloc.start()
    try:
        path = reconstruct_curve(state, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = (path.sigma, path.gamma, path.tangent, path.w1, path.normal, path.w2)
    assert peak < 8 * sum(field.nbytes for field in fields)


def test_long_domain_reconstruction_matches_the_scalar_reference():
    length = 60.0
    config = SimConfig(domain_length=length)
    state = uniform_grid(
        config,
        _soliton(0.5, center=length / 2),
        lambda s: 0.1 * np.sin(2 * np.pi * s / length),
    )
    _assert_matches_reference(state, config)


def test_padded_stencil_equals_the_roll_formula():
    rng = np.random.default_rng(7)
    orders = range(1, 7)
    for n in (16, 512):
        rows = rng.standard_normal((2, n))
        for accuracy in (4, 6):
            plan = stencil_plan(orders, n, 0.37, accuracy)
            for batch in (rows, rows[::-1]):  # a row's derivative does not depend on its place
                got = spatial_derivative(batch, plan)  # [d^m rows for m in orders]
                assert len(got) == len(orders)
                for i, m in enumerate(orders):
                    for values, derivative in zip(batch, got[i]):
                        expected = _roll_derivative(values, m, 0.37, accuracy)
                        assert np.array_equal(derivative, expected)


def test_a_stencil_wider_than_the_grid_is_refused():
    # Order 11 under central6 needs 17 points, one more than the grid has;
    # under central4 it needs 15, so it fits.
    rows = np.ones((2, 16))
    assert len(spatial_derivative(rows, stencil_plan([1, 11], 16, 0.1, 4))[1][1]) == 16  # d^11 row1
    with pytest.raises(ValueError, match="stencil wider than the grid"):
        stencil_plan([1, 11], 16, 0.1, 6)
    config = SimConfig(domain_length=1.6, grid_points=16, dt=1e-3, t_end=1e-3,
                       derivative_stencil="central6")
    with pytest.raises(ValueError, match="stencil wider than the grid"):
        compile_flow(parse_flow("k1^(11), k2'"), {}, config)


def test_rows_off_the_plan_are_refused(monkeypatch):
    # One error naming both shapes, before any correlation, from the stencil
    # and from both branches of the compiled RHS.
    correlations = []
    monkeypatch.setattr(np, "correlate", lambda *args: correlations.append(args))
    plan = stencil_plan([1], 16, 0.4)
    config = SimConfig(domain_length=6.4, grid_points=16)
    calls = [lambda state: spatial_derivative(state, plan),
             compile_flow(seed(1).flow, {"c": 1.0}, config),
             compile_flow(parse_flow("k1*k2 - k2, k1^2 - 3"), {}, config)]
    for shape in ((2, 17), (16,), (3, 16)):
        message = re.escape("a curvature state has shape (2, 16), got %s" % (shape,))
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(np.ones(shape))
    assert not correlations
    with pytest.raises(ValueError, match="needs at least one derivative order"):
        stencil_plan([], 16, 0.4)


def _reference_terms(poly, bindings, variables):
    """(float coefficient, [(variable index, order, exponent)]) per term of
    poly specialized at bindings, in the order its terms() lists them."""
    return [
        (float(q), [(variables.index(var), order, exp) for (var, order), exp in gens])
        for gens, q, _, _, _ in specialize(poly, bindings).terms()
    ]


def _evaluate_terms(terms, derivs):
    """terms on derivs[order][vi]: a zeros start, then each term added."""
    total = np.zeros(len(derivs[0][0]))
    for value, factors in terms:
        term = value
        for vi, order, exp in factors:
            d = derivs[order][vi]
            term *= d**exp if exp > 1 else d
        total += term
    return total


def _per_variable_rhs(flow, params, config):
    """compile_flow's RHS with one stencil call per (variable, order) pair,
    the row padded beside zeros, and the terms read off specialize: the
    route its single call and slot lists must equal.  (The roll formula is
    no oracle here: np.correlate sums a kernel of 13 or more taps, as an
    order-7 flow needs under central6, in another order.)"""
    bindings = config.bindings() | {name: Fraction(value) for name, value in params.items()}
    terms = [_reference_terms(p, bindings, flow.variables) for p in (flow.p1, flow.p2)]
    needed = {(vi, m) for t in terms for _, factors in t for vi, m, _ in factors if m}

    def rhs(state):
        derivs = {0: state}
        for vi, m in needed:
            plan = stencil_plan([m], config.grid_points, config.dx, config.accuracy)
            alone = np.stack([state[vi], np.zeros(config.grid_points)])
            derivs.setdefault(m, [None, None])[vi] = spatial_derivative(alone, plan)[0][0]
        return _evaluate_terms(terms[0], derivs), _evaluate_terms(terms[1], derivs)

    return rhs


def test_one_stencil_call_per_rhs_equals_the_per_variable_route():
    flows = [entry.flow for entry in generate(3)] + [
        parse_flow("k1''''' + k2*k1', k2'*k1"),  # k1 needs orders 1 and 5, k2 only 1
        parse_flow("k2'''*k1'', k1^2"),
        parse_flow("k1*k2, k2"),  # no derivative, so no stencil call
        parse_flow("k1''' - k2, -k2'''"),  # coefficients of exactly +1 and -1
        parse_flow("k1*k2' + 3, k2'' - 2"),  # constant terms
        parse_flow("k1'^2*k2, k2'^3*k1 - k1''^2"),  # factors with exponents above 1
        parse_flow("-k1*k2, -k2*k1' + k1"),  # -0.0 at every node when k2 = 0 and k1 > 0
        PAIRED,
    ]
    rng = np.random.default_rng(11)
    states = [rng.standard_normal((2, 64)), np.stack([1.0 + rng.random(64), np.zeros(64)])]
    for stencil in ("central4", "central6"):
        config = SimConfig(domain_length=7.0, grid_points=64, a=1.3, eps1=-1,
                           derivative_stencil=stencil)
        for flow in flows:
            names = sorted((flow.p1.parameters() | flow.p2.parameters()) - {"a", "eps1", "eps2"})
            params = {name: 0.5 + 0.25 * i for i, name in enumerate(names)}
            for state in states:
                got = compile_flow(flow, params, config)(state)
                expected = _per_variable_rhs(flow, params, config)(state)
                for g, e in zip(got, expected):
                    assert np.array_equal(g, e)
                    assert np.array_equal(np.signbit(g), np.signbit(e))


def test_rhs_is_bit_identical_on_any_memory_layout():
    # A Fortran-ordered copy and a strided view (its skipped columns NaN)
    # hold the same values as the C-ordered state, so the one take that
    # pads them must give the same slope, sign bits included.
    rng = np.random.default_rng(5)
    n = 64
    states = [rng.standard_normal((2, n)), np.stack([1.0 + rng.random(n), np.zeros(n)])]
    flows = [(seed(1).flow, {"c": 0.7}), (parse_flow("-k1*k2, -k2*k1' + k1"), {}),
             (parse_flow("k1*k2 - k2, k1^2 - 3"), {}), (PAIRED, {})]
    for stencil in ("central4", "central6"):
        config = SimConfig(domain_length=7.0, grid_points=n, derivative_stencil=stencil)
        plan = stencil_plan([1, 3], n, config.dx, config.accuracy)
        for state in states:
            big = np.full((2, 2 * n), np.nan)
            big[:, ::2] = state
            layouts = [np.asfortranarray(state), big[:, ::2]]
            assert not any(layout.flags.c_contiguous for layout in layouts)
            for layout in layouts:
                derivs, expected = spatial_derivative(layout, plan), spatial_derivative(state, plan)
                assert len(derivs) == len(expected) == 2  # both rows of orders 1 and 3
                assert all(np.array_equal(g, e) for g, e in zip(derivs, expected))
                for flow, params in flows:
                    rhs = compile_flow(flow, params, config)
                    got, expected = rhs(layout), rhs(state)
                    assert got.shape == (2, n) and got.flags.c_contiguous
                    assert np.array_equal(got, expected)
                    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_aligned_terms_compile_to_operations_on_both_rows(monkeypatch):
    # (operations, of which on both rows) per flow: a fallback to one
    # operation per term would give as many operations as terms.
    aligned = []
    align = numsim._align

    def recorded(program0, program1):
        ops = align(program0, program1)
        aligned.append((len(ops), sum(target is None for _, target, _ in ops)))
        return ops

    monkeypatch.setattr(numsim, "_align", recorded)
    config = SimConfig(domain_length=7.0, grid_points=64)
    for flow, params, expected in ((seed(1).flow, {"c": 1.0}, (3, 2)), (TRANSLATION, {"b": 0.5}, (1, 1)),
                                   (FIFTH_ORDER, {}, (2, 2)), (PAIRED, {}, (4, 2))):
        aligned.clear()
        compile_flow(flow, params, config)
        assert aligned == [expected]


def test_rhs_makes_one_stencil_call_or_none(monkeypatch):
    calls = []
    engine = numsim.spatial_derivative

    def counted(rows, plan):
        calls.append([m for m, *_ in plan.passes])
        return engine(rows, plan)

    monkeypatch.setattr(numsim, "spatial_derivative", counted)
    config = SimConfig(domain_length=7.0, grid_points=64)
    state = np.ones((2, 64))
    compile_flow(seed(1).flow, {"c": 1.0}, config)(state)
    assert calls == [[1, 3]]
    compile_flow(parse_flow("k1*k2, k2"), {}, config)(state)
    assert calls == [[1, 3]]


def test_compiled_poly_equals_the_full_array_route(monkeypatch):
    # The stencil hands back unrelated random rows, so each factor must read
    # its own slot; the route builds every term from a full array of its
    # coefficient and takes every power, exponent 1 included.
    rng = np.random.default_rng(3)
    n = 64
    derivs = {o: rng.standard_normal((2, n)) for o in range(4)}
    calls = []

    def stencil(rows, plan):
        calls.append([m for m, *_ in plan.passes])
        return [derivs[m] for m in calls[-1]]

    monkeypatch.setattr(numsim, "spatial_derivative", stencil)
    config = SimConfig(domain_length=2 * np.pi, grid_points=n, a=1.3, eps1=-1)
    bindings = config.bindings() | {"c": Fraction(0.7)}
    extra = parse_flow("k1^2*k2' - 3*k2''^2*k1 + 2, k1''' + 5")
    for flow, params, orders in ((seed(1).flow, {"c": 0.7}, [1, 3]), (extra, {}, [1, 2, 3])):
        calls.clear()
        got = compile_flow(flow, params, config)(derivs[0])
        assert calls == [orders]
        for poly, component in zip((flow.p1, flow.p2), got):
            expected = np.zeros(n)
            for value, factors in _reference_terms(poly, bindings, flow.variables):
                term = np.full(n, value)
                for vi, order, exp in factors:
                    term *= derivs[order][vi] ** exp
                expected += term
            assert np.array_equal(component, expected)


def test_rk4_steps_equal_the_textbook_loop():
    # Near the zeros of the profiles the increment carries the bits of the
    # stage sum, so a reordered sum shows up there.
    config = SimConfig(
        domain_length=2 * np.pi, grid_points=64, dt=5e-5, t_end=2.5e-4, eps1=-1,
        output_stride=1,
    )
    state = uniform_grid(config, lambda s: 0.4 * np.sin(s), lambda s: 0.3 * np.cos(2 * s))
    rhs = compile_flow(seed(1).flow, {"c": 0.7}, config)
    times, states = evolve(state, rhs, config)
    dt = config.t_end / 5
    k1, k2 = state.copy()
    assert len(states) == 6
    for saved in states[1:]:
        a1, b1 = rhs(np.array([k1, k2]))
        a2, b2 = rhs(np.array([k1 + 0.5 * dt * a1, k2 + 0.5 * dt * b1]))
        a3, b3 = rhs(np.array([k1 + 0.5 * dt * a2, k2 + 0.5 * dt * b2]))
        a4, b4 = rhs(np.array([k1 + dt * a3, k2 + dt * b3]))
        k1 = k1 + (dt / 6) * (a1 + 2 * a2 + 2 * a3 + a4)
        k2 = k2 + (dt / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
        assert np.array_equal(saved[0], k1)
        assert np.array_equal(saved[1], k2)


def test_evolve_refuses_more_than_max_steps():
    calls = []

    def rhs(state):
        calls.append(1)
        return state

    for dt in (1e-300, 5e-324, 1.0 / (MAX_STEPS + 1)):
        config = SimConfig(domain_length=2 * np.pi, grid_points=16, dt=dt, t_end=1.0)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            evolve(uniform_grid(config, np.sin), rhs, config)
    assert not calls


def test_evolve_refuses_more_than_max_saved_samples():
    # 16 points and stride 1: steps + 1 saved states of 16 samples each.
    # At the budget the run passes the check and reaches rhs; one saved
    # state more is refused before rhs is ever called.
    class Reached(Exception):
        pass

    def rhs(state):
        raise Reached

    dt = 2.0**-10
    states = MAX_SAVED_SAMPLES // 16
    for extra, error in ((0, Reached), (1, ValueError)):
        steps = states - 1 + extra
        config = SimConfig(domain_length=2 * np.pi, grid_points=16, dt=dt,
                           t_end=steps * dt, output_stride=1)
        with pytest.raises(error, match="MAX_SAVED_SAMPLES" if extra else None):
            evolve(uniform_grid(config, np.sin), rhs, config)


def _soliton_config():
    # dt = 1e-3 sits below the stability bound 0.1 * (60 / 128)^3.
    return SimConfig(domain_length=60.0, grid_points=128, dt=1e-3, t_end=0.05, output_stride=1)


def test_run_drifts_equal_the_reconstruction_of_each_saved_state():
    config = _soliton_config()
    times, states, path, report = nlie_run(config, _soliton(0.5, center=30.0))
    expected = [reconstruct_curve(state, config) for state in states]
    assert report["gram_drift"] == [p.gram_drift() for p in expected]
    assert report["null_drift"] == [p.null_drift() for p in expected]
    assert report["accel_drift"] == [p.drifts()[2] for p in expected]
    assert np.array_equal(path.gamma, expected[-1].gamma)
    assert np.array_equal(path.w2, expected[-1].w2)

    times, states, path, report = run_flow(config, TRANSLATION, {"b": 1.0}, np.sin, np.cos,
                                           reconstruct=True)
    assert len(report["gram_drift"]) == len(report["times"]) == len(states) == 51
    assert report["null_drift"][-1] == reconstruct_curve(states[-1], config).null_drift()
    times, states, path, report = run_flow(config, TRANSLATION, {"b": 1.0}, np.sin)
    assert path is None and "gram_drift" not in report


def test_nlie_run_memory_is_bounded_by_the_saved_history():
    # Each reconstructed frame is reduced to its drifts at once, so the
    # peak stays near the saved states' own bytes (3.5x here).  A
    # FramePath alone holds 10x a state's bytes, so keeping every one
    # breaks 5x.
    config = _soliton_config()
    tracemalloc.start()
    try:
        _, states, _, _ = nlie_run(config, _soliton(0.5, center=30.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == 51
    assert peak < 5 * states.nbytes


def test_evolve_memory_is_the_saved_block():
    # The saved run is one (S, 2, n) block, allocated once: no object per
    # state, so even at 16 points the peak stays near the block's bytes.
    config = SimConfig(domain_length=2 * np.pi, grid_points=16, dt=2.0**-10,
                       t_end=10_000 * 2.0**-10, output_stride=1)
    state = uniform_grid(config, np.sin, np.cos)
    tracemalloc.start()
    try:
        times, states = evolve(state, lambda state: (state[1], -state[0]), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.shape == (10_001, 2, 16)
    assert peak < 1.5 * states.nbytes
