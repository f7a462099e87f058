"""The four benchmark workloads: seeded inputs, one measured pass, and gates.

Every call into nullflow goes through a module attribute looked up at call
time (numsim.reconstruct_curve, not a name imported from it), so the tracer's
patches apply to the benchmark's calls as well as to the library's own.

Inputs have a fixed shape: the seed picks coefficients, never which terms
exist, so every seed asks for the same amount of work and run-to-run spread
measures the machine, not the draw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from nullflow import cli, diffalg, hierarchy, nullcurve, numsim, operators
from nullflow.diffalg import const, gen, param, total_derivative, zero

# Acceptance bounds the gates reuse: 8b for the soliton, 8d for frame drift.
SOLITON_LINF = 1e-4
SOLITON_MASS_DRIFT = 1e-10
FRAME_DRIFT = 1e-8


class Ctx:
    """Times operations and counts the gates of one run.

    `probe_spent` returns the seconds the host-speed probe has taken so far;
    an operation's time excludes the probes that ran inside it.
    """

    def __init__(self, probe_spent: Callable[[], float] = lambda: 0.0):
        self.ops: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe_spent = probe_spent

    def op(self, name: str, fn: Callable, *args, **kwargs):
        """Run one operation of the program and record its wall time.

        An operation that raises is timed too, so a failed pass still has
        a time to report.
        """
        probed = self.probe_spent()
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.ops.append((name, elapsed - (self.probe_spent() - probed)))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append("%s: %s" % (name, detail) if detail else name)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable  # (seed, tiny) -> inputs
    run_pass: Callable  # (inputs, ctx, workdir) -> None


# -- soliton_evolve ------------------------------------------------------------

def soliton_inputs(seed: int, tiny: bool) -> dict:
    # The CLI centres the soliton in the domain, so the seed moves the centre
    # by picking the domain length.
    rng = random.Random(seed)
    return {
        "n": 128 if tiny else 512,
        "dt": 1.25e-4,
        "t_end": 0.02 if tiny else 0.3,
        "length": round(rng.uniform(56.0, 64.0), 6),
        "amplitude": 0.5,
    }


def soliton_exact(sigma: np.ndarray, inp: dict, t: float) -> np.ndarray:
    """The nlie soliton (a = c = 1) translated to time t."""
    amp = inp["amplitude"]
    width = math.sqrt(amp) / 2.0
    centre = inp["length"] / 2 - amp * t
    return amp / np.cosh(width * (sigma - centre)) ** 2


def final_column(path: str) -> tuple[np.ndarray, np.ndarray]:
    """sigma and the last saved state from a curvature CSV the CLI wrote."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    table = np.array(rows, dtype=float)
    return table[:, 0], table[:, -1]


def soliton_pass(inp: dict, ctx: Ctx, workdir: str) -> None:
    out = os.path.join(workdir, "soliton")
    argv = [
        "simulate", "--flow", "nlie", "--n", str(inp["n"]), "--dt", repr(inp["dt"]),
        "--t-end", repr(inp["t_end"]), "--length", repr(inp["length"]),
        "--amplitude", repr(inp["amplitude"]), "--out", out,
    ]
    code = ctx.op("simulate", cli.main, argv)
    ctx.check("soliton.exit_code", code == 0, "exit code %r" % (code,))

    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    final_time = report["times"][-1]
    ctx.check("soliton.t_end", math.isclose(final_time, inp["t_end"], rel_tol=1e-9),
              "final time %r" % (final_time,))
    sigma, k1 = final_column(os.path.join(out, "k1.csv"))
    linf = float(np.abs(k1 - soliton_exact(sigma, inp, inp["t_end"])).max())
    ctx.check("soliton.linf", linf < SOLITON_LINF, "L-inf error %.3g" % linf)
    mass = report["mass_k1"]
    drift = abs(mass[-1] - mass[0])
    ctx.check("soliton.mass_drift", drift < SOLITON_MASS_DRIFT, "k1 mass drift %.3g" % drift)


# -- frame_reconstruct ---------------------------------------------------------

SIGNATURES = ((1, 1), (1, -1), (-1, 1))


def frame_inputs(seed: int, tiny: bool) -> list:
    """Smooth low-mode (k1, k2) profiles on [0, 2 pi), cycling the signatures."""
    rng = random.Random(seed)
    n = 64 if tiny else 512
    out = []
    for i in range(3 if tiny else 16):
        eps1, eps2 = SIGNATURES[i % 3]
        config = numsim.SimConfig(domain_length=2 * math.pi, grid_points=n, eps1=eps1, eps2=eps2)
        sigma = np.arange(n) * config.dx

        def profile(base: float) -> np.ndarray:
            values = np.full(n, base)
            for m in (1, 2, 3):
                values += rng.uniform(-0.1, 0.1) / m * np.cos(m * sigma)
                values += rng.uniform(-0.1, 0.1) / m * np.sin(m * sigma)
            return values

        grid = numsim.uniform_grid(config, profile(rng.uniform(0.3, 0.5)),
                                   profile(rng.uniform(0.2, 0.4)))
        out.append((config, grid))
    return out


def reconstruct_and_write(grid, config, path: str):
    frame_path = numsim.reconstruct_curve(grid, config)
    numsim.write_path_csv(path, frame_path)
    return frame_path


def frame_pass(inp: list, ctx: Ctx, workdir: str) -> None:
    for i, (config, grid) in enumerate(inp):
        path = os.path.join(workdir, "path_%02d.csv" % i)
        frame_path = ctx.op("curve", reconstruct_and_write, grid, config, path)
        gram, null = frame_path.gram_drift(), frame_path.null_drift()
        ctx.check("curve%d.gram_drift" % i, gram < FRAME_DRIFT, "%.3g" % gram)
        ctx.check("curve%d.null_drift" % i, null < FRAME_DRIFT, "%.3g" % null)
        with open(path) as fh:
            rows = sum(1 for _ in fh)
        ctx.check("curve%d.csv_rows" % i, rows == len(frame_path.sigma) + 1, "%d rows" % rows)


# -- hierarchy -----------------------------------------------------------------

K1, K2 = gen("k1"), gen("k2")


def tangential_data(rng: random.Random, trial: int):
    """(h, l) with h and k1*h - k2*l exact: every admissible piece, seeded weights.

    A copy of the acceptance suite's criterion-5 generator with the random
    choice of pieces replaced by all of them, so each draw has one shape.
    """
    def weight():
        return const(rng.choice([1, -1, 2, Fraction(1, 2)]))

    def nonzero():
        return rng.choice([-2, -1, 1, 2])

    h = weight() * sum((nonzero() * K1**d for d in range(3)), zero()) * gen("k1", 1)
    l = weight() * sum((nonzero() * K2**d for d in range(3)), zero()) * gen("k2", 1)
    w = weight()
    h = h + w * K2 * gen("k2", 1)
    l = l + w * K1 * gen("k2", 1)
    h = h + weight() * gen("k1", 1 + 2 * (trial % 2))
    l = l + weight() * gen("k2", 3 - 2 * (trial % 2))
    return h, l


def canonical_sha256(polys) -> str:
    text = "\n".join(str(p) for p in polys)
    return hashlib.sha256(text.encode()).hexdigest()


def entry_components(entries):
    for entry in entries:
        yield from entry.field.components()
        yield entry.flow.p1
        yield entry.flow.p2


def hierarchy_inputs(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    trials = 2 if tiny else 25
    with open(os.path.join(os.path.dirname(__file__), "expected.json")) as fh:
        expected = json.load(fh)
    size = "tiny" if tiny else "full"
    return {
        "upto": 3 if tiny else 6,
        "bracket_sum": 4 if tiny else 7,
        "sigmas": range(2, 4) if tiny else range(2, 8),
        "tangential": [tangential_data(rng, t) for t in range(trials)],
        "expected": expected["hierarchy"][size],
    }


def hierarchy_pass(inp: dict, ctx: Ctx, workdir: str) -> None:
    expected = inp["expected"]
    entries = ctx.op("generate", hierarchy.generate, inp["upto"])
    digest = canonical_sha256(entry_components(entries))
    ctx.check("hierarchy.generate_sha256", digest == expected["generate_sha256"], digest)

    report = ctx.op("verify_reference_forms", hierarchy.verify_reference_forms, entries)
    ctx.check("hierarchy.reference_forms", report["ok"],
              str([c for c in report["checks"] if not c["ok"]])[:200])

    for i, left in enumerate(entries):
        for right in entries[i + 1:]:
            if left.index + right.index > inp["bracket_sum"]:
                continue
            ok = ctx.op("commute", hierarchy.commute_check, left, right)
            ctx.check("hierarchy.commute[%d,%d]" % (left.index, right.index), ok is True)

    sigmas = [ctx.op("hs_classic_sigma", operators.hs_classic_sigma, n) for n in inp["sigmas"]]
    digest = canonical_sha256(p for s in sigmas for p in s.components())
    ctx.check("hierarchy.hs_sha256", digest == expected["hs_sha256"], digest)

    eps12 = param("eps1") * param("eps2")
    constants = (param("c1"), param("c2"))
    for t, (h, l) in enumerate(inp["tangential"]):
        via_projections = ctx.op(
            "recursion_factored",
            lambda: operators.b_matrix_apply(operators.a_matrix_apply(h, l, constants)))
        via_recursion = ctx.op(
            "recursion_direct",
            operators.recursion_curvature, (2 * h, -eps12 * l), constants)
        ctx.check("hierarchy.recursion_routes[%d]" % t, via_projections == via_recursion)


# -- field_brackets ------------------------------------------------------------

EPS1 = param("eps1")


def star_field(rng: random.Random):
    """A criterion-4 X*_P field (g' = -eps1 a h) with every coefficient nonzero."""
    def pick():
        return rng.choice([-1, 1])

    g = K1 + pick() * K2 + const(pick())
    h = -EPS1 * param("a", -1) * total_derivative(g)
    f = const(pick()) + pick() * K1
    l = pick() * K2
    return nullcurve.LocalVectorField(f, h, g, l)


def arc_field(rng: random.Random):
    """A criterion-3 T_PLambda field from make_X with every coefficient nonzero."""
    def pick():
        return rng.choice([-2, -1, 1, 2])

    alpha, beta, delta = pick(), pick(), pick()
    h = alpha * gen("k1", 1) + beta * gen("k2", 1)
    l = -beta * gen("k1", 1) + delta * gen("k2", 1)
    return nullcurve.make_X(h, l, rng.choice([-1, 1]), rng.choice([-1, 1]))


SCALES = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), -2, 3, Fraction(-5, 4)]


def field_inputs(seed: int, tiny: bool) -> list:
    """Fixed field shapes from the criterion-3/4 generators, scaled by the seed.

    Every identity checked here is multilinear in the fields, so scaling each
    field by a seeded nonzero rational changes every intermediate polynomial
    by a constant factor only: each seed does exactly the same symbolic work,
    where a seed choosing the shapes made the pass cost vary by about 7 %.
    """
    shapes = random.Random(0)
    rng = random.Random(seed)

    def scaled(field):
        return field.scale(const(rng.choice(SCALES)))

    trials = []
    for _ in range(1 if tiny else 2):
        v1, v2, v3 = (scaled(star_field(shapes)) for _ in range(3))
        u = scaled(nullcurve.LocalVectorField(
            shapes.choice([-1, 1]) * K1, shapes.choice([-1, 1]) * K2,
            const(shapes.choice([-1, 1])), shapes.choice([-1, 1]) * gen("k1", 1)))
        trials.append((v1, v2, v3, u, scaled(arc_field(shapes)), scaled(arc_field(shapes))))
    return trials


def field_pass(inp: list, ctx: Ctx, workdir: str) -> None:
    metric = nullcurve.FrameMetric()
    bracket = nullcurve.gamma_bracket
    for t, (v1, v2, v3, u, x1, x2) in enumerate(inp):
        swapped = ctx.op("antisymmetry", lambda: bracket(v1, v2, metric) + bracket(v2, v1, metric))
        ctx.check("fields.antisymmetry[%d]" % t, swapped.is_zero())

        residual = ctx.op("curvature_identity", nullcurve.curvature_identity_residual,
                          v1, v2, u, metric)
        ctx.check("fields.curvature_identity[%d]" % t, residual.is_zero())

        def jacobi():
            total = bracket(bracket(v1, v2, metric), v3, metric)
            total = total + bracket(bracket(v2, v3, metric), v1, metric)
            return total + bracket(bracket(v3, v1, metric), v2, metric)

        ctx.check("fields.jacobi[%d]" % t, ctx.op("jacobi", jacobi).is_zero())

        def flows():
            left = nullcurve.variational_flow(bracket(x1, x2, metric), metric)
            right = diffalg.lie_bracket_flows(
                nullcurve.variational_flow(x1, metric), nullcurve.variational_flow(x2, metric))
            return left, right

        left, right = ctx.op("bracket_flow", flows)
        ctx.check("fields.bracket_flow[%d]" % t, left == right)


WORKLOADS = {
    "soliton_evolve": Workload(soliton_inputs, soliton_pass),
    "frame_reconstruct": Workload(frame_inputs, frame_pass),
    # run.py sets NULLFLOW_MAX_ORDER=24 for this one: generate(6) needs it.
    "hierarchy": Workload(hierarchy_inputs, hierarchy_pass),
    "field_brackets": Workload(field_inputs, field_pass),
}
