"""Grid evolution of curvature flows and null-curve reconstruction.

A curvature state is one float (2, n) array, k1 in row 0 and k2 in row
1, at the periodic grid's nodes np.arange(n) * dx; a saved run is times
(S,) and states (S, 2, n), allocated once.  A flow is compiled by
binding a, the signs and its named constants exactly through
diffalg.specialize (a float enters as the Fraction it equals), so each
coefficient is rounded to a float once; one that rounds to 0 or inf is
refused.  Centered finite-difference weights are read off the Lagrange
basis exactly (central4 or central6, a config field).  One stencil
engine serves every derivative of a right-hand side.  compile_flow
specializes both components once, prepares its stencil plan and pairs a
term of each component whose factors read the same (2, n) blocks, the
state or one derivative, with the same exponents.  The compiled RHS maps
the (2, n) state to a new (2, n) slope: one take pads both rows into a
flat buffer, each order's np.correlate over it reshapes to a (2, n)
view, and each view and power the terms read is made once.  A pair is
one product with a (2, 1) coefficient column, added into the whole zero
output; a lone term is added into its row.  Nothing that does not depend
on the curvature values is redone per right-hand side.  One classical
RK4 step kernel, which sums its stages in place, serves both the
fixed-step curvature evolution and the frame propagators.
The stability bound STABILITY_C * dx^3 of third-order flows, used for
every flow whatever its order, must be a positive float, and dt = 0
asks for exactly it; the run report records it beside the run's steps,
RHS evaluations and the dt used, all read off the one schedule evolve
follows.  SimConfig takes counts and signs only as exact ints.  A grid
of more than MAX_GRID_POINTS points, a run of more than MAX_STEPS steps
and one saving more than MAX_SAVED_SAMPLES samples are refused, and so
is an initial state above BLOWUP_LIMIT, before the first step; a step
that leaves the finite range or BLOWUP_LIMIT stops the run with BlowUp.
Every run goes through run_flow: it compiles and evolves a flow and,
when asked, reconstructs each saved state and reduces it at once to its
drifts, keeping only the last frame.

Reconstruction integrates the linear frame equations Y' = A(sigma) Y,

    gamma' = T,   T' = a W1,   W1' = -k1 T + a eps1 N,
    N' = -eps1 k1 W1 + eps2 k2 W2,   W2' = k2 T,

with curvatures sampled between nodes by 6-point Lagrange interpolation.
RK4 substeps, run on a batch of 5x5 identity matrices (one per node),
turn them into the per-node propagators.  A doubling prefix scan chains
them in ceil(log2 n) batched products, which are applied to the
standard initial frame of the signature.  Frames are never projected
back onto the pairing table (<T,T> = <N,N> = 0, <T,N> = -1,
<Wi,Wi> = eps_i).  One 4x4 matrix per node of the eta-pairings of
(T, W1, N, W2) yields all three reported drifts: the worst deviation
from that table, |<T,T>| and the deviation of <gamma'', gamma''> from
eps1 a^2.  A run report holding a series that is not finite is refused.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from operator import getitem
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diffalg import DiffPoly, FlowPair, gen, one, specialize, _fields


class UnboundParameter(ValueError):
    """A flow mentions a named constant the bindings do not cover."""

    def __init__(self, name: str):
        super().__init__("parameter %r has no numeric value" % (name,))
        self.name = name


class BlowUp(RuntimeError):
    """The evolution left the finite range; carries the (2, n) state of step - 1."""

    def __init__(self, time: float, step: int, last_good: np.ndarray):
        super().__init__("solution blew up at t=%.6g (step %d)" % (time, step))
        self.time = time
        self.step = step
        self.last_good = last_good


_STENCIL_ACCURACY = {"central4": 4, "central6": 6}

# evolve refuses a run that needs more RK4 steps than MAX_STEPS or saves
# more than MAX_SAVED_SAMPLES grid samples (a 64 MiB states block); at the
# cap simulate peaked at 127 MB RSS (8001 x 512, nlie) and 200 MB (262144
# x 16, translation).  It stops with BlowUp once any curvature sample
# exceeds BLOWUP_LIMIT in magnitude.  The recorded stability bound is
# STABILITY_C * dx^3.  SimConfig refuses more than MAX_GRID_POINTS points
# (reconstruct_curve peaked at 80.7 MB traced there, 7.3x its FramePath).
MAX_STEPS = 10**7
MAX_SAVED_SAMPLES = 2**22
MAX_GRID_POINTS = 2**16
BLOWUP_LIMIT = 1e8
STABILITY_C = 0.1
SUBSTEPS = 4  # RK4 substeps per grid cell in reconstruct_curve


@dataclass(frozen=True)
class SimConfig:
    """Domain, signature, and discretization choices for one run.

    dt = 0 means "use the recorded stability bound"; output_stride = 0
    keeps only the initial and final states.
    """

    domain_length: float
    grid_points: int = 512
    dt: float = 0.0
    t_end: float = 0.0
    a: float = 1.0
    eps1: int = 1
    eps2: int = 1
    derivative_stencil: str = "central4"
    output_stride: int = 0

    def __post_init__(self):
        for name in ("grid_points", "eps1", "eps2", "output_stride"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError("%s must be an int, got %r" % (name, value))
        for name in ("domain_length", "dt", "t_end", "a"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ValueError("%s must be an int or a float, got %r" % (name, value))
            if not abs(value) <= sys.float_info.max:  # NaN, inf and ints past the float range fail this
                raise ValueError("%s must be finite" % (name,))
        if self.domain_length <= 0:
            raise ValueError("domain_length must be positive")
        if not 16 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError("grid_points must lie in 16 .. MAX_GRID_POINTS = %d" % MAX_GRID_POINTS)
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise ValueError("eps1 and eps2 must be +1 or -1")
        if (self.eps1, self.eps2) == (-1, -1):
            raise ValueError("signature (-1, -1) admits no null frame here")
        if self.derivative_stencil not in _STENCIL_ACCURACY:
            raise ValueError("derivative_stencil must be central4 or central6")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.dt < 0 or self.t_end < 0:
            raise ValueError("dt and t_end must be nonnegative")
        if self.output_stride < 0:
            raise ValueError("output_stride must be nonnegative")
        try:
            bound = self.stability_bound()
        except OverflowError:
            bound = math.inf
        if not 0 < bound < math.inf:
            raise ValueError(
                "domain_length / grid_points = %g puts the stability bound out of range" % self.dx
            )

    @property
    def dx(self) -> float:
        return self.domain_length / self.grid_points

    @property
    def accuracy(self) -> int:
        return _STENCIL_ACCURACY[self.derivative_stencil]

    def stability_bound(self) -> float:
        """Largest dt the third-order stiffness scale admits."""
        return STABILITY_C * self.dx**3

    def bindings(self) -> dict:
        return {"a": Fraction(self.a), "eps1": self.eps1, "eps2": self.eps2}


def uniform_grid(config: SimConfig, k1, k2=None) -> np.ndarray:
    """Sample callables (or broadcastable values) on the periodic grid.

    Returns the (2, n) state: row 0 is k1, row 1 is k2, at the nodes
    np.arange(n) * config.dx.  Raises ValueError when a sample is NaN or
    infinite.
    """
    sigma = np.arange(config.grid_points) * config.dx
    state = np.empty((2, config.grid_points))
    for row, name, profile in ((0, "k1", k1), (1, "k2", 0.0 if k2 is None else k2)):
        state[row] = np.asarray(profile(sigma) if callable(profile) else profile, dtype=float)
        if not np.isfinite(state[row]).all():
            raise ValueError("initial %s profile holds non-finite values" % (name,))
    return state


def _check_state(state: np.ndarray, n: int) -> None:
    if not isinstance(state, np.ndarray) or state.dtype.kind not in "fiu":
        raise ValueError("a curvature state must be a numpy array of real numbers, got %s"
                         % getattr(state, "dtype", type(state).__name__))
    if state.shape != (2, n):
        raise ValueError("a curvature state has shape %s, got %s" % ((2, n), state.shape))


# -- finite differences ----------------------------------------------------

@cache
def fd_weights(m: int, accuracy: int) -> tuple[list[int], list[Fraction]]:
    """Centered stencil offsets and exact weights for d^m/dx^m.

    Weight j is m! times the x^m coefficient of the Lagrange basis
    polynomial of offset j (Fornberg, Math. Comp. 51, 1988).
    """
    if m < 1:
        raise ValueError("derivative order must be >= 1")
    if not (isinstance(accuracy, int) and accuracy > 0 and accuracy % 2 == 0):
        raise ValueError("accuracy must be a positive even int, got %r" % (accuracy,))
    npts = 2 * ((m + 1) // 2) - 1 + accuracy
    r = npts // 2
    offsets = list(range(-r, r + 1))
    weights = []
    for j in offsets:
        basis = [Fraction(1)]  # coefficients in ascending powers of x
        for i in offsets:
            if i != j:  # times (x - i) / (j - i)
                basis = [(lo - i * hi) / (j - i) for lo, hi in zip([0] + basis, basis + [0])]
        weights.append(math.factorial(m) * basis[m])
    return offsets, weights


class StencilPlan(NamedTuple):
    """spatial_derivative's bookkeeping for a (2, n) state, fixed once.

    wrap indexes the flat state: each row padded by r wrap-around points a
    side, row 0 then row 1, and row 1 by 2r more; passes holds, per order m
    in spatial_derivative's order, (m, float weights, dx**m, the slice of
    the correlation that reshapes to (2, n + 2r), the first n columns).
    """

    n: int
    wrap: np.ndarray
    passes: tuple


def stencil_plan(orders: Sequence[int], n: int, dx: float, accuracy: int = 4) -> StencilPlan:
    """Plan the periodic derivatives of the given orders m >= 1 for spatial_derivative.

    The weights are fd_weights' in offset order, zero taps included, as
    floats.  r is the widest stencil's half-width.  Row i's derivative of
    order m, a 2h + 1 point stencil, is the view at r - h + i (n + 2r) of
    that order's correlation with the padded buffer state.take(wrap), one
    reshape away.  A stencil wider than the grid, or no order, raises ValueError.
    """
    if not orders:
        raise ValueError("a stencil plan needs at least one derivative order")
    weights = {m: np.array([float(w) for w in fd_weights(m, accuracy)[1]]) for m in orders}
    r = max(len(w) // 2 for w in weights.values())
    if 2 * r + 1 > n:
        raise ValueError("stencil wider than the grid")
    width, columns = n + 2 * r, np.s_[:, :n]
    passes = tuple((m, w, dx**m, slice(r - len(w) // 2, r - len(w) // 2 + 2 * width), columns)
                   for m, w in weights.items())
    wrap = np.concatenate([np.arange(-r, n + r) % n, np.arange(-r, n + 3 * r) % n + n])
    return StencilPlan(n, wrap, passes)


def spatial_derivative(state: np.ndarray, plan: StencilPlan) -> list[np.ndarray]:
    """Periodic derivatives [d^m state / dx^m per order m, in plan order], each a (2, n) view.

    One take pads both rows of the (2, n) state into one flat buffer, and
    each order's np.correlate over it reshapes to both rows.  An output is
    the dot product of the same samples whatever the buffer holds around
    them, so each row's derivative is bit-for-bit that of the row padded
    alone, whatever the memory layout.  _check_state's ValueError comes first.
    """
    _check_state(state, plan.n)
    flat = state.take(plan.wrap)
    out = []
    for _, weights, scale, rows, columns in plan.passes:
        full = np.correlate(flat, weights, "valid")
        full /= scale
        out.append(full[rows].reshape(2, -1)[columns])
    return out


# -- compiling flows to grid functions --------------------------------------

def _program(poly: DiffPoly, slot: dict) -> list:
    """The specialized poly as (float coefficient, [slot + (exponent,) per factor]) per term.

    A parameter left in poly raises UnboundParameter, and a coefficient
    that rounds to 0 or inf a ValueError naming its term.
    """
    program = []
    for gens, q, powers, eps1, eps2 in poly.terms():
        if powers or eps1 or eps2:
            raise UnboundParameter(powers[0][0] if powers else "eps1" if eps1 else "eps2")
        try:
            value = float(q)
        except OverflowError:
            value = math.inf
        if not value or math.isinf(value):
            term = math.prod((gen(v, m) ** e for (v, m), e in gens), start=one())
            fault = "overflows" if value else "underflows"
            raise ValueError("coefficient of %s %s a float" % (term, fault))
        program.append((value, [slot[field] + (exp,) for field, exp in gens]))
    return program


def _align(program0: list, program1: list) -> list:
    """Both rows' _program terms as (coefficient, target key, [(block, key, exponent)]).

    A row-0 term pairs with the first row-1 term left that reads the same
    blocks with the same exponents, into a (2, 1) coefficient column; key
    None is a whole block or the whole output, a slice swaps the rows.
    Skipped row-1 terms go first, so each row keeps its order.
    """
    ops, j = [], 0
    for v0, f0 in program0:
        for k, (v1, f1) in enumerate(program1[j:], j):
            pair = [(b0, r0 if r0 == r1 else None if r0 < r1 else slice(None, None, -1), e0)
                    for (b0, r0, e0), (b1, r1, e1) in zip(f0, f1) if (b0, e0) == (b1, e1)]
            if len(pair) == len(f0) == len(f1):
                ops += [(v, 1, f) for v, f in program1[j:k]] + [(np.array([[v0], [v1]]), None, pair)]
                j = k + 1
                break
        else:
            ops.append((v0, 0, f0))
    return ops + [(v, 1, f) for v, f in program1[j:]]


def compile_flow(flow: FlowPair, params: dict, config: SimConfig) -> Callable:
    """Bind parameters and return rhs(state), the new (2, n) slope of a (2, n) state.

    a, eps1, eps2 come from the config; params supplies the rest as finite
    ints or floats, may not rebind those three to different values, and
    may name no parameter the flow lacks.  A factor reads row v of the
    block of its order, the state or one (2, n) derivative per order the
    flow needs; _align pairs the two components' terms.  The stencil plan
    is made here, so a stencil wider than the grid raises ValueError before
    any rhs call; rhs refuses a state spatial_derivative refuses.
    """
    bindings = config.bindings()
    unused = set(params) - set(bindings) - flow.p1.parameters() - flow.p2.parameters()
    if unused:
        raise ValueError("unused parameter bindings: %s" % ", ".join(sorted(unused)))
    for name, value in params.items():
        if type(value) not in (int, float):
            raise ValueError("parameter %s must be an int or a float, got %r" % (name, value))
        if not abs(value) <= sys.float_info.max:  # NaN, inf and ints past the float range fail this
            raise ValueError("parameter %s must be finite, got %r" % (name, value))
        if name in bindings and value != bindings[name]:
            raise ValueError("%s is fixed by the config" % (name,))
        bindings[name] = Fraction(value)
    polys = [specialize(p, bindings) for p in (flow.p1, flow.p2)]
    needed = sorted({order for _, order, _ in _fields(*polys) if order})
    slot = {(v, m): (i, vi) for i, m in enumerate([0, *needed]) for vi, v in enumerate(flow.variables)}
    n, base, derived = config.grid_points, len(needed) + 3, []

    def derive(*item):  # (make, operand, arg) -> its index among the operands, made once per call
        if item not in derived:
            derived.append(item)
        return base + derived.index(item)

    def operand(block, key, exp):  # blocks[block][key] ** exp
        at = block if key is None else derive(getitem, block, key)
        return at if exp == 1 else derive(pow, at, exp)

    program = []
    for coef, target, factors in _align(*(_program(p, slot) for p in polys)):
        first, *rest = [operand(*factor) for factor in factors] or [base - 1]  # 1.0
        program.append((coef, operand(base - 2, target, 1), first, rest))
    plan = stencil_plan(needed, n, config.dx, config.accuracy) if needed else None

    def rhs(state: np.ndarray) -> np.ndarray:
        derivatives = spatial_derivative(state, plan) if plan else _check_state(state, n) or ()
        out = np.zeros((2, n))
        operands = [state, *derivatives, out, 1.0]
        for make, at, arg in derived:  # each view and power, made once
            operands.append(make(operands[at], arg))
        for coef, target, first, rest in program:
            term = coef * operands[first]  # a new array; the later factors go in place
            for at in rest:
                term *= operands[at]
            operands[target] += term
        return out

    return rhs


# -- time stepping -----------------------------------------------------------

def _rk4_step(slope: Callable, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h from y.

    slope(stage, y) is the right-hand side at stage 0, 1 or 2 of the step
    (start, middle, end) and must return a new array; stage 1 is asked
    twice.  The sum s1 + 2 s2 + 2 s3 + s4 is formed left to right in
    place in s2.
    """
    half = 0.5 * h
    s1 = slope(0, y)
    s2 = slope(1, y + half * s1)
    s3 = slope(1, y + half * s2)
    s4 = slope(2, y + h * s3)
    s2 *= 2.0
    s2 += s1
    s3 *= 2.0
    s2 += s3
    s2 += s4
    s2 *= h / 6.0
    return y + s2


def _schedule(config: SimConfig) -> tuple[int, float, int, int]:
    """(steps, dt, stride, saved) of the run config asks for.

    dt divides t_end exactly and is as close to config.dt as that allows
    (dt = 0 requests the stability bound); saved counts the initial
    state, every stride-th and the final one.  More than MAX_STEPS steps
    or MAX_SAVED_SAMPLES saved samples raise ValueError.
    """
    dt = config.dt if config.dt > 0 else config.stability_bound()
    ratio = config.t_end / dt - 1e-12
    if ratio > MAX_STEPS:
        raise ValueError(
            "t_end / dt needs %.6g steps, more than MAX_STEPS = %d" % (ratio, MAX_STEPS)
        )
    steps = max(1, math.ceil(ratio))
    stride = config.output_stride if config.output_stride > 0 else steps
    saved = 1 + -(-steps // stride)
    if saved * config.grid_points > MAX_SAVED_SAMPLES:
        raise ValueError(
            "the run would save %d samples, more than MAX_SAVED_SAMPLES = %d"
            % (saved * config.grid_points, MAX_SAVED_SAMPLES)
        )
    return steps, config.t_end / steps, stride, saved


def evolve(state0: np.ndarray, rhs: Callable, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """March the (2, n) state0 from t = 0 to t_end with fixed-step RK4.

    rhs(state) gives the (2, n) slope; evolve copies it, so rhs may reuse its buffers.
    Returns (times, states) of shapes (S,) and (S, 2, n), allocated once.
    The actual step divides t_end exactly and is as close to config.dt
    as that allows (dt = 0 requests the stability bound).  States are
    saved every output_stride steps; initial and final are always kept.
    A state that is not a real (2, n) array or lies above BLOWUP_LIMIT, more
    than MAX_STEPS steps or more than MAX_SAVED_SAMPLES samples raise ValueError
    before the first step; a step to NaN or beyond BLOWUP_LIMIT raises BlowUp.
    """
    _check_state(state0, config.grid_points)
    if not np.abs(state0).max() <= BLOWUP_LIMIT:  # NaN fails this too
        raise ValueError("initial state exceeds BLOWUP_LIMIT = %g" % BLOWUP_LIMIT)
    if config.t_end <= 0:
        raise ValueError("config.t_end must be positive to evolve")
    steps, dt, stride, saved = _schedule(config)
    times = np.zeros(saved)
    states = np.empty((saved, 2, config.grid_points))
    states[0] = y = state0
    slope = lambda stage, state: np.array(rhs(state))  # a copy the sums may reuse
    for step in range(1, steps + 1):
        new_y = _rk4_step(slope, y, dt)
        if not np.abs(new_y).max() <= BLOWUP_LIMIT:  # NaN fails this too
            raise BlowUp(step * dt, step, y)
        y = new_y
        if step % stride == 0 or step == steps:
            slot = -(-step // stride)
            times[slot], states[slot] = step * dt, y
    return times, states


# -- frames and reconstruction ----------------------------------------------

def standard_initial_frame(eps1: int, eps2: int):
    """A null frame at the origin adapted to the signature.

    Returns (gamma0, T0, W10, N0, W20, eta) with eta the diagonal ambient
    metric: (-,+,+,+) for eps1 = eps2 = 1 and (-,-,+,+) for the mixed
    cases; (-1,-1) is rejected.
    """
    s = 1.0 / math.sqrt(2.0)
    if (eps1, eps2) == (1, 1):
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        tangent = np.array([s, s, 0.0, 0.0])
        normal = np.array([s, -s, 0.0, 0.0])
        w1 = np.array([0.0, 0.0, 1.0, 0.0])
        w2 = np.array([0.0, 0.0, 0.0, 1.0])
    elif (eps1, eps2) in ((1, -1), (-1, 1)):
        eta = np.diag([-1.0, -1.0, 1.0, 1.0])
        tangent = np.array([s, 0.0, s, 0.0])
        normal = np.array([s, 0.0, -s, 0.0])
        plus = np.array([0.0, 0.0, 0.0, 1.0])
        minus = np.array([0.0, 1.0, 0.0, 0.0])
        w1, w2 = (plus, minus) if eps1 == 1 else (minus, plus)
    else:
        raise ValueError("signature (-1, -1) admits no null frame here")
    return np.zeros(4), tangent, w1, normal, w2, eta


@dataclass(frozen=True, eq=False)
class FramePath:
    """Frames and curve points sampled along sigma (endpoint included)."""

    sigma: np.ndarray
    gamma: np.ndarray
    tangent: np.ndarray
    w1: np.ndarray
    normal: np.ndarray
    w2: np.ndarray
    eta: np.ndarray
    a: float
    eps1: int
    eps2: int

    def drift_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node (gram, null, accel) drifts, all read off the pairings
        <F_i, F_j> of F = (T, W1, N, W2); gamma' = T and gamma'' = a W1."""
        frames = np.stack((self.tangent, self.w1, self.normal, self.w2), axis=1)
        pairing = np.einsum("nik,k,njk->nij", frames, np.diag(self.eta), frames)
        table = np.array([[0, 0, -1, 0], [0, self.eps1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, self.eps2]])
        gram = np.abs(pairing - table).max(axis=(1, 2))
        accel = np.abs(self.a**2 * pairing[:, 1, 1] - self.eps1 * self.a**2)
        return gram, np.abs(pairing[:, 0, 0]), accel

    def drifts(self) -> tuple[float, float, float]:
        """Largest (gram, null, accel) drift over the nodes."""
        return tuple(float(series.max()) for series in self.drift_series())

    def gram_drift(self) -> float:
        return self.drifts()[0]

    def null_drift(self) -> float:
        return self.drifts()[1]


_LAGRANGE_NODES = range(-2, 4)


def _prefix_products(factors: np.ndarray) -> np.ndarray:
    """All products F_k ... F_0 of a stack of square matrices F_0 .. F_(n-1).

    A doubling prefix scan (Hillis & Steele, CACM 29, 1986): after the pass
    with shift s, entry k holds F_k ... F_max(0, k-2s+1), the later factor on
    the left, so ceil(log2 n) batched products replace n - 1 single ones.
    """
    chain = factors.copy()
    shift = 1
    while shift < len(chain):
        chain[shift:] = chain[shift:] @ chain[:-shift]
        shift *= 2
    return chain


def reconstruct_curve(state: np.ndarray, config: SimConfig) -> FramePath:
    """Integrate the frame equations across one period of the (2, n) state.

    The curve starts from standard_initial_frame of the configured
    signature, which satisfies the pairing table exactly.
    """
    _check_state(state, config.grid_points)
    if not np.isfinite(state).all():
        raise ValueError("curvature state holds non-finite values")
    gamma0, t0, w10, n0, w20, eta = standard_initial_frame(config.eps1, config.eps2)
    a, e1, e2 = float(config.a), float(config.eps1), float(config.eps2)
    dx, n = config.dx, config.grid_points

    # (k1, k2) at sigma = (node + u) dx for u = q / (2 SUBSTEPS), by
    # 6-point Lagrange interpolation over the nodes node-2 .. node+3.
    u = np.arange(2 * SUBSTEPS + 1) / (2 * SUBSTEPS)
    weights = np.ones((len(u), len(_LAGRANGE_NODES)))
    for col, i in enumerate(_LAGRANGE_NODES):
        for m in _LAGRANGE_NODES:
            if m != i:
                weights[:, col] *= (u - m) / (i - m)
    samples = sum(
        weights[:, col, None, None] * np.roll(state, -i, axis=1)
        for col, i in enumerate(_LAGRANGE_NODES)
    )

    def apply_generator(q: int, y: np.ndarray) -> np.ndarray:
        """A(sigma) y at sample q of every node; y[r, node] is row r of its matrix."""
        k1, k2 = samples[q, :, :, None]
        _, tangent, w1, normal, w2 = y
        return np.stack(
            [
                tangent,
                a * w1,
                -k1 * tangent + a * e1 * normal,
                -e1 * k1 * w1 + e2 * k2 * w2,
                k2 * tangent,
            ]
        )

    # RK4 is linear in the state, so stepping the identity matrix of every
    # node multiplies the substep matrices into that node's propagator.  A
    # never reads gamma, so column 0 stays e0 exactly and only 1..4 move.
    h = (1.0 / SUBSTEPS) * dx
    identity = np.broadcast_to(np.eye(5)[:, None, :], (5, n, 5))
    moving = identity[:, :, 1:]
    for q in range(0, 2 * SUBSTEPS, 2):
        moving = _rk4_step(lambda stage, y: apply_generator(q + stage, y), moving, h)
    propagator = np.concatenate([identity[:, :, :1], moving], axis=2)

    out = np.empty((n + 1, 5, 4))
    out[0] = np.stack([gamma0, t0, w10, n0, w20])
    np.matmul(_prefix_products(propagator.transpose(1, 0, 2)), out[0], out=out[1:])
    sigma = np.arange(n + 1) * dx
    return FramePath(sigma, *out.transpose(1, 0, 2), eta, a, config.eps1, config.eps2)


def run_flow(
    config: SimConfig, flow: FlowPair, params: dict, k1, k2=None, reconstruct: bool = False
) -> tuple[np.ndarray, np.ndarray, FramePath | None, dict]:
    """Evolve flow from (k1, k2); returns (times, states, final path, run report).

    With reconstruct, each saved state is rebuilt from the standard
    initial frame and reduced at once to its (gram, null, accel) drifts;
    only the final FramePath is kept.
    """
    rhs = compile_flow(flow, params, config)
    times, states = evolve(uniform_grid(config, k1, k2), rhs, config)
    path, drifts = None, []
    if reconstruct:
        for state in states:
            path = reconstruct_curve(state, config)
            drifts.append(path.drifts())
    return times, states, path, run_report(config, times, states, drifts)


def nlie_run(config: SimConfig, k1, k2=None, /, **params):
    """run_flow of the third-order flow seed(1) (scale c = 1.0 by default), reconstructing."""
    from .hierarchy import seed

    return run_flow(config, seed(1).flow, {"c": 1.0, **params}, k1, k2, reconstruct=True)


# -- run reports and output ---------------------------------------------------

def run_report(
    config: SimConfig,
    times: np.ndarray,
    states: np.ndarray,
    drifts: Sequence[tuple[float, float, float]] = (),
) -> dict:
    """Config echo, mass series, (gram, null, accel) drift series, stability bound.

    The run counters come from the config's schedule: steps, rhs_evals
    (RK4 evaluates the RHS four times a step), dt_used and dt_over_bound.
    Raises ValueError naming the first entry that is not finite.
    """
    steps, dt, _, _ = _schedule(config)
    report = {
        "config": asdict(config),
        "stability_bound": config.stability_bound(),
        "steps": steps,
        "rhs_evals": 4 * steps,
        "dt_used": dt,
        "dt_over_bound": dt / config.stability_bound(),
        "times": times.tolist(),
        "mass_k1": (states[:, 0].sum(axis=1) * config.dx).tolist(),
        "mass_k2": (states[:, 1].sum(axis=1) * config.dx).tolist(),
    }
    if drifts:
        report["gram_drift"], report["null_drift"], report["accel_drift"] = map(list, zip(*drifts))
    for name, series in report.items():
        if name != "config" and not np.isfinite(series).all():
            raise ValueError("run report %s is not finite" % (name,))
    return report


def _write_rows(path: str, header: list[str], columns: list) -> None:
    """CSV with a header, sigma as %.12g and every other column as %.16g."""
    table = np.column_stack(columns)
    row = ",".join(["%.12g"] + ["%.16g"] * (table.shape[1] - 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % tuple(values.tolist()) for values in table)


def write_curvature_csv(
    path: str, config: SimConfig, times: np.ndarray, states: np.ndarray, variable: str
) -> None:
    """One quantity per file: column sigma, then one column per saved t."""
    if variable not in ("k1", "k2"):
        raise ValueError("variable must be k1 or k2")
    header = ["sigma"] + ["t=%.9g" % t for t in times]
    sigma = np.arange(config.grid_points) * config.dx
    _write_rows(path, header, [sigma, states[:, ("k1", "k2").index(variable)].T])


def write_path_csv(path: str, frame_path: FramePath) -> None:
    """One row per sampled sigma with all frame components."""
    names = ("gamma", "T", "W1", "N", "W2")
    header = ["sigma"] + ["%s_%d" % (name, i) for name in names for i in range(4)]
    fp = frame_path
    _write_rows(path, header, [fp.sigma, fp.gamma, fp.tangent, fp.w1, fp.normal, fp.w2])


def write_report_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
