"""Exact curvature-flow calculus for null curves, with grid numerics.

The exact layer (diffalg, operators, nullcurve, hierarchy) works in the
differential polynomial ring over the curvature generators and never
touches floating point; the numeric layer (numsim) compiles flows onto
periodic grids and reconstructs curves; expr and cli provide the text
surface.  Only numsim imports numpy: its names are served here through a
module __getattr__, so `import nullflow` loads it on first use of one.
"""

from .diffalg import (
    DiffAlgError,
    DiffPoly,
    FlowPair,
    NonZeroConstantTerm,
    NotExact,
    OrderLimitError,
    anti_derivative,
    const,
    euler_operator,
    frechet,
    gen,
    lie_bracket_flows,
    one,
    order_of,
    param,
    partial_derivative,
    total_derivative,
    zero,
)
from .expr import ParseError, parse_expr, parse_field, parse_flow, render
from .hierarchy import (
    HierarchyEntry,
    commute_check,
    generate,
    recursion_step,
    seed,
    verify_reference_forms,
)
from .nullcurve import (
    FrameMetric,
    LocalVectorField,
    classify,
    d_v,
    frame_derivative_coeffs,
    gamma_bracket,
    inner,
    make_X,
    projections,
    scalar_action,
    variational_flow,
)
from .operators import (
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
_NUMSIM_NAMES = {
    "BlowUp", "FramePath", "SimConfig", "UnboundParameter", "compile_flow", "evolve",
    "nlie_run", "reconstruct_curve", "run_flow", "run_report", "standard_initial_frame",
    "uniform_grid",
}


def __getattr__(name: str):
    if name not in _NUMSIM_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import numsim

    return getattr(numsim, name)


__version__ = "0.1.0"
