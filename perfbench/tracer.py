"""Spans around calls into nullflow's public functions, recorded from outside.

The tracer replaces each wrapped function everywhere it is bound: in the
module that defines it, in every nullflow module (and the benchmark's own
workload module) that imported it by name, and, for the DiffPoly operators,
in the class dict under both the forward and the reflected name.  Spans
(name, start, end, parent) live in flat arrays while the traced pass runs
and are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Span name -> (module, attribute).  The DiffPoly operators are listed as
# class attributes; their reflected aliases are patched with them.
WRAPPED = {
    "diffalg.mul": ("nullflow.diffalg", "DiffPoly.__mul__"),
    "diffalg.add": ("nullflow.diffalg", "DiffPoly.__add__"),
    "diffalg.total_derivative": ("nullflow.diffalg", "total_derivative"),
    "diffalg.partial_derivative": ("nullflow.diffalg", "partial_derivative"),
    "diffalg.anti_derivative": ("nullflow.diffalg", "anti_derivative"),
    "diffalg.euler_operator": ("nullflow.diffalg", "euler_operator"),
    "diffalg.frechet": ("nullflow.diffalg", "frechet"),
    "diffalg.lie_bracket_flows": ("nullflow.diffalg", "lie_bracket_flows"),
    "expr.parse_expr": ("nullflow.expr", "parse_expr"),
    "operators.a_matrix_apply": ("nullflow.operators", "a_matrix_apply"),
    "operators.b_matrix_apply": ("nullflow.operators", "b_matrix_apply"),
    "operators.recursion_curvature": ("nullflow.operators", "recursion_curvature"),
    "operators.hs_classic_sigma": ("nullflow.operators", "hs_classic_sigma"),
    "nullcurve.d_v": ("nullflow.nullcurve", "d_v"),
    "nullcurve.projections": ("nullflow.nullcurve", "projections"),
    "nullcurve.make_X": ("nullflow.nullcurve", "make_X"),
    "nullcurve.variational_flow": ("nullflow.nullcurve", "variational_flow"),
    "nullcurve.gamma_bracket": ("nullflow.nullcurve", "gamma_bracket"),
    "hierarchy.generate": ("nullflow.hierarchy", "generate"),
    "hierarchy.recursion_step": ("nullflow.hierarchy", "recursion_step"),
    "hierarchy.commute_check": ("nullflow.hierarchy", "commute_check"),
    "hierarchy.verify_reference_forms": ("nullflow.hierarchy", "verify_reference_forms"),
    "numsim.compile_flow": ("nullflow.numsim", "compile_flow"),
    "numsim.spatial_derivative": ("nullflow.numsim", "spatial_derivative"),
    "numsim.evolve": ("nullflow.numsim", "evolve"),
    "numsim.reconstruct_curve": ("nullflow.numsim", "reconstruct_curve"),
    "numsim.nlie_run": ("nullflow.numsim", "nlie_run"),
    "numsim.run_report": ("nullflow.numsim", "run_report"),
    "numsim.write_curvature_csv": ("nullflow.numsim", "write_curvature_csv"),
    "numsim.write_path_csv": ("nullflow.numsim", "write_path_csv"),
    "numsim.write_report_json": ("nullflow.numsim", "write_report_json"),
    "cli.main": ("nullflow.cli", "main"),
}
# The closure compile_flow returns is wrapped under this name.
RHS = "numsim.rhs"
WRITERS = ("numsim.write_curvature_csv", "numsim.write_path_csv", "numsim.write_report_json")
_TERM_COUNTED = {
    "diffalg.mul", "diffalg.add", "diffalg.total_derivative",
    "diffalg.partial_derivative", "diffalg.anti_derivative", "diffalg.euler_operator",
}
_REFLECTED = {"__mul__": "__rmul__", "__add__": "__radd__"}
# Ratios whose base is not the layer their name starts with.
_RATIO_BASE = {
    "nullcurve.total_derivative_per_d_v": "nullcurve.d_v",
    "nullcurve.projections_per_d_v": "nullcurve.d_v",
    "numsim.spatial_derivative.calls_per_rhs": RHS,
}


def term_count(poly) -> int:
    """Number of stored terms of a DiffPoly (public API as the fallback)."""
    terms = getattr(poly, "_terms", None)
    if terms is not None:
        return len(terms)
    return sum(1 for _ in poly.terms())


class Tracer:
    """Owns the span arrays and the patches; install() then uninstall()."""

    def __init__(self):
        self.names = list(WRAPPED) + [RHS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.term_pairs = 0
        self.terms_out_peak = 0
        self.writer_bytes = 0
        self.evolve_t_end = 0.0
        self.stability_bound = 0.0
        self._undo = []

    # -- span recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_id[name]
        tracer = self

        if name == "diffalg.mul":
            def wrapper(a, b):
                other = term_count(b) if hasattr(b, "terms") else 1
                tracer.term_pairs += term_count(a) * other
                idx = tracer._open(name_id)
                try:
                    out = fn(a, b)
                finally:
                    tracer._close(idx)
                tracer._note_terms(out)
                return out
        elif name in _TERM_COUNTED:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer._note_terms(out)
                return out
        elif name == "numsim.compile_flow":
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                return tracer._wrap(RHS, out)
        elif name == "numsim.evolve":
            def wrapper(grid0, rhs, config, *args, **kwargs):
                tracer.evolve_t_end += config.t_end
                tracer.stability_bound = config.stability_bound()
                idx = tracer._open(name_id)
                try:
                    return fn(grid0, rhs, config, *args, **kwargs)
                finally:
                    tracer._close(idx)
        elif name in WRITERS:
            def wrapper(path, *args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    out = fn(path, *args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer.writer_bytes += os.path.getsize(path)
                return out
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_terms(self, out) -> None:
        count = term_count(out)
        if count > self.terms_out_peak:
            self.terms_out_peak = count

    def wrap(self, name: str, fn):
        """fn with each call recorded as a span of its own name.

        For code outside nullflow that runs inside a traced pass, such as the
        host-speed probe: as a child span it stays out of its parent's self
        time.
        """
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self._wrap(name, fn)

    # -- patching --------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Patch every binding of every wrapped function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nullflow" or n.startswith("nullflow.")]
        modules.extend(extra_modules)
        for name, (module_name, attr) in WRAPPED.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(name, original)
                for alias in (method, _REFLECTED[method]):
                    if cls.__dict__.get(alias) is original:
                        self._set(cls, alias, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, target, key: str, value) -> None:
        self._undo.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer totals over every span recorded so far."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        n_names = len(self.names)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = np.bincount(name, weights=dur - child, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        ids = self.name_id

        def count_under(child_name: str, ancestor: str) -> int:
            # Spans of child_name that run, directly or not, under ancestor.
            aid = ids[ancestor]
            if not calls[aid]:
                return 0
            safe = np.where(has_parent, parent, 0)
            flag = has_parent & (name[safe] == aid)
            while True:
                grown = flag | (has_parent & flag[safe])
                if np.array_equal(grown, flag):
                    break
                flag = grown
            return int(np.count_nonzero(flag & (name == ids[child_name])))

        m = {}
        for key in self.names:
            m[key + ".calls"] = int(calls[ids[key]])
            m[key + ".self_s"] = float(self_time[ids[key]])
        m["diffalg.mul.term_pairs"] = self.term_pairs
        m["diffalg.terms_out_peak"] = self.terms_out_peak

        d_v_calls = calls[ids["nullcurve.d_v"]]
        for key in ("total_derivative", "projections"):
            layer = "diffalg" if key == "total_derivative" else "nullcurve"
            under = count_under(layer + "." + key, "nullcurve.d_v")
            m["nullcurve.%s_per_d_v" % key] = under / d_v_calls if d_v_calls else 0.0

        rhs_calls = calls[ids[RHS]]
        sd_calls = count_under("numsim.spatial_derivative", RHS)
        m["numsim.spatial_derivative.calls_per_rhs"] = sd_calls / rhs_calls if rhs_calls else 0.0
        # RK4 evaluates the right-hand side four times per step.
        steps = count_under(RHS, "numsim.evolve") / 4
        dt_used = self.evolve_t_end / steps if steps else 0.0
        m["numsim.evolve.steps"] = steps
        m["numsim.evolve.dt_used"] = dt_used
        m["numsim.evolve.dt_over_bound"] = dt_used / self.stability_bound if steps else 0.0
        m["numsim.writers.self_s"] = sum(m[w + ".self_s"] for w in WRITERS)
        m["numsim.writers.calls"] = sum(m[w + ".calls"] for w in WRITERS)
        m["numsim.writers.bytes"] = self.writer_bytes
        m["trace.spans"] = len(dur)
        return m

    @staticmethod
    def absent(m: dict) -> dict:
        """Metrics of layer_metrics() that measure nothing on this run, with why.

        A metric is absent when its layer was not called, or when the base of
        a ratio is 0.  Its value is printed as 0 all the same, because every
        per-layer metric must be printed; this says which zeros mean "not
        exercised" rather than a measured zero.
        """
        out = {}
        for key in m:
            if key in _RATIO_BASE:
                base = _RATIO_BASE[key]
                if not m[base + ".calls"]:
                    out[key] = "its base %s.calls is 0 on this workload" % base
                continue
            layer = key.rsplit(".", 1)[0]
            if not m.get(layer + ".calls", 1):
                out[key] = "%s is not called on this workload" % layer
        if not m["diffalg.terms_out_peak"]:
            out["diffalg.terms_out_peak"] = "no counted diffalg operation is called on this workload"
        return out
