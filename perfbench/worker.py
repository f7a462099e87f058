"""One benchmark process: import nullflow, build inputs, run measured passes.

Started by run.py with the thread-pool variables pinned to 1.  It prints
READY with its set-up time and the probe time right after set-up once the
inputs exist, then measures and writes a JSON result to --result.  During measured passes the
host-speed probe runs every tenth of a second; its time is left out of the
operations' times.  With --setup-only it stops after READY.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

import hostspeed
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_nullflow():
    sys.path.insert(0, SRC)
    import nullflow

    if os.path.dirname(os.path.abspath(nullflow.__file__)) != os.path.join(SRC, "nullflow"):
        raise SystemExit("nullflow imported from %s, not from %s" % (nullflow.__file__, SRC))
    return nullflow


def run_pass(workload, inputs, ctx, workdir: str) -> bool:
    """One pass; an exception counts as a failed gate and ends the run."""
    gc.collect()  # every pass starts from the same heap state
    try:
        workload.run_pass(inputs, ctx, workdir)
    except Exception as exc:  # the run must still report what failed
        ctx.check("pass", False, "%s: %s" % (type(exc).__name__, exc))
        return False
    return True


def measured_passes(workload, inputs, ctx, seconds: float, workdir: str) -> tuple[list, list]:
    """Repeat the pass while another one still fits in the window.

    Returns each pass's operation times and the mean probe time during that
    pass.  A pass that raises ends the run; its operations are kept
    only when no pass completed, so a program that fails still reports the
    time it took to fail.
    """
    sampler = hostspeed.Sampler()
    ctx.probe_spent = lambda: sampler.spent
    passes, probe_s = [], []
    started = time.perf_counter()
    sampler.start()
    try:
        while True:
            ops_before, probes_before = len(ctx.ops), len(sampler.probes)
            ok = run_pass(workload, inputs, ctx, workdir)
            if ok or not passes:
                passes.append([s for _, s in ctx.ops[ops_before:]])
                # A pass shorter than one tick gets a probe of its own.
                probes = sampler.probes[probes_before:] or [hostspeed.probe() for _ in range(5)]
                probe_s.append(hostspeed.mean_probe(probes))
            elapsed = time.perf_counter() - started
            if not ok or elapsed + max(map(sum, passes)) > seconds:
                return passes, probe_s
    finally:
        sampler.stop()


def probed_pass(workload, inputs, ctx, workdir: str, sampler) -> tuple[list, float]:
    """One pass with the sampler running: its operation times and mean probe time."""
    ctx.probe_spent = lambda: sampler.spent
    before = len(ctx.ops)
    sampler.start()
    try:
        run_pass(workload, inputs, ctx, workdir)
    finally:
        sampler.stop()
    probes = sampler.probes or [hostspeed.probe() for _ in range(5)]
    return [s for _, s in ctx.ops[before:]], hostspeed.mean_probe(probes)


def traced_passes(workload, inputs, ctx, workdir: str) -> tuple[list, dict]:
    """A warm-up pass, an untraced pass, then the same pass traced.

    The warm-up pass takes the first-call costs (lazy imports, numpy's
    first calls).  Both timed passes are scaled to reference-host seconds by
    the probes taken during them, so a change of host speed between them
    does not read as tracing overhead.  In the traced pass each probe is a
    span of its own, so it stays out of every layer's self time.
    """
    import workloads

    run_pass(workload, inputs, ctx, workdir)
    untraced_ops, untraced_probe = probed_pass(workload, inputs, ctx, workdir, hostspeed.Sampler())
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        sampler = hostspeed.Sampler(tracer.wrap("hostspeed.probe", hostspeed.probe))
        traced_ops, traced_probe = probed_pass(workload, inputs, ctx, workdir, sampler)
    finally:
        tracer.uninstall()
    untraced = sum(untraced_ops) * hostspeed.REFERENCE_S / untraced_probe
    traced = sum(traced_ops) * hostspeed.REFERENCE_S / traced_probe
    layers = tracer.layer_metrics()
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.traced_wall_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    tracer.save(os.path.join(workdir, "spans.npz"))
    return [untraced_ops], layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", default="")
    parser.add_argument("--result", default="")
    args = parser.parse_args(argv)

    # Set-up runs from `import nullflow` to the finished inputs.  The
    # interpreter and numpy (imported with hostspeed) start before it: they
    # are not nullflow's work, and their start-up time does not follow the
    # probe, so no scale can steady it.
    started = time.perf_counter()
    nullflow = import_nullflow()
    import workloads  # imports nullflow, so only once the path is set

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.tiny)
    setup_s = time.perf_counter() - started
    hostspeed.probe()  # the first call pays numpy's first-call costs
    setup_probe_s = hostspeed.mean_probe([hostspeed.probe() for _ in range(10)])
    print("READY %r %r" % (setup_s, setup_probe_s), flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.workdir, exist_ok=True)
    ctx = workloads.Ctx()
    layers, probe_s = {}, []
    if args.trace:
        passes, layers = traced_passes(workload, inputs, ctx, args.workdir)
    else:
        passes, probe_s = measured_passes(workload, inputs, ctx, args.seconds, args.workdir)

    import numpy

    result = {
        "passes": passes,
        "probe_s": probe_s,
        "ops": ctx.ops,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "absent": Tracer.absent(layers) if layers else {},
        "child_env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nullflow": nullflow.__version__,
            "NULLFLOW_MAX_ORDER": os.environ.get("NULLFLOW_MAX_ORDER"),
            "diffalg.MAX_ORDER": nullflow.diffalg.MAX_ORDER,
        },
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
